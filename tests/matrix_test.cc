#include "tensor/matrix.h"

#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ConstructZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(m.at(r, c), 0.0f);
  }
}

TEST(MatrixTest, FromVectorRoundTrip) {
  Matrix m = Matrix::FromVector(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(m.at(0, 0), 1.0f);
  EXPECT_EQ(m.at(0, 1), 2.0f);
  EXPECT_EQ(m.at(1, 0), 3.0f);
  EXPECT_EQ(m.at(1, 1), 4.0f);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a = Matrix::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b = Matrix::FromVector(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = a.MatMul(b);
  ASSERT_EQ(c.rows(), 2);
  ASSERT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatrixTest, MatMulTransposedBMatchesExplicitTranspose) {
  Rng rng(2);
  Matrix a = Matrix::RandomNormal(4, 3, &rng);
  Matrix b = Matrix::RandomNormal(6, 3, &rng);
  Matrix expected = a.MatMul(b.Transpose());
  Matrix got = a.MatMulTransposedB(b);
  for (int r = 0; r < got.rows(); ++r) {
    for (int c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got.at(r, c), expected.at(r, c), 1e-4);
    }
  }
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(3);
  Matrix a = Matrix::RandomNormal(4, 7, &rng);
  EXPECT_EQ(a.Transpose().Transpose(), a);
}

TEST(MatrixTest, SliceAndConcatColsRoundTrip) {
  Rng rng(4);
  Matrix a = Matrix::RandomNormal(3, 8, &rng);
  Matrix left = a.SliceCols(0, 3);
  Matrix right = a.SliceCols(3, 5);
  Matrix joined = Matrix::ConcatCols({left, right});
  EXPECT_EQ(joined, a);
}

TEST(MatrixTest, SliceAndConcatRowsRoundTrip) {
  Rng rng(5);
  Matrix a = Matrix::RandomNormal(6, 2, &rng);
  Matrix top = a.SliceRows(0, 2);
  Matrix bottom = a.SliceRows(2, 4);
  Matrix joined = Matrix::ConcatRows({top, bottom});
  EXPECT_EQ(joined, a);
}

TEST(MatrixTest, GatherRowsSelectsAndDuplicates) {
  Matrix a = Matrix::FromVector(3, 1, {10, 20, 30});
  Matrix g = a.GatherRows({2, 0, 2});
  EXPECT_EQ(g.at(0, 0), 30.0f);
  EXPECT_EQ(g.at(1, 0), 10.0f);
  EXPECT_EQ(g.at(2, 0), 30.0f);
}

TEST(MatrixTest, ElementwiseArithmetic) {
  Matrix a = Matrix::FromVector(1, 3, {1, 2, 3});
  Matrix b = Matrix::FromVector(1, 3, {4, 5, 6});
  EXPECT_EQ(a.Add(b), Matrix::FromVector(1, 3, {5, 7, 9}));
  EXPECT_EQ(b.Sub(a), Matrix::FromVector(1, 3, {3, 3, 3}));
  EXPECT_EQ(a.Mul(b), Matrix::FromVector(1, 3, {4, 10, 18}));
  EXPECT_EQ(a.Scale(2.0f), Matrix::FromVector(1, 3, {2, 4, 6}));
}

TEST(MatrixTest, AxpyAccumulates) {
  Matrix a = Matrix::FromVector(1, 2, {1, 1});
  Matrix b = Matrix::FromVector(1, 2, {2, 4});
  a.Axpy(0.5f, b);
  EXPECT_EQ(a, Matrix::FromVector(1, 2, {2, 3}));
}

TEST(MatrixTest, RowBroadcasts) {
  Matrix a = Matrix::FromVector(2, 2, {1, 2, 3, 4});
  Matrix row = Matrix::FromVector(1, 2, {10, 20});
  EXPECT_EQ(a.AddRowBroadcast(row), Matrix::FromVector(2, 2, {11, 22, 13, 24}));
}

TEST(MatrixTest, Reductions) {
  Matrix a = Matrix::FromVector(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(a.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.5);
  EXPECT_EQ(a.Min(), 1.0f);
  EXPECT_EQ(a.Max(), 4.0f);
  EXPECT_EQ(a.ColSum(), Matrix::FromVector(1, 2, {4, 6}));
  EXPECT_EQ(a.ColMean(), Matrix::FromVector(1, 2, {2, 3}));
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 30.0);
}

TEST(MatrixTest, ColStdMatchesPopulationFormula) {
  Matrix a = Matrix::FromVector(4, 1, {1, 2, 3, 4});
  Matrix s = a.ColStd();
  EXPECT_NEAR(s.at(0, 0), std::sqrt(1.25), 1e-6);
}

TEST(MatrixTest, RowArgMax) {
  Matrix a = Matrix::FromVector(2, 3, {1, 5, 2, 9, 0, 3});
  EXPECT_EQ(a.RowArgMax(0), 1);
  EXPECT_EQ(a.RowArgMax(1), 0);
}

TEST(MatrixTest, AllFiniteDetectsNaN) {
  Matrix a(1, 2, 1.0f);
  EXPECT_TRUE(a.AllFinite());
  a.at(0, 1) = std::nanf("");
  EXPECT_FALSE(a.AllFinite());
}

TEST(MatrixTest, IdentityMatMulIsIdentityOperation) {
  Rng rng(6);
  Matrix a = Matrix::RandomNormal(3, 3, &rng);
  EXPECT_EQ(a.MatMul(Matrix::Identity(3)).ToString(true),
            a.ToString(true));
}

TEST(MatrixTest, RandomNormalMomentsRoughlyCorrect) {
  Rng rng(7);
  Matrix a = Matrix::RandomNormal(200, 50, &rng, 2.0f, 3.0f);
  EXPECT_NEAR(a.Mean(), 2.0, 0.1);
  double var = 0.0;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      const double d = a.at(r, c) - 2.0;
      var += d * d;
    }
  }
  var /= a.size();
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

// Buffers of kMappedBufferBytes or more map their own pages; on either side
// of the threshold a Matrix starts zeroed, copies, moves and frees alike.
TEST(MatrixTest, MappedAndHeapBuffersBehaveAlike) {
  constexpr int kCols = 64;
  const int mapped_rows =
      static_cast<int>(memstats::kMappedBufferBytes / (kCols * sizeof(float)));
  for (int rows : {mapped_rows - 1, mapped_rows, 3 * mapped_rows + 5}) {
    SCOPED_TRACE(rows);
    Matrix m(rows, kCols);
    EXPECT_EQ(m.Min(), 0.0f);
    EXPECT_EQ(m.Max(), 0.0f);
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = static_cast<float>(i);
    Matrix copy = m;
    EXPECT_TRUE(copy == m);
    EXPECT_NE(copy.data(), m.data());
    const float* storage = m.data();
    Matrix moved = std::move(m);
    EXPECT_EQ(moved.data(), storage);
    EXPECT_EQ(moved.at(rows - 1, kCols - 1),
              static_cast<float>(moved.size() - 1));
    copy = Matrix(2, 2);  // frees the copy's buffer
    EXPECT_EQ(copy.size(), 4u);
  }
}

TEST(MatrixTest, RandomUniformRange) {
  Rng rng(8);
  Matrix a = Matrix::RandomUniform(50, 50, &rng, -2.0f, 5.0f);
  EXPECT_GE(a.Min(), -2.0f);
  EXPECT_LT(a.Max(), 5.0f);
}

TEST(MatrixTest, ApplySquares) {
  Matrix a = Matrix::FromVector(1, 3, {1, -2, 3});
  Matrix sq = a.Apply([](float v) { return v * v; });
  EXPECT_EQ(sq, Matrix::FromVector(1, 3, {1, 4, 9}));
}

// ---- Runtime determinism: parallel kernels must match serial byte-exactly.

// Shapes straddling the parallel-dispatch thresholds in matrix.cc: tiny
// (always serial), boundary (~2^14 elements), and comfortably parallel.
struct GemmShape {
  int m, k, n;
};

class MatrixParallelTest : public ::testing::TestWithParam<GemmShape> {
 protected:
  void TearDown() override { SetNumThreads(1); }
};

TEST_P(MatrixParallelTest, KernelsMatchSerialExactly) {
  const GemmShape shape = GetParam();
  Rng rng(99);
  const Matrix a = Matrix::RandomNormal(shape.m, shape.k, &rng);
  const Matrix b = Matrix::RandomNormal(shape.k, shape.n, &rng);
  const Matrix bt = Matrix::RandomNormal(shape.n, shape.k, &rng);
  const Matrix row = Matrix::RandomNormal(1, shape.k, &rng);

  SetNumThreads(1);
  const Matrix mm_serial = a.MatMul(b);
  const Matrix mtb_serial = a.MatMulTransposedB(bt);
  const Matrix colsum_serial = a.ColSum();
  const Matrix colstd_serial = a.ColStd();
  const Matrix tr_serial = a.Transpose();
  const Matrix add_serial = a.AddRowBroadcast(row);
  const Matrix gelu_serial =
      a.Apply([](float v) { return v * std::tanh(v); });
  const double sum_serial = a.Sum();
  const double norm_serial = a.SquaredNorm();

  for (int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    EXPECT_EQ(a.MatMul(b), mm_serial) << "threads=" << threads;
    EXPECT_EQ(a.MatMulTransposedB(bt), mtb_serial) << "threads=" << threads;
    EXPECT_EQ(a.ColSum(), colsum_serial) << "threads=" << threads;
    EXPECT_EQ(a.ColStd(), colstd_serial) << "threads=" << threads;
    EXPECT_EQ(a.Transpose(), tr_serial) << "threads=" << threads;
    EXPECT_EQ(a.AddRowBroadcast(row), add_serial) << "threads=" << threads;
    EXPECT_EQ(a.Apply([](float v) { return v * std::tanh(v); }), gelu_serial)
        << "threads=" << threads;
    EXPECT_EQ(a.Sum(), sum_serial) << "threads=" << threads;
    EXPECT_EQ(a.SquaredNorm(), norm_serial) << "threads=" << threads;

    Matrix acc_serial = a;
    Matrix acc_parallel = a;
    SetNumThreads(1);
    acc_serial.Axpy(0.25f, a);
    acc_serial.ScaleInPlace(1.5f);
    SetNumThreads(threads);
    acc_parallel.Axpy(0.25f, a);
    acc_parallel.ScaleInPlace(1.5f);
    EXPECT_EQ(acc_parallel, acc_serial) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesStraddlingThreshold, MatrixParallelTest,
    ::testing::Values(GemmShape{3, 4, 5},        // far below threshold
                      GemmShape{40, 41, 10},     // just below 2^14 elements
                      GemmShape{128, 128, 128},  // at/above threshold
                      GemmShape{200, 300, 64},   // rectangular, parallel
                      GemmShape{1, 512, 512},    // single row: serial GEMM
                      GemmShape{513, 7, 3},      // many rows, tiny inner
                      GemmShape{6, 7, 13},       // sub-tile remainders
                      GemmShape{17, 31, 29},     // prime dims
                      GemmShape{65, 127, 33},    // one past packed tiles
                      GemmShape{129, 64, 257}));  // deep k, packed+parallel

}  // namespace
}  // namespace silofuse
