#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "runtime/parallel_for.h"
#include "tensor/gemm.h"

namespace silofuse {
namespace {

// Approximate per-element costs in nanoseconds, fed to the runtime's
// cost-based dispatch (AutoGrain / ParallelForCost). These replace the old
// fixed element-count thresholds and grains: the runtime sizes chunks so
// each carries enough work to amortize the measured pool task overhead, and
// ranges cheaper than two such chunks never touch the pool at all. The
// serial/parallel decision depends only on the shape and these constants —
// never the thread count — preserving the determinism contract.
constexpr double kNsPerElemSimple = 0.5;   // add/mul/scale: memory-bound
constexpr double kNsPerElemApply = 4.0;    // std::function call per element
constexpr double kNsPerElemStrided = 1.0;  // transpose-style strided access
// Scalar reductions switch to fixed-chunk double partials at this size;
// below it the original straight-line accumulation is preserved bit-exact.
// The grain is deliberately NOT cost-retuned: reduction chunk boundaries
// feed the partial-combine order, so changing them would move losses and
// training statistics by a last ulp relative to recorded baselines.
// (Disjoint-write kernels have no such coupling and use cost dispatch.)
constexpr int64_t kReduceThreshold = int64_t{1} << 15;
constexpr int64_t kReduceGrain = int64_t{1} << 15;

// Runs fn(lo, hi) over [0, n) element indices; the runtime decides serial
// vs pool from the total cost. Each chunk must write a disjoint slice.
template <typename Fn>
void ForElements(size_t n, double ns_per_elem, Fn&& fn) {
  ParallelForCost(0, static_cast<int64_t>(n), ns_per_elem, fn);
}

// Runs fn(r0, r1) over [0, rows) row indices; per-row cost is
// cols * ns_per_elem.
template <typename Fn>
void ForRows(int rows, int cols, double ns_per_elem, Fn&& fn) {
  ParallelForCost(0, rows, static_cast<double>(cols) * ns_per_elem, fn);
}

}  // namespace

Matrix Matrix::FromVector(int rows, int cols, std::vector<float> values) {
  SF_CHECK_EQ(static_cast<size_t>(rows) * cols, values.size());
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.assign(values.begin(), values.end());
  return m;
}

Matrix Matrix::RandomNormal(int rows, int cols, Rng* rng, float mean,
                            float stddev) {
  Matrix m(rows, cols);
  for (float& v : m.data_) {
    v = static_cast<float>(rng->Normal(mean, stddev));
  }
  return m;
}

Matrix Matrix::RandomUniform(int rows, int cols, Rng* rng, float lo, float hi) {
  Matrix m(rows, cols);
  for (float& v : m.data_) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.at(i, i) = 1.0f;
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  ForRows(rows_, cols_, kNsPerElemStrided,
          [this, &out](int64_t r0, int64_t r1) {
    for (int r = static_cast<int>(r0); r < r1; ++r) {
      const float* src = row_data(r);
      for (int c = 0; c < cols_; ++c) {
        out.data_[static_cast<size_t>(c) * rows_ + r] = src[c];
      }
    }
  });
  return out;
}

Matrix Matrix::SliceRows(int start, int count) const {
  SF_CHECK(start >= 0 && count >= 0 && start + count <= rows_);
  Matrix out(count, cols_);
  std::copy(data_.begin() + static_cast<size_t>(start) * cols_,
            data_.begin() + static_cast<size_t>(start + count) * cols_,
            out.data_.begin());
  return out;
}

Matrix Matrix::SliceCols(int start, int count) const {
  SF_CHECK(start >= 0 && count >= 0 && start + count <= cols_);
  Matrix out(rows_, count);
  for (int r = 0; r < rows_; ++r) {
    const float* src = row_data(r) + start;
    std::copy(src, src + count, out.row_data(r));
  }
  return out;
}

Matrix Matrix::GatherRows(const std::vector<int>& indices) const {
  Matrix out(static_cast<int>(indices.size()), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    int r = indices[i];
    SF_CHECK(r >= 0 && r < rows_);
    std::copy(row_data(r), row_data(r) + cols_, out.row_data(static_cast<int>(i)));
  }
  return out;
}

Matrix Matrix::ConcatCols(const std::vector<Matrix>& parts) {
  SF_CHECK(!parts.empty());
  int rows = parts[0].rows();
  int total_cols = 0;
  for (const Matrix& p : parts) {
    SF_CHECK_EQ(p.rows(), rows);
    total_cols += p.cols();
  }
  Matrix out(rows, total_cols);
  for (int r = 0; r < rows; ++r) {
    float* dst = out.row_data(r);
    for (const Matrix& p : parts) {
      const float* src = p.row_data(r);
      std::copy(src, src + p.cols(), dst);
      dst += p.cols();
    }
  }
  return out;
}

Matrix Matrix::ConcatRows(const std::vector<Matrix>& parts) {
  SF_CHECK(!parts.empty());
  int cols = parts[0].cols();
  int total_rows = 0;
  for (const Matrix& p : parts) {
    SF_CHECK_EQ(p.cols(), cols);
    total_rows += p.rows();
  }
  Matrix out(total_rows, cols);
  int row = 0;
  for (const Matrix& p : parts) {
    std::copy(p.data_.begin(), p.data_.end(), out.row_data(row));
    row += p.rows();
  }
  return out;
}

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b) {
  SF_CHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << "shape mismatch:" << a.ToString() << "vs" << b.ToString();
}

}  // namespace

Matrix Matrix::Add(const Matrix& other) const {
  CheckSameShape(*this, other);
  Matrix out = *this;
  out.AddInPlace(other);
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  CheckSameShape(*this, other);
  Matrix out = *this;
  out.SubInPlace(other);
  return out;
}

Matrix Matrix::Mul(const Matrix& other) const {
  CheckSameShape(*this, other);
  Matrix out = *this;
  out.MulInPlace(other);
  return out;
}

Matrix Matrix::Scale(float scalar) const {
  Matrix out = *this;
  out.ScaleInPlace(scalar);
  return out;
}

void Matrix::AddInPlace(const Matrix& other) {
  CheckSameShape(*this, other);
  float* a = data_.data();
  const float* b = other.data_.data();
  ForElements(data_.size(), kNsPerElemSimple,
              [a, b](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) a[i] += b[i];
  });
}

void Matrix::SubInPlace(const Matrix& other) {
  CheckSameShape(*this, other);
  float* a = data_.data();
  const float* b = other.data_.data();
  ForElements(data_.size(), kNsPerElemSimple,
              [a, b](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) a[i] -= b[i];
  });
}

void Matrix::MulInPlace(const Matrix& other) {
  CheckSameShape(*this, other);
  float* a = data_.data();
  const float* b = other.data_.data();
  ForElements(data_.size(), kNsPerElemSimple,
              [a, b](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) a[i] *= b[i];
  });
}

void Matrix::ScaleInPlace(float scalar) {
  float* v = data_.data();
  ForElements(data_.size(), kNsPerElemSimple,
              [v, scalar](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) v[i] *= scalar;
  });
}

void Matrix::Axpy(float scalar, const Matrix& other) {
  CheckSameShape(*this, other);
  float* a = data_.data();
  const float* b = other.data_.data();
  ForElements(data_.size(), kNsPerElemSimple,
              [a, b, scalar](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) a[i] += scalar * b[i];
  });
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::AddRowBroadcast(const Matrix& row) const {
  SF_CHECK_EQ(row.rows(), 1);
  SF_CHECK_EQ(row.cols(), cols_);
  Matrix out = *this;
  const float* src = row.data();
  ForRows(rows_, cols_, kNsPerElemSimple,
          [this, &out, src](int64_t r0, int64_t r1) {
    for (int r = static_cast<int>(r0); r < r1; ++r) {
      float* dst = out.row_data(r);
      for (int c = 0; c < cols_; ++c) dst[c] += src[c];
    }
  });
  return out;
}

void Matrix::AddRowBroadcastInPlace(const Matrix& row) {
  SF_CHECK_EQ(row.rows(), 1);
  SF_CHECK_EQ(row.cols(), cols_);
  const float* src = row.data();
  ForRows(rows_, cols_, kNsPerElemSimple, [this, src](int64_t r0, int64_t r1) {
    for (int r = static_cast<int>(r0); r < r1; ++r) {
      float* dst = row_data(r);
      for (int c = 0; c < cols_; ++c) dst[c] += src[c];
    }
  });
}

Matrix Matrix::Apply(const std::function<float(float)>& fn) const {
  Matrix out = *this;
  float* v = out.data_.data();
  ForElements(out.data_.size(), kNsPerElemApply,
              [v, &fn](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) v[i] = fn(v[i]);
  });
  return out;
}

// Both matmul variants delegate to the packed, register-blocked,
// SIMD-dispatched kernel in tensor/gemm.{h,cc}. The kernel's exactness
// contract (each output element is one ascending-k fma chain) makes its
// bytes identical to the previous in-class kernels AND independent of
// transpose handling, packing, tiling, pool chunking, and thread count —
// including the old Transpose()-then-MatMul materialization, which computed
// the same chains over the same logical values. The serving layer's
// coalescing byte-identity promise rides on that invariant.

Matrix Matrix::MatMul(const Matrix& other) const {
  SF_CHECK_EQ(cols_, other.rows());
  Matrix out(rows_, other.cols());
  Gemm(/*trans_a=*/false, /*trans_b=*/false, rows_, other.cols(), cols_,
       1.0f, data(), cols_, other.data(), other.cols(), 0.0f, out.data(),
       out.cols());
  return out;
}

Matrix Matrix::MatMulTransposedB(const Matrix& other) const {
  // this: (m x k), other: (n x k) -> out: (m x n) = this * other^T.
  SF_CHECK_EQ(cols_, other.cols());
  Matrix out(rows_, other.rows());
  Gemm(/*trans_a=*/false, /*trans_b=*/true, rows_, other.rows(), cols_,
       1.0f, data(), cols_, other.data(), other.cols(), 0.0f, out.data(),
       out.cols());
  return out;
}

double Matrix::Sum() const {
  const int64_t n = static_cast<int64_t>(data_.size());
  const float* v = data_.data();
  if (n < kReduceThreshold) {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) acc += v[i];
    return acc;
  }
  // Fixed-chunk double partials combined in chunk order: identical at any
  // thread count (chunking depends only on n), within 1 ulp of the serial
  // accumulation kept above for small matrices.
  return ParallelReduceSum(0, n, kReduceGrain, [v](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += v[i];
    return acc;
  });
}

double Matrix::Mean() const {
  SF_CHECK(!data_.empty());
  return Sum() / static_cast<double>(data_.size());
}

float Matrix::Min() const {
  SF_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Matrix::Max() const {
  SF_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

Matrix Matrix::ColSum() const {
  Matrix out(1, cols_);
  std::vector<double> acc(cols_, 0.0);
  // Parallel over *column* ranges: each chunk owns a disjoint slice of the
  // accumulators and still visits rows top-to-bottom, so every column's
  // summation order matches the serial kernel exactly.
  auto kernel = [this, &acc](int64_t c0, int64_t c1) {
    for (int r = 0; r < rows_; ++r) {
      const float* src = row_data(r);
      for (int64_t c = c0; c < c1; ++c) acc[c] += src[c];
    }
  };
  // Cost per column is one double-add per row; the runtime keeps the whole
  // reduction serial unless the matrix is large enough to amortize fan-out.
  ParallelForCost(0, cols_, static_cast<double>(rows_) * kNsPerElemSimple,
                  kernel);
  for (int c = 0; c < cols_; ++c) out.at(0, c) = static_cast<float>(acc[c]);
  return out;
}

Matrix Matrix::ColMean() const {
  SF_CHECK_GT(rows_, 0);
  Matrix out = ColSum();
  out.ScaleInPlace(1.0f / static_cast<float>(rows_));
  return out;
}

Matrix Matrix::ColStd() const {
  SF_CHECK_GT(rows_, 0);
  Matrix mean = ColMean();
  std::vector<double> acc(cols_, 0.0);
  auto kernel = [this, &mean, &acc](int64_t c0, int64_t c1) {
    for (int r = 0; r < rows_; ++r) {
      const float* src = row_data(r);
      for (int64_t c = c0; c < c1; ++c) {
        double d = src[c] - mean.at(0, static_cast<int>(c));
        acc[c] += d * d;
      }
    }
  };
  ParallelForCost(0, cols_, static_cast<double>(rows_) * kNsPerElemStrided,
                  kernel);
  Matrix out(1, cols_);
  for (int c = 0; c < cols_; ++c) {
    out.at(0, c) = static_cast<float>(std::sqrt(acc[c] / rows_));
  }
  return out;
}

double Matrix::SquaredNorm() const {
  const int64_t n = static_cast<int64_t>(data_.size());
  const float* v = data_.data();
  if (n < kReduceThreshold) {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) acc += static_cast<double>(v[i]) * v[i];
    return acc;
  }
  return ParallelReduceSum(0, n, kReduceGrain, [v](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += static_cast<double>(v[i]) * v[i];
    return acc;
  });
}

int Matrix::RowArgMax(int r) const {
  SF_CHECK(r >= 0 && r < rows_);
  SF_CHECK_GT(cols_, 0);
  const float* src = row_data(r);
  int best = 0;
  for (int c = 1; c < cols_; ++c) {
    if (src[c] > src[best]) best = c;
  }
  return best;
}

bool Matrix::AllFinite() const {
  for (float v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::string Matrix::ToString(bool with_values) const {
  std::ostringstream out;
  out << "Matrix(" << rows_ << "x" << cols_ << ")";
  if (with_values && rows_ <= 8 && cols_ <= 8) {
    out << " [";
    for (int r = 0; r < rows_; ++r) {
      out << (r == 0 ? "[" : ", [");
      for (int c = 0; c < cols_; ++c) {
        if (c > 0) out << ", ";
        out << at(r, c);
      }
      out << "]";
    }
    out << "]";
  }
  return out.str();
}

}  // namespace silofuse
