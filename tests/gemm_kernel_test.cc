// Property/fuzz suite for the packed GEMM kernel against the naive
// reference. The contract under test (tensor/gemm.h) is EXACT equality:
// every output element is a fixed ascending-k fma chain plus a fixed
// epilogue, so the packed/tiled/SIMD kernel, the direct small-problem loop,
// and the serial reference must agree bit-for-bit — on every shape, every
// transpose variant, every alpha/beta/bias/activation combination, and at
// every thread count. All comparisons here are memcmp, never EXPECT_NEAR.

#include "tensor/gemm.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

class ThreadSettingGuard {
 public:
  ThreadSettingGuard() : saved_(NumThreads()) {}
  ~ThreadSettingGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng->Normal(0.0, 1.0));
  }
  return v;
}

bool BytesEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(float)) == 0);
}

struct GemmProblem {
  int m, n, k;
  bool trans_a, trans_b;
  float alpha, beta;
  bool bias;
  GemmActivation act = GemmActivation::kNone;
};

// Runs the reference, the public dispatcher, the forced packed path and the
// prepacked entry point on the same inputs and asserts all four produce
// identical bytes. Returns the reference output so callers can add their
// own cross-run assertions.
std::vector<float> CheckAllPathsAgree(const GemmProblem& p, Rng* rng) {
  // Tight leading dimensions for the chosen transpose reading: op(A) is
  // m x k stored (m x k) or (k x m); op(B) is k x n stored (k x n) or
  // (n x k).
  const int lda = p.trans_a ? p.m : p.k;
  const int ldb = p.trans_b ? p.k : p.n;
  const int ldc = p.n;
  const size_t a_size = static_cast<size_t>(p.m) * p.k;
  const size_t b_size = static_cast<size_t>(p.k) * p.n;
  const size_t c_size = static_cast<size_t>(p.m) * p.n;
  const std::vector<float> a = RandomVec(a_size, rng);
  const std::vector<float> b = RandomVec(b_size, rng);
  const std::vector<float> bias =
      p.bias ? RandomVec(p.n, rng) : std::vector<float>();
  // beta != 0 reads C: all paths must start from the same initialized C.
  const std::vector<float> c_init =
      p.beta != 0.0f ? RandomVec(c_size, rng) : std::vector<float>(c_size);
  const float* bias_ptr = p.bias ? bias.data() : nullptr;

  std::vector<float> c_ref = c_init;
  GemmRef(p.trans_a, p.trans_b, p.m, p.n, p.k, p.alpha, a.data(), lda,
          b.data(), ldb, p.beta, c_ref.data(), ldc, bias_ptr, p.act);

  std::vector<float> c_pub = c_init;
  Gemm(p.trans_a, p.trans_b, p.m, p.n, p.k, p.alpha, a.data(), lda, b.data(),
       ldb, p.beta, c_pub.data(), ldc, bias_ptr, p.act);
  EXPECT_TRUE(BytesEqual(c_pub, c_ref))
      << "public Gemm != reference at m=" << p.m << " n=" << p.n
      << " k=" << p.k << " ta=" << p.trans_a << " tb=" << p.trans_b
      << " alpha=" << p.alpha << " beta=" << p.beta << " bias=" << p.bias;

  // Force the packed path even on shapes the dispatcher would run direct,
  // so packing and remainder-panel logic is exercised at every size.
  std::vector<float> c_packed = c_init;
  gemm_detail::GemmPacked(p.trans_a, p.trans_b, p.m, p.n, p.k, p.alpha,
                          a.data(), lda, b.data(), ldb, p.beta,
                          c_packed.data(), ldc, bias_ptr, p.act);
  EXPECT_TRUE(BytesEqual(c_packed, c_ref))
      << "packed kernel != reference at m=" << p.m << " n=" << p.n
      << " k=" << p.k << " ta=" << p.trans_a << " tb=" << p.trans_b
      << " alpha=" << p.alpha << " beta=" << p.beta << " bias=" << p.bias;

  // B packed once up front, as an inference weight is: the same tile loop
  // reading the stored panels instead of a per-call repack.
  const PackedB packed_b(p.trans_b, p.k, p.n, b.data(), ldb);
  std::vector<float> c_prepacked = c_init;
  GemmPrepacked(p.trans_a, p.m, p.alpha, a.data(), lda, packed_b, p.beta,
                c_prepacked.data(), ldc, bias_ptr, p.act);
  EXPECT_TRUE(BytesEqual(c_prepacked, c_ref))
      << "prepacked kernel != reference at m=" << p.m << " n=" << p.n
      << " k=" << p.k << " ta=" << p.trans_a << " tb=" << p.trans_b
      << " alpha=" << p.alpha << " beta=" << p.beta << " bias=" << p.bias;
  return c_ref;
}

// Shapes chosen to hit every remainder case of the register tile (6 x 16
// on the AVX2 and scalar paths, 8 x 16 with AVX-512): exact multiples,
// one-off remainders, primes, degenerate rows/cols, sizes big enough to
// cross the pack-and-parallelize threshold, and the shapes serving runs.
const GemmProblem kShapeCases[] = {
    {1, 1, 1, false, false, 1.0f, 0.0f, false},
    {6, 16, 8, false, false, 1.0f, 0.0f, false},    // exactly one 6-row tile
    {12, 32, 16, false, false, 1.0f, 0.0f, false},  // tile multiples
    {7, 17, 9, false, false, 1.0f, 0.0f, false},    // one past a tile
    {5, 15, 3, false, false, 1.0f, 0.0f, false},    // under one tile
    {13, 31, 29, false, false, 1.0f, 0.0f, false},  // primes
    {97, 101, 103, false, false, 1.0f, 0.0f, false},
    {257, 3, 2, false, false, 1.0f, 0.0f, false},  // many rows, tiny panel
    {1, 257, 1, false, false, 1.0f, 0.0f, false},  // single row, wide
    {3, 1, 257, false, false, 1.0f, 0.0f, false},  // deep k, narrow n
    {64, 257, 16, false, false, 1.0f, 0.0f, false},
    {128, 64, 33, false, false, 1.0f, 0.0f, false},
    {251, 63, 65, false, false, 1.0f, 0.0f, false},
    // Every row remainder of an 8-row tile, around one, two and eight tiles.
    {4, 33, 20, false, false, 1.0f, 0.0f, true},
    {7, 33, 20, false, false, 1.0f, 0.0f, true},
    {8, 33, 20, false, false, 1.0f, 0.0f, true},
    {9, 33, 20, false, false, 1.0f, 0.0f, true},
    {15, 33, 20, false, false, 1.0f, 0.0f, true},
    {16, 33, 20, false, false, 1.0f, 0.0f, true},
    {17, 33, 20, false, false, 1.0f, 0.0f, true},
    {63, 33, 20, false, false, 1.0f, 0.0f, true},
    {64, 33, 20, false, false, 1.0f, 0.0f, true},
    {65, 33, 20, false, false, 1.0f, 0.0f, true},
    // Served shapes: a 256-wide hidden layer with bias and fused GELU, a
    // narrow output layer and a data-width skip layer, at m = 4 (a small
    // request) and m = 64 (one sampling tile).
    {4, 256, 256, false, false, 1.0f, 0.0f, true, GemmActivation::kGeluFast},
    {64, 256, 256, false, false, 1.0f, 0.0f, true, GemmActivation::kGeluFast},
    {4, 8, 256, false, false, 1.0f, 0.0f, true},
    {64, 8, 256, false, false, 1.0f, 0.0f, true},
    {4, 14, 14, false, false, 1.0f, 0.0f, true},
    {64, 14, 14, false, false, 1.0f, 0.0f, true},
};

class GemmShapeTest : public ::testing::TestWithParam<GemmProblem> {};

TEST_P(GemmShapeTest, AllTransposeVariantsMatchReference) {
  GemmProblem p = GetParam();
  Rng rng(1234 + p.m * 7 + p.n * 3 + p.k);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      p.trans_a = ta;
      p.trans_b = tb;
      CheckAllPathsAgree(p, &rng);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RemainderPanels, GemmShapeTest,
                         ::testing::ValuesIn(kShapeCases));

// alpha != 1 with a bias is where a vectorized epilogue would let the
// compiler fuse alpha * acc + bias[j] into one fma (one rounding where the
// contract has two); the kernel keeps those alphas on the per-element path.
// The test also records which microkernel (GemmIsa) the binary ran.
TEST(GemmKernelTest, AlphaBetaBiasActivationCombos) {
  RecordProperty("gemm_isa", GemmIsa());
  Rng rng(77);
  const float alphas[] = {1.0f, -0.5f, 2.25f};
  const float betas[] = {0.0f, 1.0f, -1.5f};
  for (float alpha : alphas) {
    for (float beta : betas) {
      for (bool bias : {false, true}) {
        for (GemmActivation act :
             {GemmActivation::kNone, GemmActivation::kGeluFast}) {
          GemmProblem p{19, 23, 17, false, false, alpha, beta, bias, act};
          CheckAllPathsAgree(p, &rng);
          p.trans_a = true;
          p.trans_b = true;
          CheckAllPathsAgree(p, &rng);
        }
      }
    }
  }
}

TEST(GemmKernelTest, FuzzRandomShapesAndFlags) {
  Rng rng(4242);
  for (int iter = 0; iter < 60; ++iter) {
    GemmProblem p;
    // Dims 1..257 skewed small so remainder panels dominate; every ~8th
    // iteration draws a large dim to cross the packed-dispatch threshold.
    auto dim = [&rng, iter](int salt) {
      if ((iter + salt) % 8 == 0) {
        return static_cast<int>(rng.UniformInt(65, 257));
      }
      return static_cast<int>(rng.UniformInt(1, 64));
    };
    p.m = dim(0);
    p.n = dim(1);
    p.k = dim(2);
    p.trans_a = rng.UniformInt(0, 1) == 1;
    p.trans_b = rng.UniformInt(0, 1) == 1;
    p.alpha = rng.UniformInt(0, 3) == 0
                  ? 1.0f
                  : static_cast<float>(rng.Normal(0.0, 1.0));
    p.beta = rng.UniformInt(0, 1) == 0
                 ? 0.0f
                 : static_cast<float>(rng.Normal(0.0, 1.0));
    p.bias = rng.UniformInt(0, 1) == 1;
    p.act = rng.UniformInt(0, 1) == 1 ? GemmActivation::kGeluFast
                                      : GemmActivation::kNone;
    CheckAllPathsAgree(p, &rng);
  }
}

TEST(GemmKernelTest, ZeroSizeProblems) {
  Rng rng(9);
  // m == 0 and n == 0: no outputs, must not touch C (or crash on empty
  // buffers). k == 0: every output is still written via the acc = 0 chain.
  for (const GemmProblem& p :
       {GemmProblem{0, 5, 3, false, false, 1.0f, 0.0f, false},
        GemmProblem{5, 0, 3, false, false, 1.0f, 0.0f, false},
        GemmProblem{0, 0, 0, false, false, 1.0f, 0.0f, false}}) {
    CheckAllPathsAgree(p, &rng);
  }
  // k == 0 with beta = 0, bias, and activation: C starts uninitialized by
  // contract, and the epilogue of the zero accumulator must fully define it.
  GemmProblem k0{4, 7, 0, false, false, 2.0f, 0.0f, true,
                 GemmActivation::kGeluFast};
  CheckAllPathsAgree(k0, &rng);
  // k == 0 with beta != 0 reduces to C = beta * C (+ epilogue).
  GemmProblem k0b{4, 7, 0, false, false, 1.0f, 0.5f, true};
  CheckAllPathsAgree(k0b, &rng);
}

TEST(GemmKernelTest, AliasedABInputs) {
  // A and B may alias: square C = X * X (and X^T * X) with both operand
  // pointers referring to the same buffer.
  Rng rng(31);
  const int d = 37;
  const std::vector<float> x = RandomVec(static_cast<size_t>(d) * d, &rng);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      std::vector<float> c_ref(static_cast<size_t>(d) * d);
      std::vector<float> c_got(static_cast<size_t>(d) * d);
      GemmRef(ta, tb, d, d, d, 1.0f, x.data(), d, x.data(), d, 0.0f,
              c_ref.data(), d);
      Gemm(ta, tb, d, d, d, 1.0f, x.data(), d, x.data(), d, 0.0f,
           c_got.data(), d);
      EXPECT_TRUE(BytesEqual(c_got, c_ref)) << "ta=" << ta << " tb=" << tb;
      std::vector<float> c_packed(static_cast<size_t>(d) * d);
      gemm_detail::GemmPacked(ta, tb, d, d, d, 1.0f, x.data(), d, x.data(),
                              d, 0.0f, c_packed.data(), d);
      EXPECT_TRUE(BytesEqual(c_packed, c_ref)) << "ta=" << ta << " tb=" << tb;
    }
  }
}

TEST(GemmKernelTest, NonTightLeadingDimensions) {
  // Operands embedded in larger row-major buffers: lda/ldb/ldc exceed the
  // logical widths, so the kernel must honor strides rather than assume
  // contiguity.
  Rng rng(55);
  const int m = 23, n = 29, k = 31;
  const int lda = k + 5, ldb = n + 3, ldc = n + 7;
  const std::vector<float> a = RandomVec(static_cast<size_t>(m) * lda, &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(k) * ldb, &rng);
  const std::vector<float> c_init =
      RandomVec(static_cast<size_t>(m) * ldc, &rng);
  std::vector<float> c_ref = c_init;
  std::vector<float> c_pub = c_init;
  std::vector<float> c_packed = c_init;
  GemmRef(false, false, m, n, k, 1.25f, a.data(), lda, b.data(), ldb, 0.75f,
          c_ref.data(), ldc);
  Gemm(false, false, m, n, k, 1.25f, a.data(), lda, b.data(), ldb, 0.75f,
       c_pub.data(), ldc);
  gemm_detail::GemmPacked(false, false, m, n, k, 1.25f, a.data(), lda,
                          b.data(), ldb, 0.75f, c_packed.data(), ldc);
  EXPECT_TRUE(BytesEqual(c_pub, c_ref));
  EXPECT_TRUE(BytesEqual(c_packed, c_ref));
  // Padding between rows of C must survive untouched.
  for (int r = 0; r < m; ++r) {
    for (int pad = n; pad < ldc; ++pad) {
      EXPECT_EQ(c_pub[static_cast<size_t>(r) * ldc + pad],
                c_init[static_cast<size_t>(r) * ldc + pad]);
    }
  }
}

TEST(GemmKernelTest, ByteIdenticalAcrossThreadCounts) {
  ThreadSettingGuard guard;
  Rng rng(2026);
  // Big enough to fan out across the pool with several chunks per thread;
  // shapes with tile remainders so chunk boundaries land mid-panel.
  const GemmProblem cases[] = {
      {129, 64, 257, false, false, 1.0f, 0.0f, false},
      {200, 150, 97, true, false, 1.0f, 0.0f, true},
      {150, 200, 97, false, true, 1.0f, 1.0f, true, GemmActivation::kGeluFast},
  };
  for (const GemmProblem& p : cases) {
    const int lda = p.trans_a ? p.m : p.k;
    const int ldb = p.trans_b ? p.k : p.n;
    const size_t c_size = static_cast<size_t>(p.m) * p.n;
    const std::vector<float> a =
        RandomVec(static_cast<size_t>(p.m) * p.k, &rng);
    const std::vector<float> b =
        RandomVec(static_cast<size_t>(p.k) * p.n, &rng);
    const std::vector<float> bias =
        p.bias ? RandomVec(p.n, &rng) : std::vector<float>();
    const std::vector<float> c_init =
        p.beta != 0.0f ? RandomVec(c_size, &rng) : std::vector<float>(c_size);

    SetNumThreads(1);
    std::vector<float> c_serial = c_init;
    Gemm(p.trans_a, p.trans_b, p.m, p.n, p.k, p.alpha, a.data(), lda,
         b.data(), ldb, p.beta, c_serial.data(), p.n,
         p.bias ? bias.data() : nullptr, p.act);
    for (int threads : {2, 8}) {
      SetNumThreads(threads);
      std::vector<float> c_parallel = c_init;
      Gemm(p.trans_a, p.trans_b, p.m, p.n, p.k, p.alpha, a.data(), lda,
           b.data(), ldb, p.beta, c_parallel.data(), p.n,
           p.bias ? bias.data() : nullptr, p.act);
      EXPECT_TRUE(BytesEqual(c_parallel, c_serial))
          << "threads=" << threads << " m=" << p.m << " n=" << p.n
          << " k=" << p.k;
    }
  }
}

}  // namespace
}  // namespace silofuse
