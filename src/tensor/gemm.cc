#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/fast_math.h"
#include "runtime/parallel_for.h"

#if defined(__AVX2__) && defined(__FMA__)
#define SILOFUSE_GEMM_AVX2 1
#include <immintrin.h>
#else
#define SILOFUSE_GEMM_AVX2 0
#endif

#if defined(__GNUC__) || defined(__clang__)
#define SF_RESTRICT __restrict__
#else
#define SF_RESTRICT
#endif

namespace silofuse {
namespace {

// BLIS-style register block: kMr output rows x kNr output columns of
// accumulators live across the entire k loop. kNr = 16 is two AVX2 vectors;
// kMr = 6 leaves 12 ymm accumulators + 2 B vectors + 1 broadcast inside the
// 16-register file. The scalar fallback uses the identical tile so packing,
// remainder handling, and per-element fma chains match bit-for-bit.
constexpr int kMr = 6;
constexpr int kNr = 16;

// Rough per-MAC cost fed to AutoGrain (ns). Sized for the packed SIMD
// kernel (~10 MAC/ns would be 0.1 ns per 2-flop MAC); deliberately on the
// high side so chunks stay comfortably above the pool's task overhead.
constexpr double kNsPerMac = 0.1;

// Below this many multiply-adds the direct loop beats packing overhead.
// Shape-only threshold: the packed/direct split never depends on threads.
constexpr int64_t kPackMacThreshold = int64_t{1} << 14;

// Logical element accessors for the four transpose variants. op(A) is
// m x k over storage with row stride lda; with trans the storage holds the
// transposed matrix.
inline float LoadA(const float* a, int lda, bool trans_a, int i, int kk) {
  return trans_a ? a[static_cast<size_t>(kk) * lda + i]
                 : a[static_cast<size_t>(i) * lda + kk];
}

inline float LoadB(const float* b, int ldb, bool trans_b, int kk, int j) {
  return trans_b ? b[static_cast<size_t>(j) * ldb + kk]
                 : b[static_cast<size_t>(kk) * ldb + j];
}

// Per-element epilogue shared by every path: alpha/beta combine (C is not
// read when beta == 0, so uninitialized output storage is fine), bias add,
// optional fused inference GELU. One fixed expression -> one rounding
// sequence everywhere.
inline float Finalize(float acc, const float* c_elem, float alpha, float beta,
                      const float* bias, int j, GemmActivation act) {
  float v = beta == 0.0f ? alpha * acc : std::fma(alpha, acc, beta * *c_elem);
  if (bias != nullptr) v += bias[j];
  if (act == GemmActivation::kGeluFast) v = fastmath::GeluFast(v);
  return v;
}

// Direct per-element loop: the reference semantics, used both as GemmRef
// and as the small-problem path of Gemm (for tiny shapes it IS the fastest
// implementation, and sharing the code makes small-path equivalence true by
// construction).
void GemmDirect(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
                const float* a, int lda, const float* b, int ldb, float beta,
                float* c, int ldc, const float* bias, GemmActivation act) {
  for (int i = 0; i < m; ++i) {
    float* c_row = c + static_cast<size_t>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        acc = std::fma(LoadA(a, lda, trans_a, i, kk),
                       LoadB(b, ldb, trans_b, kk, j), acc);
      }
      c_row[j] = Finalize(acc, c_row + j, alpha, beta, bias, j, act);
    }
  }
}

// --- Packing ---------------------------------------------------------------
//
// B is packed on the calling thread (per Gemm call, or once into a PackedB)
// into kNr-wide column panels (panel p holds columns [p*kNr, p*kNr + kNr),
// k-major: dst[kk*kNr + jj]); the tail panel zero-pads the missing
// columns. A is packed per pool chunk in the worker into kMr-row tiles
// (tile t holds rows [t*kMr, ...), k-major: dst[kk*kMr + r]) with
// zero-padded tail rows.
// Padding is what makes remainder handling free inside the microkernel:
// fma(a, 0, acc) and fma(0, b, acc) leave acc bit-exactly unchanged (both
// operands are finite), and pad lanes are simply never written back.

void PackB(const float* b, int ldb, bool trans_b, int k, int n,
           std::vector<float>* out) {
  const int panels = (n + kNr - 1) / kNr;
  out->resize(static_cast<size_t>(panels) * k * kNr);
  for (int p = 0; p < panels; ++p) {
    float* dst = out->data() + static_cast<size_t>(p) * k * kNr;
    const int j0 = p * kNr;
    const int w = std::min(kNr, n - j0);
    if (!trans_b && w == kNr) {
      // Full panel of row-major B: each k step is one contiguous 16-float
      // row segment.
      const float* src = b + j0;
      for (int kk = 0; kk < k; ++kk) {
        std::memcpy(dst + static_cast<size_t>(kk) * kNr,
                    src + static_cast<size_t>(kk) * ldb, sizeof(float) * kNr);
      }
    } else {
      for (int kk = 0; kk < k; ++kk) {
        float* d = dst + static_cast<size_t>(kk) * kNr;
        for (int jj = 0; jj < kNr; ++jj) {
          d[jj] = jj < w ? LoadB(b, ldb, trans_b, kk, j0 + jj) : 0.0f;
        }
      }
    }
  }
}

void PackARows(const float* a, int lda, bool trans_a, int k, int i0, int i1,
               std::vector<float>* out) {
  const int rows = i1 - i0;
  const int tiles = (rows + kMr - 1) / kMr;
  out->resize(static_cast<size_t>(tiles) * k * kMr);
  for (int t = 0; t < tiles; ++t) {
    float* dst = out->data() + static_cast<size_t>(t) * k * kMr;
    const int base = i0 + t * kMr;
    const int real = std::min(kMr, i1 - base);
    if (trans_a) {
      // Transposed storage: one k step reads kMr consecutive floats.
      for (int kk = 0; kk < k; ++kk) {
        const float* src = a + static_cast<size_t>(kk) * lda + base;
        float* d = dst + static_cast<size_t>(kk) * kMr;
        for (int r = 0; r < kMr; ++r) d[r] = r < real ? src[r] : 0.0f;
      }
    } else {
      for (int r = 0; r < kMr; ++r) {
        if (r < real) {
          const float* src = a + static_cast<size_t>(base + r) * lda;
          for (int kk = 0; kk < k; ++kk) dst[static_cast<size_t>(kk) * kMr + r] = src[kk];
        } else {
          for (int kk = 0; kk < k; ++kk) dst[static_cast<size_t>(kk) * kMr + r] = 0.0f;
        }
      }
    }
  }
}

// --- Microkernel -----------------------------------------------------------
//
// Computes the raw kMr x kNr accumulator tile for one packed-A tile against
// one packed-B panel; the caller applies Finalize on the real (unpadded)
// lanes. Both variants accumulate each output element over k in ascending
// order with exactly-rounded fma, so their results are bit-identical: the
// AVX2 version just runs 16 independent chains per row in SIMD lanes.

#if SILOFUSE_GEMM_AVX2

void MicroKernel(int k, const float* SF_RESTRICT pa, const float* SF_RESTRICT pb,
                 float* SF_RESTRICT acc) {
  __m256 c0[kMr];
  __m256 c1[kMr];
  for (int r = 0; r < kMr; ++r) {
    c0[r] = _mm256_setzero_ps();
    c1[r] = _mm256_setzero_ps();
  }
  for (int kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(pb + static_cast<size_t>(kk) * kNr);
    const __m256 b1 = _mm256_loadu_ps(pb + static_cast<size_t>(kk) * kNr + 8);
    const float* arow = pa + static_cast<size_t>(kk) * kMr;
#pragma GCC unroll 6
    for (int r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_set1_ps(arow[r]);
      c0[r] = _mm256_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm256_fmadd_ps(av, b1, c1[r]);
    }
  }
  for (int r = 0; r < kMr; ++r) {
    _mm256_storeu_ps(acc + static_cast<size_t>(r) * kNr, c0[r]);
    _mm256_storeu_ps(acc + static_cast<size_t>(r) * kNr + 8, c1[r]);
  }
}

#else  // portable scalar fallback — identical results by construction

void MicroKernel(int k, const float* SF_RESTRICT pa, const float* SF_RESTRICT pb,
                 float* SF_RESTRICT acc) {
  float tile[kMr][kNr];
  for (int r = 0; r < kMr; ++r)
    for (int jj = 0; jj < kNr; ++jj) tile[r][jj] = 0.0f;
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = pb + static_cast<size_t>(kk) * kNr;
    const float* arow = pa + static_cast<size_t>(kk) * kMr;
    for (int r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (int jj = 0; jj < kNr; ++jj) {
        tile[r][jj] = std::fma(av, brow[jj], tile[r][jj]);
      }
    }
  }
  for (int r = 0; r < kMr; ++r)
    for (int jj = 0; jj < kNr; ++jj)
      acc[static_cast<size_t>(r) * kNr + jj] = tile[r][jj];
}

#endif  // SILOFUSE_GEMM_AVX2

// The one tile loop behind Gemm's packed path and GemmPrepacked. B arrives
// packed (panel p at pb_base + p * k * kNr); A is packed per pool chunk in
// the worker.
void RunPacked(bool trans_a, int m, int n, int k, float alpha, const float* a,
               int lda, const float* pb_base, float beta, float* c, int ldc,
               const float* bias, GemmActivation act) {
  if (m <= 0 || n <= 0) return;
  const int panels = (n + kNr - 1) / kNr;
  const double row_cost_ns = std::max(1.0, static_cast<double>(k) * n * kNsPerMac);
  ParallelForCost(0, m, row_cost_ns, [=](int64_t lo, int64_t hi) {
    const int i0 = static_cast<int>(lo);
    const int i1 = static_cast<int>(hi);
    static thread_local std::vector<float> packed_a;
    PackARows(a, lda, trans_a, k, i0, i1, &packed_a);
    const float* pa_base = packed_a.data();
    const int tiles = (i1 - i0 + kMr - 1) / kMr;
    float acc[kMr * kNr];
    // Panel-outer, tile-inner: one packed B panel (k x 16) stays hot in L1
    // while every row tile of the chunk consumes it.
    for (int p = 0; p < panels; ++p) {
      const float* pb = pb_base + static_cast<size_t>(p) * k * kNr;
      const int j0 = p * kNr;
      const int jn = std::min(kNr, n - j0);
      for (int t = 0; t < tiles; ++t) {
        MicroKernel(k, pa_base + static_cast<size_t>(t) * k * kMr, pb, acc);
        const int base = i0 + t * kMr;
        const int rn = std::min(kMr, i1 - base);
        for (int r = 0; r < rn; ++r) {
          float* c_row = c + static_cast<size_t>(base + r) * ldc + j0;
          const float* acc_row = acc + static_cast<size_t>(r) * kNr;
          for (int jj = 0; jj < jn; ++jj) {
            c_row[jj] = Finalize(acc_row[jj], c_row + jj, alpha, beta, bias,
                                 j0 + jj, act);
          }
        }
      }
    }
  });
}

}  // namespace

namespace gemm_detail {

void GemmPacked(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
                const float* a, int lda, const float* b, int ldb, float beta,
                float* c, int ldc, const float* bias, GemmActivation act) {
  if (m <= 0 || n <= 0) return;
  // Pack B on the calling thread; every chunk (and the fuzz tests'
  // repeated calls) reuses the thread_local capacity, avoiding an
  // mmap + page-fault cycle per GEMM.
  static thread_local std::vector<float> packed_b;
  PackB(b, ldb, trans_b, k, n, &packed_b);
  RunPacked(trans_a, m, n, k, alpha, a, lda, packed_b.data(), beta, c, ldc,
            bias, act);
}

}  // namespace gemm_detail

void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta,
          float* c, int ldc, const float* bias, GemmActivation act) {
  if (m <= 0 || n <= 0) return;
  const int64_t macs = static_cast<int64_t>(m) * n * k;
  if (macs < kPackMacThreshold || n < 4) {
    GemmDirect(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
               bias, act);
    return;
  }
  gemm_detail::GemmPacked(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                          beta, c, ldc, bias, act);
}

PackedB::PackedB(bool trans_b, int k, int n, const float* b, int ldb)
    : k_(k), n_(n) {
  PackB(b, ldb, trans_b, k, n, &panels_);
}

void GemmPrepacked(bool trans_a, int m, float alpha, const float* a, int lda,
                   const PackedB& b, float beta, float* c, int ldc,
                   const float* bias, GemmActivation act) {
  RunPacked(trans_a, m, b.n(), b.k(), alpha, a, lda, b.data(), beta, c, ldc,
            bias, act);
}

void GemmRef(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
             const float* a, int lda, const float* b, int ldb, float beta,
             float* c, int ldc, const float* bias, GemmActivation act) {
  if (m <= 0 || n <= 0) return;
  GemmDirect(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
             bias, act);
}

bool GemmUsesSimd() { return SILOFUSE_GEMM_AVX2 != 0; }

}  // namespace silofuse
