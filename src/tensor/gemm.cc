#include "tensor/gemm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/fast_math.h"
#include "runtime/parallel_for.h"

// SILOFUSE_GEMM_MAX_ISA caps the microkernel below what the compiler
// targets (CMake's SILOFUSE_GEMM_ISA: avx2 -> 1, scalar -> 0), so one host
// can run every compiled path; unset means the best the target allows.
#ifndef SILOFUSE_GEMM_MAX_ISA
#define SILOFUSE_GEMM_MAX_ISA 2
#endif

#if SILOFUSE_GEMM_MAX_ISA >= 2 && defined(__AVX512F__)
#define SILOFUSE_GEMM_AVX512 1
#define SILOFUSE_GEMM_AVX2 0
#elif SILOFUSE_GEMM_MAX_ISA >= 1 && defined(__AVX2__) && defined(__FMA__)
#define SILOFUSE_GEMM_AVX512 0
#define SILOFUSE_GEMM_AVX2 1
#else
#define SILOFUSE_GEMM_AVX512 0
#define SILOFUSE_GEMM_AVX2 0
#endif

#if SILOFUSE_GEMM_AVX512 || SILOFUSE_GEMM_AVX2
#include <immintrin.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define SF_RESTRICT __restrict__
#else
#define SF_RESTRICT
#endif

namespace silofuse {
namespace {

// BLIS-style register block: kMr output rows x kNr output columns of
// accumulators live across the entire k loop. kNr = 16 is one zmm or two
// ymm vectors, so the packed B panel layout is the same on every path. With
// AVX-512, kMr = 8 takes 8 of 32 zmm registers: one B load and eight
// broadcast-FMAs per k step. The AVX2 tile is 6 x 16: 12 ymm accumulators
// + 2 B vectors + 1 broadcast inside the 16-register file, and the scalar
// fallback uses the same 6 x 16 tile. Only the A tile height differs
// between paths; each output stays one ascending-k fma chain, so the bytes
// do not.
#if SILOFUSE_GEMM_AVX512
constexpr int kMr = 8;
#else
constexpr int kMr = 6;
#endif
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
// (tile t holds rows [t*kMr, ...), k-major: dst[kk*kMr + r]); a tail
// tile's missing rows are left unwritten, because the microkernel instance
// for its real row count never reads them.
// Each lane is its own chain, so B's zero pad columns only feed pad lanes,
// which are never written back: column remainders cost nothing extra in
// the microkernel.

size_t PackedBFloats(int k, int n) {
  return static_cast<size_t>((n + kNr - 1) / kNr) * k * kNr;
}

// Writes every one of PackedBFloats(k, n) floats at `out`, pads included.
void PackB(const float* b, int ldb, bool trans_b, int k, int n, float* out) {
  const int panels = (n + kNr - 1) / kNr;
  for (int p = 0; p < panels; ++p) {
    float* dst = out + static_cast<size_t>(p) * k * kNr;
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
      // Transposed storage: one k step reads `real` consecutive floats.
      for (int kk = 0; kk < k; ++kk) {
        const float* src = a + static_cast<size_t>(kk) * lda + base;
        float* d = dst + static_cast<size_t>(kk) * kMr;
        for (int r = 0; r < real; ++r) d[r] = src[r];
      }
    } else {
      for (int r = 0; r < real; ++r) {
        const float* src = a + static_cast<size_t>(base + r) * lda;
        for (int kk = 0; kk < k; ++kk) dst[static_cast<size_t>(kk) * kMr + r] = src[kk];
      }
    }
  }
}

// --- Microkernel -----------------------------------------------------------
//
// Computes the raw R x kNr accumulator tile (R <= kMr rows of a packed-A
// tile, whose k steps are kMr floats apart) against one packed-B panel; the
// caller writes back the real (unpadded) lanes. A short tail tile runs the
// R-row instance, so it spends no multiply-adds on pad rows. Every variant
// accumulates each output element over k in ascending order with
// exactly-rounded fma, so their results are bit-identical: the SIMD
// versions just run 16 independent chains per row in vector lanes.

#if SILOFUSE_GEMM_AVX512

template <int R>
void MicroKernel(int k, const float* SF_RESTRICT pa, const float* SF_RESTRICT pb,
                 float* SF_RESTRICT acc) {
  __m512 c[R];
  for (int r = 0; r < R; ++r) c[r] = _mm512_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const __m512 b = _mm512_loadu_ps(pb + static_cast<size_t>(kk) * kNr);
    const float* arow = pa + static_cast<size_t>(kk) * kMr;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      c[r] = _mm512_fmadd_ps(_mm512_set1_ps(arow[r]), b, c[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm512_storeu_ps(acc + static_cast<size_t>(r) * kNr, c[r]);
  }
}

#elif SILOFUSE_GEMM_AVX2

template <int R>
void MicroKernel(int k, const float* SF_RESTRICT pa, const float* SF_RESTRICT pb,
                 float* SF_RESTRICT acc) {
  __m256 c0[R];
  __m256 c1[R];
  for (int r = 0; r < R; ++r) {
    c0[r] = _mm256_setzero_ps();
    c1[r] = _mm256_setzero_ps();
  }
  for (int kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(pb + static_cast<size_t>(kk) * kNr);
    const __m256 b1 = _mm256_loadu_ps(pb + static_cast<size_t>(kk) * kNr + 8);
    const float* arow = pa + static_cast<size_t>(kk) * kMr;
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(arow[r]);
      c0[r] = _mm256_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm256_fmadd_ps(av, b1, c1[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_ps(acc + static_cast<size_t>(r) * kNr, c0[r]);
    _mm256_storeu_ps(acc + static_cast<size_t>(r) * kNr + 8, c1[r]);
  }
}

#else  // portable scalar fallback — identical results by construction

template <int R>
void MicroKernel(int k, const float* SF_RESTRICT pa, const float* SF_RESTRICT pb,
                 float* SF_RESTRICT acc) {
  float tile[R][kNr];
  for (int r = 0; r < R; ++r)
    for (int jj = 0; jj < kNr; ++jj) tile[r][jj] = 0.0f;
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = pb + static_cast<size_t>(kk) * kNr;
    const float* arow = pa + static_cast<size_t>(kk) * kMr;
    for (int r = 0; r < R; ++r) {
      const float av = arow[r];
      for (int jj = 0; jj < kNr; ++jj) {
        tile[r][jj] = std::fma(av, brow[jj], tile[r][jj]);
      }
    }
  }
  for (int r = 0; r < R; ++r)
    for (int jj = 0; jj < kNr; ++jj)
      acc[static_cast<size_t>(r) * kNr + jj] = tile[r][jj];
}

#endif

using MicroKernelFn = void (*)(int, const float*, const float*, float*);

// kRowKernels[R] is the R-row instance, R = 1..kMr.
template <int... R>
constexpr std::array<MicroKernelFn, kMr + 1> RowKernels(
    std::integer_sequence<int, R...>) {
  return {nullptr, &MicroKernel<R + 1>...};
}
constexpr std::array<MicroKernelFn, kMr + 1> kRowKernels =
    RowKernels(std::make_integer_sequence<int, kMr>{});

// --- Epilogue --------------------------------------------------------------
//
// A TileWriter writes an rn x jn accumulator tile (row stride kNr) to C,
// bias already offset to the tile's first column. The choice of writer is
// made once per call. With alpha == 1 each beta/bias/act combination has
// its own instance, so the row-segment loop is branch-free and vectorizes,
// the fused GeluFast included; alpha * acc is acc exactly there, so no
// product is left for the compiler's fp-contraction to fuse into `+ bias`
// (a fused fma would round once where Finalize rounds twice). Other alphas
// keep the per-element Finalize.
using TileWriter = void (*)(const float* acc, int rn, int jn, float* c, int ldc,
                            float alpha, float beta, const float* bias,
                            GemmActivation act);

template <bool kBeta, bool kBias, bool kGelu>
void WriteTile(const float* SF_RESTRICT acc, int rn, int jn, float* SF_RESTRICT c,
               int ldc, float alpha, float beta, const float* SF_RESTRICT bias,
               GemmActivation /*act*/) {
  for (int r = 0; r < rn; ++r) {
    const float* SF_RESTRICT acc_row = acc + static_cast<size_t>(r) * kNr;
    float* SF_RESTRICT c_row = c + static_cast<size_t>(r) * ldc;
    for (int jj = 0; jj < jn; ++jj) {
      float v = acc_row[jj];
      if constexpr (kBeta) v = std::fma(alpha, v, beta * c_row[jj]);
      if constexpr (kBias) v += bias[jj];
      if constexpr (kGelu) v = fastmath::GeluFast(v);
      c_row[jj] = v;
    }
  }
}

void WriteTileFinalize(const float* acc, int rn, int jn, float* c, int ldc,
                       float alpha, float beta, const float* bias,
                       GemmActivation act) {
  for (int r = 0; r < rn; ++r) {
    const float* acc_row = acc + static_cast<size_t>(r) * kNr;
    float* c_row = c + static_cast<size_t>(r) * ldc;
    for (int jj = 0; jj < jn; ++jj) {
      c_row[jj] = Finalize(acc_row[jj], c_row + jj, alpha, beta, bias, jj, act);
    }
  }
}

TileWriter PickTileWriter(float alpha, float beta, const float* bias,
                          GemmActivation act) {
  if (alpha != 1.0f) return &WriteTileFinalize;
  constexpr TileWriter kWriters[8] = {
      &WriteTile<false, false, false>, &WriteTile<false, false, true>,
      &WriteTile<false, true, false>,  &WriteTile<false, true, true>,
      &WriteTile<true, false, false>,  &WriteTile<true, false, true>,
      &WriteTile<true, true, false>,   &WriteTile<true, true, true>};
  return kWriters[(beta != 0.0f ? 4 : 0) + (bias != nullptr ? 2 : 0) +
                  (act == GemmActivation::kGeluFast ? 1 : 0)];
}

// The one tile loop behind Gemm's packed path and GemmPrepacked. B arrives
// packed (panel p at pb_base + p * k * kNr); A is packed per pool chunk in
// the worker.
void RunPacked(bool trans_a, int m, int n, int k, float alpha, const float* a,
               int lda, const float* pb_base, float beta, float* c, int ldc,
               const float* bias, GemmActivation act) {
  if (m <= 0 || n <= 0) return;
  const int panels = (n + kNr - 1) / kNr;
  const double row_cost_ns = std::max(1.0, static_cast<double>(k) * n * kNsPerMac);
  const TileWriter writer = PickTileWriter(alpha, beta, bias, act);
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
      const float* bias_p = bias != nullptr ? bias + j0 : nullptr;
      for (int t = 0; t < tiles; ++t) {
        const int base = i0 + t * kMr;
        const int rn = std::min(kMr, i1 - base);
        kRowKernels[rn](k, pa_base + static_cast<size_t>(t) * k * kMr, pb, acc);
        float* c_tile = c + static_cast<size_t>(base) * ldc + j0;
        writer(acc, rn, jn, c_tile, ldc, alpha, beta, bias_p, act);
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
  // Pack B on the calling thread into a buffer that lives for this call
  // only, so a thread that trained keeps no training-sized pack once it
  // serves. It is not zero-filled first: PackB writes every float.
  const std::unique_ptr<float[]> packed_b(new float[PackedBFloats(k, n)]);
  PackB(b, ldb, trans_b, k, n, packed_b.get());
  RunPacked(trans_a, m, n, k, alpha, a, lda, packed_b.get(), beta, c, ldc,
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
  panels_.resize(PackedBFloats(k, n));
  PackB(b, ldb, trans_b, k, n, panels_.data());
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

const char* GemmIsa() {
  return SILOFUSE_GEMM_AVX512 ? "avx512" : SILOFUSE_GEMM_AVX2 ? "avx2" : "scalar";
}

bool GemmUsesSimd() { return SILOFUSE_GEMM_AVX512 || SILOFUSE_GEMM_AVX2; }

}  // namespace silofuse
