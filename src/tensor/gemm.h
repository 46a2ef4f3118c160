#ifndef SILOFUSE_TENSOR_GEMM_H_
#define SILOFUSE_TENSOR_GEMM_H_

#include <vector>

namespace silofuse {

/// Optional activation fused into the GEMM epilogue (applied after the
/// alpha/beta combine and the bias add). kGeluFast is the tanh-approximation
/// GELU from common/fast_math.h — the body every nn::Gelu forward, training
/// included, evaluates, so fusing it cannot change a byte.
enum class GemmActivation { kNone, kGeluFast };

/// General matrix multiply:
///
///   C = alpha * op(A) * op(B) + beta * C        (then optional epilogue)
///
/// op(A) is m x k, op(B) is k x n, C is m x n. `trans_a` / `trans_b` select
/// the transposed reading of the row-major storage: with trans_a the
/// storage is (k x m) and op(A)(i,kk) = a[kk * lda + i]. `lda`/`ldb`/`ldc`
/// are storage row strides. When `bias` is non-null it points at n floats
/// added to every output row; `act` applies after the bias.
///
/// Exactness contract (the root of the repo-wide determinism guarantee):
/// every output element is
///
///   acc    = fma(A(i,0), B(0,j), ... fma over k in ASCENDING order ... )
///   v      = (beta == 0) ? alpha * acc : fma(alpha, acc, beta * C_old)
///   v     += bias[j]                         (if bias)
///   v      = GeluFast(v)                     (if act == kGeluFast)
///
/// computed with exactly-rounded std::fma. Because the per-element chain is
/// fixed, the bytes of C are independent of: the microkernel's ISA (16
/// independent chains ride one zmm or two ymm vectors, each still ascending
/// in k), its tile height, panel packing, the vector width of the
/// epilogue, pool chunk boundaries, thread count, and whether a row ran
/// solo or inside a larger batch — which is what the serving layer's
/// coalescing byte-identity promise rests on. The epilogue's bytes also
/// rest on the build's fp-contraction: CMakeLists.txt passes GCC
/// -ffp-contract=fast explicitly, because GeluFast's products fused into
/// fmas round differently from unfused ones. When beta == 0, C may be
/// uninitialized (it is never read).
///
/// C must not alias A or B. A and B may alias each other (both are
/// read-only). Zero-size problems (m, n, or k == 0) are handled: m*n
/// outputs are still written when only k is 0 (acc = 0 path).
///
/// Large problems run a packed, register-blocked kernel parallelized over
/// row blocks with a cost-derived grain (runtime AutoGrain); small problems
/// run the direct loop inline on the caller. The split depends only on the
/// problem shape, never the thread count. The packed path repacks B into a
/// buffer of its own on every call; a B that does not change between calls
/// (an inference weight) can be packed once into a PackedB instead.
void Gemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta,
          float* c, int ldc, const float* bias = nullptr,
          GemmActivation act = GemmActivation::kNone);

/// op(B) (k x n) laid out once in the packed kernel's 16-column panel
/// layout (the tail panel zero-padded), so a fixed weight is not repacked
/// per call. Holds a copy: later writes to the source do not reach it.
class PackedB {
 public:
  /// Packs op(B), read from `b` as Gemm reads it (trans_b, ldb).
  PackedB(bool trans_b, int k, int n, const float* b, int ldb);

  int k() const { return k_; }
  int n() const { return n_; }
  const float* data() const { return panels_.data(); }

 private:
  int k_;
  int n_;
  std::vector<float> panels_;
};

/// Gemm with op(B) = `b` prepacked: C = alpha * op(A) * b + beta * C, then
/// the same epilogue. Runs the packed kernel on every shape, including the
/// ones Gemm would send to the direct loop; the exactness contract above
/// holds unchanged, so the bytes equal Gemm's on the same operands.
void GemmPrepacked(bool trans_a, int m, float alpha, const float* a, int lda,
                   const PackedB& b, float beta, float* c, int ldc,
                   const float* bias = nullptr,
                   GemmActivation act = GemmActivation::kNone);

/// Naive triple-loop reference implementing exactly the contract above,
/// serially. The packed kernel must match it bit-for-bit on every shape —
/// tests/gemm_kernel_test.cc fuzzes that equivalence.
void GemmRef(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
             const float* a, int lda, const float* b, int ldb, float beta,
             float* c, int ldc, const float* bias = nullptr,
             GemmActivation act = GemmActivation::kNone);

/// The microkernel this build compiled: "avx512", "avx2" or "scalar" (the
/// best the target allows, capped by CMake's SILOFUSE_GEMM_ISA). Results
/// are identical on every one; this is informational, for test logs.
const char* GemmIsa();

/// True when GemmIsa() is a SIMD microkernel (AVX-512 or AVX2+FMA); false
/// on the portable scalar fallback. Informational, for benches.
bool GemmUsesSimd();

namespace gemm_detail {

/// The packed/tiled path invoked unconditionally — testing hook so the
/// property suite can exercise packing/remainder-panel logic on shapes the
/// public Gemm would route to the direct loop. Same contract as Gemm.
void GemmPacked(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
                const float* a, int lda, const float* b, int ldb, float beta,
                float* c, int ldc, const float* bias = nullptr,
                GemmActivation act = GemmActivation::kNone);

}  // namespace gemm_detail
}  // namespace silofuse

#endif  // SILOFUSE_TENSOR_GEMM_H_
