#ifndef SILOFUSE_COMMON_FAST_MATH_H_
#define SILOFUSE_COMMON_FAST_MATH_H_

#include <algorithm>
#include <cmath>

namespace silofuse {
namespace fastmath {

// Rational tanh approximation (Cody/Waite-style 13/6-degree polynomials,
// saturating clamp at |x| = 9), accurate to a few float ulps. Written in
// plain float arithmetic only — no libm call — so every evaluation produces
// identical bits whether the compiler runs it in a SIMD lane or a scalar
// epilogue, and regardless of how many rows share the pass. That
// determinism is load-bearing: the serving layer promises that a row
// sampled inside a coalesced batch matches the same row sampled solo.
//
// INFERENCE ONLY. The approximation differs from libm by a few ulps (and
// its clamped tail never reaches exactly +/-1), so the training path —
// training forward and the gradient — stays on std::tanh to
// keep training trajectories, recorded baselines, and checkpoints
// bit-identical to the pre-approximation numerics. Shared between
// nn/activations.cc and the tensor GEMM gelu epilogue, which must agree
// bit-for-bit so fused and unfused inference match exactly.
inline float FastTanh(float x) {
  const float c = std::min(9.0f, std::max(-9.0f, x));
  const float x2 = c * c;
  // Odd 13-degree numerator over even 6-degree denominator (minimax fit).
  float p = -2.76076847742355e-16f;
  p = std::fma(p, x2, 2.00018790482477e-13f);
  p = std::fma(p, x2, -8.60467152213735e-11f);
  p = std::fma(p, x2, 5.12229709037114e-08f);
  p = std::fma(p, x2, 1.48572235717979e-05f);
  p = std::fma(p, x2, 6.37261928875436e-04f);
  p = std::fma(p, x2, 4.89352455891786e-03f);
  p *= c;
  float q = 1.19825839466702e-06f;
  q = std::fma(q, x2, 1.18534705686654e-04f);
  q = std::fma(q, x2, 2.26843463243900e-03f);
  q = std::fma(q, x2, 4.89352518554385e-03f);
  return p / q;
}

// Inference GELU (tanh approximation) on FastTanh. Bit-identical to
// nn GeluScalar — both are this function.
inline float GeluFast(float x) {
  constexpr float kGeluCoef = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kGeluCubic = 0.044715f;
  const float inner = kGeluCoef * (x + kGeluCubic * x * x * x);
  return 0.5f * x * (1.0f + FastTanh(inner));
}

}  // namespace fastmath
}  // namespace silofuse

#endif  // SILOFUSE_COMMON_FAST_MATH_H_
