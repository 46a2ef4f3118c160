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
// sampled inside a coalesced batch matches the same row sampled solo, and
// training promises the same bytes at any thread count.
//
// The one tanh of every GELU: the training forward (value and dy/dx), the
// inference forward and the tensor GEMM gelu epilogue all evaluate
// GeluWithGrad below, so a model is served with the activation it was
// trained with, and fused and unfused inference agree bit for bit. At the
// clamp it rounds to exactly +/-1, so the GELU of a large x is exactly x
// (exactly -0 for a large negative x).
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

// A GELU value and its derivative, from one FastTanh.
struct GeluPoint {
  float value;
  float grad;
};

// GELU, tanh approximation: y = x/2 * (1 + tanh(u)), u = sqrt(2/pi) *
// (x + 0.044715 x^3), and dy/dx = (1 + t)/2 + x/2 * (1 - t^2) * du/dx. A
// caller that reads only `value` compiles to GeluFast's loop: the unread
// derivative is dead code, and the value's arithmetic does not depend on it.
inline GeluPoint GeluWithGrad(float x) {
  constexpr float kGeluCoef = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kGeluCubic = 0.044715f;
  const float u = kGeluCoef * (x + kGeluCubic * x * x * x);
  const float t = FastTanh(u);
  const float du = kGeluCoef * (1.0f + 3.0f * kGeluCubic * x * x);
  return {0.5f * x * (1.0f + t),
          0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du};
}

// GeluWithGrad's value alone: the inference forward and the GEMM epilogue.
inline float GeluFast(float x) { return GeluWithGrad(x).value; }

}  // namespace fastmath
}  // namespace silofuse

#endif  // SILOFUSE_COMMON_FAST_MATH_H_
