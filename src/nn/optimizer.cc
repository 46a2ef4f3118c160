#include "nn/optimizer.h"

#include <cmath>

#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

// Adam's per-element update is independent across elements, so large
// parameter tensors update on the pool with bit-exact results; the runtime
// sizes chunks from this per-element cost. The vectorized loop measured
// ~0.55 ns per element (one thread, 4-vCPU AVX-512 Xeon), so a tensor
// needs ~170 K elements before it fans out.
constexpr double kNsPerElemAdam = 0.6;

}  // namespace

double Optimizer::ClipGradNorm(double max_norm) {
  double total = 0.0;
  for (Parameter* p : params_) total += p->grad.SquaredNorm();
  const double norm = std::sqrt(total);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Parameter* p : params_) p->grad.ScaleInPlace(scale);
  }
  return norm;
}

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) {
    velocity_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    if (momentum_ > 0.0f) {
      velocity_[i].ScaleInPlace(momentum_);
      velocity_[i].AddInPlace(p->grad);
      p->value.Axpy(-lr_, velocity_[i]);
    } else {
      p->value.Axpy(-lr_, p->grad);
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step() {
  ++step_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_));
  const float alpha = static_cast<float>(lr_ * std::sqrt(bc2) / bc1);
  // Locals, not members read through `this`: a store to m, v or value
  // could alias a member, which kept the loop scalar. With locals, and
  // optimizer.cc built with -fno-math-errno (src/CMakeLists.txt), the loop
  // vectorizes, the decay test included. IEEE sqrt and division are
  // correctly rounded, so the bytes match the scalar loop.
  const float beta1 = beta1_;
  const float beta2 = beta2_;
  const float one_minus_beta1 = 1.0f - beta1_;
  const float one_minus_beta2 = 1.0f - beta2_;
  const float eps = eps_;
  const float decay = weight_decay_;
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    float* value = p->value.data();
    const float* grad = p->grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = static_cast<int64_t>(p->value.size());
    auto update = [=](int64_t lo, int64_t hi) {
      for (int64_t j = lo; j < hi; ++j) {
        float g = grad[j];
        if (decay > 0.0f) g += decay * value[j];
        m[j] = beta1 * m[j] + one_minus_beta1 * g;
        v[j] = beta2 * v[j] + one_minus_beta2 * g * g;
        value[j] -= alpha * m[j] / (std::sqrt(v[j]) + eps);
      }
    };
    ParallelForCost(0, n, kNsPerElemAdam, update);
  }
}

}  // namespace silofuse
