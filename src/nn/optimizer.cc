#include "nn/optimizer.h"

#include <cmath>

#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

// Adam's per-element update is independent across elements, so large
// parameter tensors update on the pool with bit-exact results; the runtime
// sizes chunks from this per-element cost. The vectorized loop measured
// ~0.55 ns per element with the gradients in its own core's cache (one
// thread, 4-vCPU AVX-512 Xeon), but ~1.7 ns in a denoiser training step at
// 4 threads, where other cores wrote the gradients: 182 us inline against
// 76 us as a region over the 107 K parameters of the 8x128 denoiser. The
// hint is the in-step cost, so that model's update fans out, while the
// 32-wide silo autoencoders (a few thousand parameters) stay inline.
constexpr double kNsPerElemAdam = 1.7;
// A gradient's squared norm is one dependent double add per element (its
// order is fixed, so it cannot be split below Matrix's reduction
// threshold): ~1.3 ns per element on the same Xeon.
constexpr double kNsPerElemSquaredNorm = 1.3;
constexpr double kNsPerElemScale = 0.5;

// Runs fn(i) for every parameter index i, as one region over the
// parameters when their summed cost (ns_per_elem per element) pays for a
// fan-out, and inline otherwise; the runtime decides from the shapes
// alone. fn(i) must touch only parameter i's state. A kernel inside fn
// that would fan out runs inline in the region, and every kernel here is
// per element or has fixed chunks, so the bytes depend on neither the
// decision nor the thread count.
template <typename Fn>
void ForEachParam(const std::vector<Parameter*>& params, double ns_per_elem,
                  Fn&& fn) {
  size_t elements = 0;
  for (const Parameter* p : params) elements += p->value.size();
  ParallelForItems(0, static_cast<int64_t>(params.size()),
                   ns_per_elem * static_cast<double>(elements),
                   [&fn](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) fn(static_cast<size_t>(i));
                   });
}

}  // namespace

double Optimizer::ClipGradNorm(double max_norm) {
  std::vector<double> squares(params_.size());
  ForEachParam(params_, kNsPerElemSquaredNorm, [this, &squares](size_t i) {
    squares[i] = params_[i]->grad.SquaredNorm();
  });
  // Summed in parameter order, as one serial loop over the parameters.
  double total = 0.0;
  for (double square : squares) total += square;
  const double norm = std::sqrt(total);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    ForEachParam(params_, kNsPerElemScale, [this, scale](size_t i) {
      params_[i]->grad.ScaleInPlace(scale);
    });
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
  // One region over the parameters (inline when small): each item updates
  // one tensor, and a tensor large enough to fan out alone still does so
  // when the parameter region runs inline.
  ForEachParam(params_, kNsPerElemAdam, [&, this](size_t i) {
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
  });
}

}  // namespace silofuse
