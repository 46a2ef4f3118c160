#ifndef SILOFUSE_NN_OPTIMIZER_H_
#define SILOFUSE_NN_OPTIMIZER_H_

#include <vector>

#include "nn/module.h"

namespace silofuse {

/// Base optimizer over a fixed parameter set.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the accumulated gradients.
  virtual void Step() = 0;

  /// Clears gradients of all managed parameters.
  void ZeroGrad() {
    for (Parameter* p : params_) p->grad.Fill(0.0f);
  }

  /// Rescales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  double ClipGradNorm(double max_norm);

  const std::vector<Parameter*>& params() const { return params_; }

 protected:
  std::vector<Parameter*> params_;
};

/// Stochastic gradient descent with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, float lr, float momentum = 0.0f);

  void Step() override;

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 private:
  float lr_;
  float momentum_;
  std::vector<Matrix> velocity_;
};

/// Adam optimizer (Kingma & Ba) with bias correction; the paper trains all
/// networks with lr=1e-3, which is our default.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  void Step() override;

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }
  int64_t step_count() const { return step_; }
  /// The first and second moment estimates of params()[i].
  const Matrix& first_moment(size_t i) const { return m_.at(i); }
  const Matrix& second_moment(size_t i) const { return v_.at(i); }

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t step_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace silofuse

#endif  // SILOFUSE_NN_OPTIMIZER_H_
