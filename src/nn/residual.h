#ifndef SILOFUSE_NN_RESIDUAL_H_
#define SILOFUSE_NN_RESIDUAL_H_

#include <memory>
#include <utility>

#include "nn/module.h"

namespace silofuse {

/// Residual wrapper: y = x + inner(x). Input and output widths of `inner`
/// must match. Residual paths keep deep denoising backbones trainable at
/// small step budgets (a plain MLP stack struggles to even represent the
/// near-identity maps diffusion needs at high noise levels).
class Residual : public Module {
 public:
  explicit Residual(std::unique_ptr<Module> inner)
      : inner_(std::move(inner)) {
    SF_CHECK(inner_ != nullptr);
  }

  const char* TypeName() const override { return "residual"; }

  Matrix Forward(const Matrix& input, Rng* train_rng) override {
    Matrix out = inner_->Forward(input, train_rng);
    out.AddInPlace(input);
    return out;
  }

  Matrix Backward(const Matrix& grad_output) override {
    Matrix grad = inner_->Backward(grad_output);
    grad.AddInPlace(grad_output);
    return grad;
  }

  std::vector<Parameter*> Parameters() override {
    return inner_->Parameters();
  }

  void Seal() override { inner_->Seal(); }

 private:
  std::unique_ptr<Module> inner_;
};

}  // namespace silofuse

#endif  // SILOFUSE_NN_RESIDUAL_H_
