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
    if (train_rng != nullptr) {
      PrepareTraining(input.rows(), input.cols(), train_rng);
      return ForwardRows(input, 0);
    }
    Matrix out = inner_->Forward(input, nullptr);
    out.AddInPlace(input);
    return out;
  }

  Matrix Backward(const Matrix& grad_output) override {
    Matrix grad = BackwardRows(grad_output, 0);
    AccumulateParamGrads();
    return grad;
  }

  int PrepareTraining(int rows, int cols, Rng* train_rng) override {
    SF_CHECK_EQ(inner_->PrepareTraining(rows, cols, train_rng), cols);
    return cols;
  }

  Matrix ForwardRows(const Matrix& input, int row0) override {
    Matrix out = inner_->ForwardRows(input, row0);
    out.AddInPlace(input);
    return out;
  }

  Matrix BackwardRows(const Matrix& grad_output, int row0) override {
    Matrix grad = inner_->BackwardRows(grad_output, row0);
    grad.AddInPlace(grad_output);
    return grad;
  }

  void AccumulateParamGrads() override { inner_->AccumulateParamGrads(); }

  std::vector<Parameter*> Parameters() override {
    return inner_->Parameters();
  }

  void Seal() override { inner_->Seal(); }

 private:
  std::unique_ptr<Module> inner_;
};

}  // namespace silofuse

#endif  // SILOFUSE_NN_RESIDUAL_H_
