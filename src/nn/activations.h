#ifndef SILOFUSE_NN_ACTIVATIONS_H_
#define SILOFUSE_NN_ACTIVATIONS_H_

#include "nn/module.h"

namespace silofuse {

/// GELU with the tanh approximation (used by the paper's autoencoders and
/// diffusion backbone). Every forward is fastmath::GeluWithGrad
/// (common/fast_math.h), the body the fused GEMM epilogue evaluates too, so
/// training, inference and `Linear::ForwardFusedGelu` give the same bits.
/// The training Forward writes y and caches dy/dx from one FastTanh per
/// element, so Backward is one multiply per element.
class Gelu : public Module {
 public:
  const char* TypeName() const override { return "gelu"; }
  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  void Seal() override { cached_grad_ = Matrix(); }

  int PrepareTraining(int rows, int cols, Rng* train_rng) override;
  Matrix ForwardRows(const Matrix& input, int row0) override;
  Matrix BackwardRows(const Matrix& grad_output, int row0) override;

 private:
  Matrix cached_grad_;  // dy/dx at the last training input
};

class Relu : public Module {
 public:
  const char* TypeName() const override { return "relu"; }
  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  void Seal() override { cached_input_ = Matrix(); }

 private:
  Matrix cached_input_;
};

/// Leaky ReLU (used by the GAN baselines).
class LeakyRelu : public Module {
 public:
  explicit LeakyRelu(float negative_slope = 0.2f) : slope_(negative_slope) {}

  const char* TypeName() const override { return "leaky_relu"; }

  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  void Seal() override { cached_input_ = Matrix(); }

 private:
  float slope_;
  Matrix cached_input_;
};

class Tanh : public Module {
 public:
  const char* TypeName() const override { return "tanh"; }
  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  void Seal() override { cached_output_ = Matrix(); }

 private:
  Matrix cached_output_;
};

class Sigmoid : public Module {
 public:
  const char* TypeName() const override { return "sigmoid"; }
  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  void Seal() override { cached_output_ = Matrix(); }

 private:
  Matrix cached_output_;
};

}  // namespace silofuse

#endif  // SILOFUSE_NN_ACTIVATIONS_H_
