#ifndef SILOFUSE_NN_ACTIVATIONS_H_
#define SILOFUSE_NN_ACTIVATIONS_H_

#include "nn/module.h"

namespace silofuse {

/// GELU with the tanh approximation (used by the paper's autoencoders and
/// diffusion backbone). The training Forward caches dy/dx, computed from
/// the same tanh as y, so Backward is one multiply per element.
class Gelu : public Module {
 public:
  const char* TypeName() const override { return "gelu"; }
  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  void Seal() override { cached_grad_ = Matrix(); }

 private:
  Matrix cached_grad_;  // GeluGradScalar(x) of the last training input
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

/// Elementwise GELU (shared by module and tests). GeluScalar is the
/// inference forward (deterministic FastTanh approximation, a few ulps
/// from libm); GeluTrainScalar is the libm-tanh forward of a training
/// Forward, and GeluGradScalar is its exact derivative — training
/// numerics are unchanged by the fast inference path. Both training
/// scalars share one body with Gelu's training Forward, so its outputs and
/// cached derivative equal them bit for bit.
float GeluScalar(float x);
float GeluTrainScalar(float x);
float GeluGradScalar(float x);

}  // namespace silofuse

#endif  // SILOFUSE_NN_ACTIVATIONS_H_
