#ifndef SILOFUSE_NN_LAYER_NORM_H_
#define SILOFUSE_NN_LAYER_NORM_H_

#include <vector>

#include "nn/module.h"

namespace silofuse {

/// Per-row layer normalization with learned gain and bias.
/// y = (x - mean(x)) / sqrt(var(x) + eps) * gamma + beta.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int features, float eps = 1e-5f);

  const char* TypeName() const override { return "layer_norm"; }

  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  void Seal() override;

 private:
  int features_;
  float eps_;
  Parameter gamma_;  // (1 x features)
  Parameter beta_;   // (1 x features)
  Matrix cached_xhat_;
  std::vector<float> cached_inv_std_;
};

}  // namespace silofuse

#endif  // SILOFUSE_NN_LAYER_NORM_H_
