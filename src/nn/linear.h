#ifndef SILOFUSE_NN_LINEAR_H_
#define SILOFUSE_NN_LINEAR_H_

#include <optional>
#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/gemm.h"

namespace silofuse {

/// Fully-connected layer: y = x W + b, with W of shape (in x out).
///
/// Weights use Kaiming-uniform initialization (fan-in scaled), matching the
/// PyTorch default the paper's implementation would have used.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng* rng, bool bias = true);

  const char* TypeName() const override { return "linear"; }

  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  std::vector<Parameter*> Parameters() override;

  /// Inference-only fused y = gelu(x W + b): one GEMM with the bias and
  /// FastTanh-GELU epilogues applied in the writeback, no intermediate
  /// matrix and no caches. Bit-identical to Forward(input, nullptr) then
  /// Gelu::Forward(., nullptr) — the epilogue applies the exact scalar
  /// chain the unfused pass applies (see tensor/gemm.h). Sequential's
  /// inference peephole is the intended caller.
  Matrix ForwardFusedGelu(const Matrix& input);

  /// Packs the weight once in the GEMM kernel's panel layout; inference
  /// forwards (Forward(., nullptr) and ForwardFusedGelu) then run the
  /// packed kernel on every shape without a per-call repack. Bytes are
  /// unchanged. Any training Forward drops the pack, since that is the only
  /// road to Backward and an optimizer step, so a pack never serves stale
  /// weights. Code that writes weight().value directly must pack again.
  void PackWeights();
  bool packed() const { return packed_weight_.has_value(); }

  /// PackWeights, and drops the grads and the cached input until the next
  /// training Forward.
  void Seal() override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  // x W + b with the `act` epilogue, through the pack when there is one.
  Matrix Project(const Matrix& input, GemmActivation act) const;

  int in_features_;
  int out_features_;
  bool has_bias_;
  Parameter weight_;  // (in x out)
  Parameter bias_;    // (1 x out)
  Matrix cached_input_;
  std::optional<PackedB> packed_weight_;  // set by PackWeights, inference only
};

}  // namespace silofuse

#endif  // SILOFUSE_NN_LINEAR_H_
