#include "nn/linear.h"

#include <cmath>

namespace silofuse {

Linear::Linear(int in_features, int out_features, Rng* rng, bool bias)
    : in_features_(in_features), out_features_(out_features), has_bias_(bias) {
  SF_CHECK_GT(in_features, 0);
  SF_CHECK_GT(out_features, 0);
  const float bound = 1.0f / std::sqrt(static_cast<float>(in_features));
  weight_ = Parameter(
      "weight", Matrix::RandomUniform(in_features, out_features, rng, -bound, bound));
  if (has_bias_) {
    bias_ = Parameter("bias",
                      Matrix::RandomUniform(1, out_features, rng, -bound, bound));
  }
}

Matrix Linear::Forward(const Matrix& input, Rng* train_rng) {
  SF_CHECK_EQ(input.cols(), in_features_);
  // The cache only feeds Backward; inference skips the allocation + copy.
  // A training forward leads to a weight update, so it retires the pack and
  // re-creates the grads Seal released.
  if (train_rng != nullptr) {
    cached_input_ = input;
    packed_weight_.reset();
    weight_.EnsureGrad();
    bias_.EnsureGrad();
  }
  return Project(input, GemmActivation::kNone);
}

Matrix Linear::ForwardFusedGelu(const Matrix& input) {
  SF_CHECK_EQ(input.cols(), in_features_);
  return Project(input, GemmActivation::kGeluFast);
}

void Linear::PackWeights() {
  packed_weight_.emplace(/*trans_b=*/false, in_features_, out_features_,
                         weight_.value.data(), out_features_);
}

void Linear::Seal() {
  PackWeights();
  weight_.grad = Matrix();
  bias_.grad = Matrix();
  cached_input_ = Matrix();
}

Matrix Linear::Project(const Matrix& input, GemmActivation act) const {
  // The bias rides the GEMM epilogue (v = acc, then v += bias[j] per
  // element) — the exact sequence the old MatMul + AddRowBroadcastInPlace
  // pair produced, so training and inference bytes are unchanged.
  Matrix out(input.rows(), out_features_);
  const float* bias = has_bias_ ? bias_.value.data() : nullptr;
  if (packed_weight_.has_value()) {
    GemmPrepacked(/*trans_a=*/false, input.rows(), 1.0f, input.data(),
                  in_features_, *packed_weight_, 0.0f, out.data(),
                  out_features_, bias, act);
  } else {
    Gemm(/*trans_a=*/false, /*trans_b=*/false, input.rows(), out_features_,
         in_features_, 1.0f, input.data(), in_features_, weight_.value.data(),
         out_features_, 0.0f, out.data(), out_features_, bias, act);
  }
  return out;
}

Matrix Linear::Backward(const Matrix& grad_output) {
  SF_CHECK_EQ(grad_output.cols(), out_features_);
  SF_CHECK_EQ(grad_output.rows(), cached_input_.rows())
      << "Linear Backward: (no matching training Forward)";
  // dW = x^T g ; db = sum_rows(g) ; dx = g W^T.
  // dW accumulates straight into the grad buffer via the beta = 1 epilogue:
  // no temporary matrix and no second pass. Bytes are unchanged —
  // fma(1, acc, 1 * old) rounds once, exactly as the old
  // AddInPlace(old += acc) did.
  Gemm(/*trans_a=*/true, /*trans_b=*/false, in_features_, out_features_,
       grad_output.rows(), 1.0f, cached_input_.data(), in_features_,
       grad_output.data(), out_features_, 1.0f, weight_.grad.data(),
       out_features_);
  if (has_bias_) bias_.grad.AddInPlace(grad_output.ColSum());
  return grad_output.MatMulTransposedB(weight_.value);
}

std::vector<Parameter*> Linear::Parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace silofuse
