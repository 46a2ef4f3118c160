#include "nn/linear.h"

#include <algorithm>
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
  // The caches only feed Backward; inference skips them.
  if (train_rng == nullptr) return Project(input, GemmActivation::kNone);
  PrepareTraining(input.rows(), input.cols(), train_rng);
  return ForwardRows(input, 0);
}

int Linear::PrepareTraining(int rows, int cols, Rng* /*train_rng*/) {
  SF_CHECK_EQ(cols, in_features_);
  // A training forward leads to a weight update, so it retires the pack and
  // re-creates the grads Seal released.
  packed_weight_.reset();
  weight_.EnsureGrad();
  bias_.EnsureGrad();
  if (cached_input_.rows() != rows) {
    cached_input_ = Matrix(rows, in_features_);
    cached_grad_output_ = Matrix(rows, out_features_);
  }
  return out_features_;
}

Matrix Linear::ForwardRows(const Matrix& input, int row0) {
  SF_CHECK_EQ(input.cols(), in_features_);
  CheckRowRange(row0, input.rows(), cached_input_.rows(), "Linear");
  std::copy(input.data(), input.data() + input.size(),
            cached_input_.row_data(row0));
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
  cached_grad_output_ = Matrix();
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
  // The whole batch's g is at hand, so the weight pass reads it directly
  // instead of a copy in the cache.
  AddParamGrads(grad_output);
  return InputGrad(grad_output);
}

Matrix Linear::BackwardRows(const Matrix& grad_output, int row0) {
  SF_CHECK_EQ(grad_output.cols(), out_features_);
  CheckRowRange(row0, grad_output.rows(), cached_grad_output_.rows(),
                "Linear");
  std::copy(grad_output.data(), grad_output.data() + grad_output.size(),
            cached_grad_output_.row_data(row0));
  return InputGrad(grad_output);
}

void Linear::AccumulateParamGrads() { AddParamGrads(cached_grad_output_); }

Matrix Linear::InputGrad(const Matrix& grad_output) const {
  // dx = g W^T: each row from its own row of g.
  return grad_output.MatMulTransposedB(weight_.value);
}

void Linear::AddParamGrads(const Matrix& grad_output) {
  // dW = x^T g ; db = sum_rows(g), over the whole batch.
  // dW accumulates straight into the grad buffer via the beta = 1 epilogue:
  // no temporary matrix and no second pass. Bytes are unchanged —
  // fma(1, acc, 1 * old) rounds once, exactly as the old
  // AddInPlace(old += acc) did.
  Gemm(/*trans_a=*/true, /*trans_b=*/false, in_features_, out_features_,
       grad_output.rows(), 1.0f, cached_input_.data(), in_features_,
       grad_output.data(), out_features_, 1.0f, weight_.grad.data(),
       out_features_);
  if (has_bias_) bias_.grad.AddInPlace(grad_output.ColSum());
}

std::vector<Parameter*> Linear::Parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace silofuse
