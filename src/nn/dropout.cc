#include "nn/dropout.h"

namespace silofuse {

Dropout::Dropout(float p) : p_(p) { SF_CHECK(p >= 0.0f && p < 1.0f); }

Matrix Dropout::Forward(const Matrix& input, Rng* train_rng) {
  const bool training = train_rng != nullptr;
  // Written only on a change, so concurrent inference forwards through one
  // model mostly just read the flag.
  if (last_training_.load(std::memory_order_relaxed) != training) {
    last_training_.store(training, std::memory_order_relaxed);
  }
  if (!training || p_ == 0.0f) return input;
  const float keep = 1.0f - p_;
  const float scale = 1.0f / keep;
  // Raw engine draws: std::bernoulli_distribution would dominate the
  // training profile at this call frequency.
  auto& engine = train_rng->engine();
  const uint64_t threshold =
      static_cast<uint64_t>(keep * static_cast<double>(UINT64_MAX));
  mask_ = Matrix(input.rows(), input.cols());
  for (int r = 0; r < input.rows(); ++r) {
    float* m = mask_.row_data(r);
    for (int c = 0; c < input.cols(); ++c) {
      m[c] = engine() <= threshold ? scale : 0.0f;
    }
  }
  return input.Mul(mask_);
}

Matrix Dropout::Backward(const Matrix& grad_output) {
  if (!last_training_.load(std::memory_order_relaxed) || p_ == 0.0f) {
    return grad_output;
  }
  SF_CHECK(grad_output.rows() == mask_.rows() &&
           grad_output.cols() == mask_.cols())
      << "Dropout Backward: grad" << grad_output.ToString() << "vs mask"
      << mask_.ToString() << "(no matching training Forward)";
  return grad_output.Mul(mask_);
}

}  // namespace silofuse
