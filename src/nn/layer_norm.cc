#include "nn/layer_norm.h"

#include <cmath>

#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

// Rows normalize independently, so Forward parallelizes row-blocked with
// bit-exact results (the runtime sizes chunks from this per-element cost).
// Backward stays serial: it accumulates dgamma/dbeta across rows and
// splitting that sum would perturb the float accumulation order.
constexpr double kLayerNormNsPerElem = 4.0;  // two passes + div/sqrt share

}  // namespace

LayerNorm::LayerNorm(int features, float eps)
    : features_(features), eps_(eps) {
  SF_CHECK_GT(features, 0);
  gamma_ = Parameter("gamma", Matrix(1, features, 1.0f));
  beta_ = Parameter("beta", Matrix(1, features, 0.0f));
}

Matrix LayerNorm::Forward(const Matrix& input, Rng* train_rng) {
  SF_CHECK_EQ(input.cols(), features_);
  const int rows = input.rows();
  // The caches only feed Backward; inference (sampling/serving) skips both
  // allocations and fuses normalize + affine into one pass per row. The
  // arithmetic below is one shared body: the per-element chain
  // xh = (x - mean) * inv_std; y = xh * g + b is identical whether xh is
  // also stored to the cache, so fusion cannot change inference bytes.
  const bool cache = train_rng != nullptr;
  if (cache) {
    gamma_.EnsureGrad();
    beta_.EnsureGrad();
    cached_xhat_ = Matrix(rows, features_);
    cached_inv_std_.assign(rows, 0.0f);
  }
  Matrix out(rows, features_);
  auto rows_fn = [this, &input, &out, cache](int64_t r0, int64_t r1) {
  for (int r = static_cast<int>(r0); r < r1; ++r) {
    const float* x = input.row_data(r);
    double mean = 0.0;
    for (int c = 0; c < features_; ++c) mean += x[c];
    mean /= features_;
    double var = 0.0;
    for (int c = 0; c < features_; ++c) {
      const double d = x[c] - mean;
      var += d * d;
    }
    var /= features_;
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    float* xhat = cache ? cached_xhat_.row_data(r) : nullptr;
    if (cache) cached_inv_std_[r] = inv_std;
    float* y = out.row_data(r);
    const float* g = gamma_.value.data();
    const float* b = beta_.value.data();
    const float mean_f = static_cast<float>(mean);
    for (int c = 0; c < features_; ++c) {
      const float xh = (x[c] - mean_f) * inv_std;
      if (xhat != nullptr) xhat[c] = xh;
      y[c] = xh * g[c] + b[c];
    }
  }
  };
  ParallelForCost(0, rows,
                  static_cast<double>(features_) * kLayerNormNsPerElem,
                  rows_fn);
  return out;
}

Matrix LayerNorm::Backward(const Matrix& grad_output) {
  SF_CHECK_EQ(grad_output.rows(), cached_xhat_.rows())
      << "LayerNorm Backward: (no matching training Forward)";
  SF_CHECK_EQ(grad_output.cols(), features_);
  const int rows = grad_output.rows();
  Matrix grad_input(rows, features_);
  float* dgamma = gamma_.grad.data();
  float* dbeta = beta_.grad.data();
  const float* g = gamma_.value.data();
  for (int r = 0; r < rows; ++r) {
    const float* dy = grad_output.row_data(r);
    const float* xhat = cached_xhat_.row_data(r);
    float* dx = grad_input.row_data(r);
    double mean_dxhat = 0.0;
    double mean_dxhat_xhat = 0.0;
    for (int c = 0; c < features_; ++c) {
      const float dxhat = dy[c] * g[c];
      mean_dxhat += dxhat;
      mean_dxhat_xhat += dxhat * xhat[c];
      dgamma[c] += dy[c] * xhat[c];
      dbeta[c] += dy[c];
    }
    mean_dxhat /= features_;
    mean_dxhat_xhat /= features_;
    const float inv_std = cached_inv_std_[r];
    for (int c = 0; c < features_; ++c) {
      const float dxhat = dy[c] * g[c];
      dx[c] = inv_std * (dxhat - static_cast<float>(mean_dxhat) -
                         xhat[c] * static_cast<float>(mean_dxhat_xhat));
    }
  }
  return grad_input;
}

std::vector<Parameter*> LayerNorm::Parameters() { return {&gamma_, &beta_}; }

void LayerNorm::Seal() {
  gamma_.grad = Matrix();
  beta_.grad = Matrix();
  cached_xhat_ = Matrix();
  cached_inv_std_ = std::vector<float>();
}

}  // namespace silofuse
