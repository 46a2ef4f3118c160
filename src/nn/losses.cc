#include "nn/losses.h"

#include <cmath>

#include "common/check.h"
#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

// Losses over batches smaller than this keep the original straight-line
// accumulation (bit-exact with the seed); above it, per-chunk double
// partials are combined in fixed chunk order so the loss is identical at
// any thread count.
constexpr int64_t kLossParallelThreshold = int64_t{1} << 14;
constexpr int64_t kLossGrain = int64_t{1} << 13;

// Per-element cost hint for the softmax row kernels (exp-dominated); rows
// write disjoint slices, so the runtime is free to pick any chunking.
constexpr double kNsPerElemExp = 15.0;

// Guards for exploding networks. Logits past this magnitude (or non-finite)
// are clamped before entering the BCE algebra, and per-class log-probs are
// floored here in cross-entropy, so a diverging discriminator produces a
// large-but-finite loss the watchdog can act on instead of NaN/Inf.
// Both bounds are far outside anything a healthy run produces, so healthy
// losses are bit-identical with the guards in place.
constexpr double kLogitClamp = 1e6;
constexpr double kLogProbFloor = -100.0;

double ClampLogit(double x) {
  if (x > kLogitClamp) return kLogitClamp;   // also catches +inf
  if (x < -kLogitClamp) return -kLogitClamp; // also catches -inf
  return std::isnan(x) ? 0.0 : x;
}

// One pass of MSE over entries [lo, hi): the squared-error sum in double
// and, with kGrad, the gradient scale * (p - t) into g.
template <bool kGrad>
double MseChunk(const float* p, const float* t, float* g, float scale,
                int64_t lo, int64_t hi) {
  double acc = 0.0;
  for (int64_t i = lo; i < hi; ++i) {
    const double d = static_cast<double>(p[i]) - t[i];
    acc += d * d;
    if constexpr (kGrad) g[i] = scale * static_cast<float>(d);
  }
  return acc;
}

// The mean of MseChunk over all n entries: one straight-line pass below
// kLossParallelThreshold, fixed-chunk partials above.
template <bool kGrad>
double MseMean(const Matrix& pred, const Matrix& target, float* g) {
  SF_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols());
  const size_t n = pred.size();
  SF_CHECK_GT(n, 0u);
  const float* p = pred.data();
  const float* t = target.data();
  const float scale = 2.0f / static_cast<float>(n);
  const auto chunk = [p, t, g, scale](int64_t lo, int64_t hi) {
    return MseChunk<kGrad>(p, t, g, scale, lo, hi);
  };
  const int64_t count = static_cast<int64_t>(n);
  const double loss = count >= kLossParallelThreshold
                          ? ParallelReduceSum(0, count, kLossGrain, chunk)
                          : chunk(0, count);
  return loss / static_cast<double>(n);
}

}  // namespace

double MseLoss(const Matrix& pred, const Matrix& target, Matrix* grad) {
  *grad = Matrix(pred.rows(), pred.cols());
  return MseMean<true>(pred, target, grad->data());
}

void MseGradRows(const Matrix& pred, const Matrix& target,
                 size_t batch_entries, Matrix* grad) {
  SF_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols());
  SF_CHECK(batch_entries >= pred.size() && batch_entries > 0);
  *grad = Matrix(pred.rows(), pred.cols());
  MseChunk<true>(pred.data(), target.data(), grad->data(),
                 2.0f / static_cast<float>(batch_entries), 0,
                 static_cast<int64_t>(pred.size()));
}

double MseValue(const Matrix& pred, const Matrix& target) {
  return MseMean<false>(pred, target, nullptr);
}

double BceWithLogitsLoss(const Matrix& logits, const Matrix& targets,
                         Matrix* grad) {
  SF_CHECK(logits.rows() == targets.rows() && logits.cols() == targets.cols());
  const size_t n = logits.size();
  SF_CHECK_GT(n, 0u);
  *grad = Matrix(logits.rows(), logits.cols());
  double loss = 0.0;
  const float* x = logits.data();
  const float* y = targets.data();
  float* g = grad->data();
  const float inv_n = 1.0f / static_cast<float>(n);
  for (size_t i = 0; i < n; ++i) {
    // loss = max(x,0) - x*y + log(1 + exp(-|x|)).
    const double xv = ClampLogit(x[i]);
    const double yv = y[i];
    loss += std::max(xv, 0.0) - xv * yv + std::log1p(std::exp(-std::abs(xv)));
    const double sig = 1.0 / (1.0 + std::exp(-xv));
    g[i] = static_cast<float>((sig - yv)) * inv_n;
  }
  return loss / static_cast<double>(n);
}

Matrix SoftmaxRows(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  auto rows_fn = [&logits, &out](int64_t r0, int64_t r1) {
  for (int r = static_cast<int>(r0); r < r1; ++r) {
    const float* x = logits.row_data(r);
    float* y = out.row_data(r);
    float max_v = x[0];
    for (int c = 1; c < logits.cols(); ++c) max_v = std::max(max_v, x[c]);
    double sum = 0.0;
    for (int c = 0; c < logits.cols(); ++c) {
      y[c] = std::exp(x[c] - max_v);
      sum += y[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int c = 0; c < logits.cols(); ++c) y[c] *= inv;
  }
  };
  ParallelForCost(0, logits.rows(),
                  static_cast<double>(logits.cols()) * kNsPerElemExp, rows_fn);
  return out;
}

Matrix LogSoftmaxRows(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  auto rows_fn = [&logits, &out](int64_t r0, int64_t r1) {
  for (int r = static_cast<int>(r0); r < r1; ++r) {
    const float* x = logits.row_data(r);
    float* y = out.row_data(r);
    float max_v = x[0];
    for (int c = 1; c < logits.cols(); ++c) max_v = std::max(max_v, x[c]);
    double sum = 0.0;
    for (int c = 0; c < logits.cols(); ++c) sum += std::exp(x[c] - max_v);
    const float log_sum = max_v + static_cast<float>(std::log(sum));
    for (int c = 0; c < logits.cols(); ++c) y[c] = x[c] - log_sum;
  }
  };
  ParallelForCost(0, logits.rows(),
                  static_cast<double>(logits.cols()) * kNsPerElemExp, rows_fn);
  return out;
}

double SoftmaxCrossEntropyLoss(const Matrix& logits, const Matrix& targets,
                               Matrix* grad) {
  SF_CHECK(logits.rows() == targets.rows() && logits.cols() == targets.cols());
  SF_CHECK_GT(logits.rows(), 0);
  Matrix log_probs = LogSoftmaxRows(logits);
  Matrix probs = log_probs.Apply([](float v) { return std::exp(v); });
  double loss = 0.0;
  for (int r = 0; r < logits.rows(); ++r) {
    const float* lp = log_probs.row_data(r);
    const float* t = targets.row_data(r);
    for (int c = 0; c < logits.cols(); ++c) {
      // Floor the log-prob: a class driven to (near-)zero probability by
      // extreme logits would otherwise contribute -t * log(0) = inf/NaN.
      loss -= t[c] * std::max(static_cast<double>(lp[c]), kLogProbFloor);
    }
  }
  loss /= logits.rows();
  *grad = probs.Sub(targets);
  grad->ScaleInPlace(1.0f / static_cast<float>(logits.rows()));
  return loss;
}

double GaussianNllLoss(const Matrix& mean, const Matrix& logvar,
                       const Matrix& target, Matrix* grad_mean,
                       Matrix* grad_logvar) {
  SF_CHECK(mean.rows() == target.rows() && mean.cols() == target.cols());
  SF_CHECK(logvar.rows() == target.rows() && logvar.cols() == target.cols());
  const size_t n = mean.size();
  SF_CHECK_GT(n, 0u);
  *grad_mean = Matrix(mean.rows(), mean.cols());
  *grad_logvar = Matrix(mean.rows(), mean.cols());
  double loss = 0.0;
  const float* mu = mean.data();
  const float* lv = logvar.data();
  const float* t = target.data();
  float* gm = grad_mean->data();
  float* gl = grad_logvar->data();
  const float inv_n = 1.0f / static_cast<float>(n);
  for (size_t i = 0; i < n; ++i) {
    // Clamp logvar to keep exp() sane during early training.
    const double lvi = std::min(std::max(static_cast<double>(lv[i]), -10.0), 10.0);
    const double inv_var = std::exp(-lvi);
    const double d = static_cast<double>(mu[i]) - t[i];
    loss += 0.5 * (lvi + d * d * inv_var);
    gm[i] = static_cast<float>(d * inv_var) * inv_n;
    gl[i] = static_cast<float>(0.5 * (1.0 - d * d * inv_var)) * inv_n;
  }
  return loss / static_cast<double>(n);
}

}  // namespace silofuse
