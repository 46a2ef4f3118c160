#include "nn/activations.h"

#include <cmath>

#include "common/check.h"
#include "common/fast_math.h"
#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

// Approximate per-element costs (ns) for the runtime's cost-based dispatch.
// Transcendental-heavy kernels (libm tanh/exp) are an order of magnitude
// pricier than the polynomial FastTanh or a compare, so they fan out on
// much smaller matrices — while cheap ones stay off the pool entirely
// until they are big enough to amortize task overhead.
constexpr double kNsPerElemCheap = 0.5;   // compares, one-multiply grads
// Inference GELU: the vectorized GeluFast loop read 0.38-0.42 ns per
// element on one thread (128^2 to 512^2, 4-vCPU AVX-512 Xeon), and a whole
// unfused Forward (copy, then the loop) 0.50 at 128^2, so matrices of
// ~200 K elements or more fan out.
constexpr double kNsPerElemFast = 0.5;
// Training GELU: the vectorized GeluWithGrad loop writing y and dy/dx read
// 0.57-0.66 ns per element on one thread (128^2 to 512^2, 4-vCPU AVX-512
// Xeon), so a 128x128 batch (~11 us) runs inline and only matrices of
// ~167 K elements or more fan out.
constexpr double kNsPerElemGeluTrain = 0.6;
constexpr double kNsPerElemLibm = 15.0;   // std::tanh / std::exp per element

// Runs fn(lo, hi) over [0, n); the runtime decides serial vs pool from the
// total cost. Each chunk must write a disjoint slice.
template <typename Fn>
void ForActivation(size_t n, double ns_per_elem, Fn&& fn) {
  ParallelForCost(0, static_cast<int64_t>(n), ns_per_elem, fn);
}

// Backward reads a cache the training Forward filled; a gradient of any
// other shape (a different batch, or no training Forward at all) would
// index past it.
void CheckCacheShape(const Matrix& grad_output, const Matrix& cache,
                     const char* layer) {
  SF_CHECK(grad_output.rows() == cache.rows() &&
           grad_output.cols() == cache.cols())
      << layer << " Backward: grad " << grad_output.rows() << "x"
      << grad_output.cols() << " vs cache " << cache.rows() << "x"
      << cache.cols() << " (no matching training Forward)";
}

// Applies fn elementwise without std::function dispatch (hot path).
template <typename Fn>
Matrix ApplyFast(const Matrix& input, double ns_per_elem, Fn fn) {
  Matrix out = input;
  float* v = out.data();
  ForActivation(out.size(), ns_per_elem, [v, fn](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) v[i] = fn(v[i]);
  });
  return out;
}

}  // namespace

Matrix Gelu::Forward(const Matrix& input, Rng* train_rng) {
  if (train_rng == nullptr) {
    // Inference (sampling, serving): no cache, and the lambda (not a raw
    // function pointer) lets the compiler inline GeluFast into the
    // elementwise loop and vectorize FastTanh.
    return ApplyFast(input, kNsPerElemFast,
                     [](float v) { return fastmath::GeluFast(v); });
  }
  PrepareTraining(input.rows(), input.cols(), train_rng);
  return ForwardRows(input, 0);
}

int Gelu::PrepareTraining(int rows, int cols, Rng* /*train_rng*/) {
  // The long-lived cache is allocated here, before any short-lived output:
  // the other order leaves an output's freed block under the cache, which
  // raised the pipeline's peak RSS by ~0.4 MB.
  if (cached_grad_.rows() != rows || cached_grad_.cols() != cols) {
    cached_grad_ = Matrix(rows, cols);
  }
  return cols;
}

Matrix Gelu::ForwardRows(const Matrix& input, int row0) {
  // Training: one FastTanh per element yields both the output (the bits an
  // inference forward gives) and the derivative Backward needs, so the
  // cache holds dy/dx, not the input.
  SF_CHECK_EQ(input.cols(), cached_grad_.cols());
  CheckRowRange(row0, input.rows(), cached_grad_.rows(), "Gelu");
  Matrix out(input.rows(), input.cols());
  const float* x = input.data();
  float* y = out.data();
  float* d = cached_grad_.row_data(row0);
  ForActivation(out.size(), kNsPerElemGeluTrain,
                [x, y, d](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const fastmath::GeluPoint p = fastmath::GeluWithGrad(x[i]);
      y[i] = p.value;
      d[i] = p.grad;
    }
  });
  return out;
}

Matrix Gelu::Backward(const Matrix& grad_output) {
  CheckCacheShape(grad_output, cached_grad_, "Gelu");
  return BackwardRows(grad_output, 0);
}

Matrix Gelu::BackwardRows(const Matrix& grad_output, int row0) {
  SF_CHECK_EQ(grad_output.cols(), cached_grad_.cols());
  CheckRowRange(row0, grad_output.rows(), cached_grad_.rows(), "Gelu");
  Matrix grad = grad_output;
  float* g = grad.data();
  const float* d = cached_grad_.row_data(row0);
  ForActivation(grad.size(), kNsPerElemCheap, [g, d](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) g[i] *= d[i];
  });
  return grad;
}

Matrix Relu::Forward(const Matrix& input, Rng* train_rng) {
  if (train_rng != nullptr) cached_input_ = input;
  return ApplyFast(input, kNsPerElemCheap,
                   [](float v) { return v > 0.0f ? v : 0.0f; });
}

Matrix Relu::Backward(const Matrix& grad_output) {
  CheckCacheShape(grad_output, cached_input_, "Relu");
  Matrix grad = grad_output;
  float* g = grad.data();
  const float* x = cached_input_.data();
  ForActivation(grad.size(), kNsPerElemCheap, [g, x](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) g[i] = x[i] > 0.0f ? g[i] : 0.0f;
  });
  return grad;
}

Matrix LeakyRelu::Forward(const Matrix& input, Rng* train_rng) {
  if (train_rng != nullptr) cached_input_ = input;
  const float slope = slope_;
  return ApplyFast(input, kNsPerElemCheap,
                   [slope](float v) { return v > 0.0f ? v : slope * v; });
}

Matrix LeakyRelu::Backward(const Matrix& grad_output) {
  CheckCacheShape(grad_output, cached_input_, "LeakyRelu");
  Matrix grad = grad_output;
  float* g = grad.data();
  const float* x = cached_input_.data();
  const float slope = slope_;
  ForActivation(grad.size(), kNsPerElemCheap,
                [g, x, slope](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (x[i] <= 0.0f) g[i] *= slope;
    }
  });
  return grad;
}

Matrix Tanh::Forward(const Matrix& input, Rng* train_rng) {
  Matrix out = ApplyFast(input, kNsPerElemLibm,
                         [](float v) { return std::tanh(v); });
  if (train_rng != nullptr) cached_output_ = out;
  return out;
}

Matrix Tanh::Backward(const Matrix& grad_output) {
  CheckCacheShape(grad_output, cached_output_, "Tanh");
  Matrix grad = grad_output;
  float* g = grad.data();
  const float* y = cached_output_.data();
  ForActivation(grad.size(), kNsPerElemCheap, [g, y](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) g[i] *= 1.0f - y[i] * y[i];
  });
  return grad;
}

Matrix Sigmoid::Forward(const Matrix& input, Rng* train_rng) {
  Matrix out = ApplyFast(input, kNsPerElemLibm, [](float v) {
    return v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                     : std::exp(v) / (1.0f + std::exp(v));
  });
  if (train_rng != nullptr) cached_output_ = out;
  return out;
}

Matrix Sigmoid::Backward(const Matrix& grad_output) {
  CheckCacheShape(grad_output, cached_output_, "Sigmoid");
  Matrix grad = grad_output;
  float* g = grad.data();
  const float* y = cached_output_.data();
  ForActivation(grad.size(), kNsPerElemCheap, [g, y](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) g[i] *= y[i] * (1.0f - y[i]);
  });
  return grad;
}

}  // namespace silofuse
