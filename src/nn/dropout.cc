#include "nn/dropout.h"

#include <algorithm>
#include <cstdint>

#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

// Engine words drawn per Fill call: one stack block, refilled as the mask
// is written.
constexpr size_t kDrawBlock = 512;

// Per-element cost (ns) of the mask multiply, memory-bound like
// Matrix::MulInPlace.
constexpr double kNsPerElemMask = 0.5;

// Largest engine word that keeps an entry: a word is uniform on
// [0, 2^64), so P(word <= threshold) ~= keep. keep * 2^64 is below 2^64
// for every float keep < 1, so the cast is in range. keep rounds to 1.0f
// for p below ~3e-8, and then every entry is kept (casting 2^64 itself
// would be undefined).
uint64_t KeepThreshold(float keep) {
  if (keep >= 1.0f) return UINT64_MAX;
  return static_cast<uint64_t>(keep * static_cast<double>(UINT64_MAX));
}

}  // namespace

Dropout::Dropout(float p) : p_(p) { SF_CHECK(p >= 0.0f && p < 1.0f); }

Matrix Dropout::Forward(const Matrix& input, Rng* train_rng) {
  const bool training = train_rng != nullptr;
  // Written only on a change, so concurrent inference forwards through one
  // model mostly just read the flag.
  if (last_training_.load(std::memory_order_relaxed) != training) {
    last_training_.store(training, std::memory_order_relaxed);
  }
  if (!training) return input;
  PrepareTraining(input.rows(), input.cols(), train_rng);
  return ForwardRows(input, 0);
}

int Dropout::PrepareTraining(int rows, int cols, Rng* train_rng) {
  if (!last_training_.load(std::memory_order_relaxed)) {
    last_training_.store(true, std::memory_order_relaxed);
  }
  if (p_ == 0.0f) return cols;
  const float keep = 1.0f - p_;
  const float scale = 1.0f / keep;
  const uint64_t threshold = KeepThreshold(keep);
  if (mask_.rows() != rows || mask_.cols() != cols) mask_ = Matrix(rows, cols);
  // Raw engine words, drawn a block at a time (std::bernoulli_distribution,
  // or a call per word, would dominate the training step). The mask takes
  // them in row-major order, as one draw per entry would.
  Mt19937_64& engine = train_rng->engine();
  uint64_t words[kDrawBlock];
  float* m = mask_.data();
  for (size_t done = 0; done < mask_.size();) {
    const size_t count = std::min(kDrawBlock, mask_.size() - done);
    engine.Fill(words, count);
    for (size_t i = 0; i < count; ++i) {
      m[done + i] = words[i] <= threshold ? scale : 0.0f;
    }
    done += count;
  }
  return cols;
}

Matrix Dropout::ForwardRows(const Matrix& input, int row0) {
  if (p_ == 0.0f) return input;
  return ApplyMask(input, row0);
}

Matrix Dropout::Backward(const Matrix& grad_output) {
  if (last_training_.load(std::memory_order_relaxed) && p_ != 0.0f) {
    SF_CHECK(grad_output.rows() == mask_.rows() &&
             grad_output.cols() == mask_.cols())
        << "Dropout Backward: grad" << grad_output.ToString() << "vs mask"
        << mask_.ToString() << "(no matching training Forward)";
  }
  return BackwardRows(grad_output, 0);
}

Matrix Dropout::BackwardRows(const Matrix& grad_output, int row0) {
  if (!last_training_.load(std::memory_order_relaxed) || p_ == 0.0f) {
    return grad_output;
  }
  return ApplyMask(grad_output, row0);
}

Matrix Dropout::ApplyMask(const Matrix& x, int row0) const {
  SF_CHECK_EQ(x.cols(), mask_.cols());
  CheckRowRange(row0, x.rows(), mask_.rows(), "Dropout");
  Matrix out = x;
  float* v = out.data();
  const float* m = mask_.row_data(row0);
  ParallelForCost(0, static_cast<int64_t>(out.size()), kNsPerElemMask,
                  [v, m](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) v[i] *= m[i];
  });
  return out;
}

}  // namespace silofuse
