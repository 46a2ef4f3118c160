#ifndef SILOFUSE_NN_DROPOUT_H_
#define SILOFUSE_NN_DROPOUT_H_

#include <atomic>

#include "common/rng.h"
#include "nn/module.h"

namespace silofuse {

/// Inverted dropout: a training forward zeroes entries with probability p,
/// drawing the mask from the call's Rng, and rescales survivors by
/// 1/(1-p); identity at inference. PrepareTraining draws the whole batch's
/// mask (one engine word per entry, row-major), so the row pieces only
/// read it.
class Dropout : public Module {
 public:
  explicit Dropout(float p);

  const char* TypeName() const override { return "dropout"; }

  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  void Seal() override { mask_ = Matrix(); }

  int PrepareTraining(int rows, int cols, Rng* train_rng) override;
  Matrix ForwardRows(const Matrix& input, int row0) override;
  Matrix BackwardRows(const Matrix& grad_output, int row0) override;

 private:
  // x * mask over rows [row0, row0 + x.rows()) of the mask.
  Matrix ApplyMask(const Matrix& x, int row0) const;

  float p_;
  Matrix mask_;
  // Whether the last Forward was a training one. Concurrent inference
  // forwards through one model (sampling tiles, served requests) may all
  // reset it at once after a training forward, so it is atomic; relaxed
  // order suffices because only Backward, which follows a training
  // Forward on the same thread, acts on it.
  std::atomic<bool> last_training_{false};
};

}  // namespace silofuse

#endif  // SILOFUSE_NN_DROPOUT_H_
