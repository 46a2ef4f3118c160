#ifndef SILOFUSE_NN_DROPOUT_H_
#define SILOFUSE_NN_DROPOUT_H_

#include "common/rng.h"
#include "nn/module.h"

namespace silofuse {

/// Inverted dropout: a training forward zeroes entries with probability p,
/// drawing the mask from the call's Rng, and rescales survivors by
/// 1/(1-p); identity at inference.
class Dropout : public Module {
 public:
  explicit Dropout(float p);

  const char* TypeName() const override { return "dropout"; }

  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;

 private:
  float p_;
  Matrix mask_;
  bool last_training_ = false;
};

}  // namespace silofuse

#endif  // SILOFUSE_NN_DROPOUT_H_
