#ifndef SILOFUSE_NN_CONV1D_H_
#define SILOFUSE_NN_CONV1D_H_

#include <vector>

#include "common/rng.h"
#include "nn/module.h"

namespace silofuse {

/// 1-D convolution over the feature axis.
///
/// A batch row is interpreted as `in_channels` interleaved-by-channel signals
/// of length `length`, laid out channel-major: [c0 t0..tL | c1 t0..tL | ...].
/// Used by the GAN(conv) baseline, which treats a tabular row as a length-d
/// signal (the 1-D analogue of CTAB-GAN's image reshaping).
class Conv1D : public Module {
 public:
  Conv1D(int in_channels, int out_channels, int length, int kernel_size,
         int stride, int padding, Rng* rng);

  const char* TypeName() const override { return "conv1d"; }

  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  void Seal() override;

  int out_length() const { return out_length_; }
  int out_features() const { return out_channels_ * out_length_; }
  int in_features() const { return in_channels_ * length_; }

 private:
  int in_channels_;
  int out_channels_;
  int length_;
  int kernel_size_;
  int stride_;
  int padding_;
  int out_length_;
  Parameter weight_;  // (out_channels x in_channels*kernel)
  Parameter bias_;    // (1 x out_channels)
  Matrix cached_input_;
};

/// Transposed 1-D convolution (a.k.a. deconvolution); upsamples the signal.
/// Output length = (length - 1) * stride - 2 * padding + kernel_size.
class ConvTranspose1D : public Module {
 public:
  ConvTranspose1D(int in_channels, int out_channels, int length,
                  int kernel_size, int stride, int padding, Rng* rng);

  const char* TypeName() const override { return "conv_transpose1d"; }

  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  std::vector<Parameter*> Parameters() override;
  void Seal() override;

  int out_length() const { return out_length_; }
  int out_features() const { return out_channels_ * out_length_; }
  int in_features() const { return in_channels_ * length_; }

 private:
  int in_channels_;
  int out_channels_;
  int length_;
  int kernel_size_;
  int stride_;
  int padding_;
  int out_length_;
  Parameter weight_;  // (in_channels x out_channels*kernel)
  Parameter bias_;    // (1 x out_channels)
  Matrix cached_input_;
};

}  // namespace silofuse

#endif  // SILOFUSE_NN_CONV1D_H_
