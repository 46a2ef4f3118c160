#include "nn/conv1d.h"

#include <cmath>

namespace silofuse {

Conv1D::Conv1D(int in_channels, int out_channels, int length, int kernel_size,
               int stride, int padding, Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      length_(length),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding) {
  SF_CHECK_GT(in_channels, 0);
  SF_CHECK_GT(out_channels, 0);
  SF_CHECK_GT(length, 0);
  SF_CHECK_GT(kernel_size, 0);
  SF_CHECK_GT(stride, 0);
  SF_CHECK_GE(padding, 0);
  out_length_ = (length + 2 * padding - kernel_size) / stride + 1;
  SF_CHECK_GT(out_length_, 0)
      << "Conv1D would produce empty output: length" << length << "kernel"
      << kernel_size << "stride" << stride;
  const float bound =
      1.0f / std::sqrt(static_cast<float>(in_channels * kernel_size));
  weight_ = Parameter("weight",
                      Matrix::RandomUniform(out_channels,
                                            in_channels * kernel_size, rng,
                                            -bound, bound));
  bias_ = Parameter("bias",
                    Matrix::RandomUniform(1, out_channels, rng, -bound, bound));
}

Matrix Conv1D::Forward(const Matrix& input, Rng* train_rng) {
  SF_CHECK_EQ(input.cols(), in_channels_ * length_);
  if (train_rng != nullptr) {
    cached_input_ = input;
    weight_.EnsureGrad();
    bias_.EnsureGrad();
  }
  const int batch = input.rows();
  Matrix out(batch, out_channels_ * out_length_);
  for (int b = 0; b < batch; ++b) {
    const float* x = input.row_data(b);
    float* y = out.row_data(b);
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float* w = weight_.value.row_data(oc);
      const float bias = bias_.value.at(0, oc);
      for (int ot = 0; ot < out_length_; ++ot) {
        double acc = bias;
        const int start = ot * stride_ - padding_;
        for (int ic = 0; ic < in_channels_; ++ic) {
          const float* xc = x + ic * length_;
          const float* wc = w + ic * kernel_size_;
          for (int k = 0; k < kernel_size_; ++k) {
            const int t = start + k;
            if (t < 0 || t >= length_) continue;
            acc += static_cast<double>(xc[t]) * wc[k];
          }
        }
        y[oc * out_length_ + ot] = static_cast<float>(acc);
      }
    }
  }
  return out;
}

Matrix Conv1D::Backward(const Matrix& grad_output) {
  const int batch = cached_input_.rows();
  SF_CHECK_EQ(grad_output.rows(), batch)
      << TypeName() << "Backward: (no matching training Forward)";
  SF_CHECK_EQ(grad_output.cols(), out_channels_ * out_length_);
  Matrix grad_input(batch, in_channels_ * length_);
  for (int b = 0; b < batch; ++b) {
    const float* x = cached_input_.row_data(b);
    const float* gy = grad_output.row_data(b);
    float* gx = grad_input.row_data(b);
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float* w = weight_.value.row_data(oc);
      float* gw = weight_.grad.row_data(oc);
      float& gb = bias_.grad.at(0, oc);
      for (int ot = 0; ot < out_length_; ++ot) {
        const float g = gy[oc * out_length_ + ot];
        if (g == 0.0f) continue;
        gb += g;
        const int start = ot * stride_ - padding_;
        for (int ic = 0; ic < in_channels_; ++ic) {
          const float* xc = x + ic * length_;
          float* gxc = gx + ic * length_;
          const float* wc = w + ic * kernel_size_;
          float* gwc = gw + ic * kernel_size_;
          for (int k = 0; k < kernel_size_; ++k) {
            const int t = start + k;
            if (t < 0 || t >= length_) continue;
            gwc[k] += g * xc[t];
            gxc[t] += g * wc[k];
          }
        }
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> Conv1D::Parameters() { return {&weight_, &bias_}; }

void Conv1D::Seal() {
  weight_.grad = Matrix();
  bias_.grad = Matrix();
  cached_input_ = Matrix();
}

ConvTranspose1D::ConvTranspose1D(int in_channels, int out_channels, int length,
                                 int kernel_size, int stride, int padding,
                                 Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      length_(length),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding) {
  SF_CHECK_GT(in_channels, 0);
  SF_CHECK_GT(out_channels, 0);
  SF_CHECK_GT(length, 0);
  out_length_ = (length - 1) * stride - 2 * padding + kernel_size;
  SF_CHECK_GT(out_length_, 0);
  const float bound =
      1.0f / std::sqrt(static_cast<float>(in_channels * kernel_size));
  weight_ = Parameter("weight",
                      Matrix::RandomUniform(in_channels,
                                            out_channels * kernel_size, rng,
                                            -bound, bound));
  bias_ = Parameter("bias",
                    Matrix::RandomUniform(1, out_channels, rng, -bound, bound));
}

Matrix ConvTranspose1D::Forward(const Matrix& input, Rng* train_rng) {
  SF_CHECK_EQ(input.cols(), in_channels_ * length_);
  if (train_rng != nullptr) {
    cached_input_ = input;
    weight_.EnsureGrad();
    bias_.EnsureGrad();
  }
  const int batch = input.rows();
  Matrix out(batch, out_channels_ * out_length_);
  for (int b = 0; b < batch; ++b) {
    const float* x = input.row_data(b);
    float* y = out.row_data(b);
    // Initialize with bias.
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float bias = bias_.value.at(0, oc);
      for (int t = 0; t < out_length_; ++t) y[oc * out_length_ + t] = bias;
    }
    for (int ic = 0; ic < in_channels_; ++ic) {
      const float* xc = x + ic * length_;
      const float* w = weight_.value.row_data(ic);
      for (int it = 0; it < length_; ++it) {
        const float v = xc[it];
        if (v == 0.0f) continue;
        const int start = it * stride_ - padding_;
        for (int oc = 0; oc < out_channels_; ++oc) {
          float* yc = y + oc * out_length_;
          const float* wc = w + oc * kernel_size_;
          for (int k = 0; k < kernel_size_; ++k) {
            const int t = start + k;
            if (t < 0 || t >= out_length_) continue;
            yc[t] += v * wc[k];
          }
        }
      }
    }
  }
  return out;
}

Matrix ConvTranspose1D::Backward(const Matrix& grad_output) {
  const int batch = cached_input_.rows();
  SF_CHECK_EQ(grad_output.rows(), batch)
      << TypeName() << "Backward: (no matching training Forward)";
  SF_CHECK_EQ(grad_output.cols(), out_channels_ * out_length_);
  Matrix grad_input(batch, in_channels_ * length_);
  for (int b = 0; b < batch; ++b) {
    const float* x = cached_input_.row_data(b);
    const float* gy = grad_output.row_data(b);
    float* gx = grad_input.row_data(b);
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float* gyc = gy + oc * out_length_;
      float& gb = bias_.grad.at(0, oc);
      for (int t = 0; t < out_length_; ++t) gb += gyc[t];
    }
    for (int ic = 0; ic < in_channels_; ++ic) {
      const float* xc = x + ic * length_;
      float* gxc = gx + ic * length_;
      const float* w = weight_.value.row_data(ic);
      float* gw = weight_.grad.row_data(ic);
      for (int it = 0; it < length_; ++it) {
        const int start = it * stride_ - padding_;
        double gacc = 0.0;
        for (int oc = 0; oc < out_channels_; ++oc) {
          const float* gyc = gy + oc * out_length_;
          const float* wc = w + oc * kernel_size_;
          float* gwc = gw + oc * kernel_size_;
          for (int k = 0; k < kernel_size_; ++k) {
            const int t = start + k;
            if (t < 0 || t >= out_length_) continue;
            gacc += static_cast<double>(gyc[t]) * wc[k];
            gwc[k] += gyc[t] * xc[it];
          }
        }
        gxc[it] = static_cast<float>(gacc);
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> ConvTranspose1D::Parameters() {
  return {&weight_, &bias_};
}

void ConvTranspose1D::Seal() {
  weight_.grad = Matrix();
  bias_.grad = Matrix();
  cached_input_ = Matrix();
}

}  // namespace silofuse
