#include "models/gan.h"

#include <cmath>

#include "common/logging.h"
#include "data/split.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace silofuse {

Matrix TabularActivation::Forward(const Matrix& input, Rng* train_rng) {
  Matrix out = input;
  for (const FeatureSpan& span : spans_) {
    if (span.categorical) {
      // Row-wise softmax within the span.
      for (int r = 0; r < out.rows(); ++r) {
        float* x = out.row_data(r) + span.offset;
        float max_v = x[0];
        for (int k = 1; k < span.width; ++k) max_v = std::max(max_v, x[k]);
        double sum = 0.0;
        for (int k = 0; k < span.width; ++k) {
          x[k] = std::exp(x[k] - max_v);
          sum += x[k];
        }
        const float inv = static_cast<float>(1.0 / sum);
        for (int k = 0; k < span.width; ++k) x[k] *= inv;
      }
    } else {
      for (int r = 0; r < out.rows(); ++r) {
        float& v = out.row_data(r)[span.offset];
        v = std::tanh(v);
      }
    }
  }
  if (train_rng != nullptr) cached_output_ = out;
  return out;
}

Matrix TabularActivation::Backward(const Matrix& grad_output) {
  SF_CHECK(grad_output.rows() == cached_output_.rows() &&
           grad_output.cols() == cached_output_.cols())
      << "TabularActivation Backward: grad" << grad_output.ToString()
      << "vs cache" << cached_output_.ToString()
      << "(no matching training Forward)";
  Matrix grad = grad_output;
  for (const FeatureSpan& span : spans_) {
    if (span.categorical) {
      for (int r = 0; r < grad.rows(); ++r) {
        const float* s = cached_output_.row_data(r) + span.offset;
        float* g = grad.row_data(r) + span.offset;
        double dot = 0.0;
        for (int k = 0; k < span.width; ++k) dot += static_cast<double>(g[k]) * s[k];
        for (int k = 0; k < span.width; ++k) {
          g[k] = s[k] * (g[k] - static_cast<float>(dot));
        }
      }
    } else {
      for (int r = 0; r < grad.rows(); ++r) {
        const float y = cached_output_.row_data(r)[span.offset];
        grad.row_data(r)[span.offset] *= (1.0f - y * y);
      }
    }
  }
  return grad;
}

void GanSynthesizer::BuildNetworks(int width, Rng* rng) {
  generator_.Clear();
  discriminator_.Clear();
  const int h = config_.hidden_dim;
  if (config_.backbone == GanBackbone::kLinear) {
    int cur = config_.noise_dim;
    for (int l = 0; l < config_.num_layers - 1; ++l) {
      generator_.Emplace<Linear>(cur, h, rng);
      generator_.Emplace<LeakyRelu>(config_.leaky_slope);
      generator_.Emplace<LayerNorm>(h);
      cur = h;
    }
    generator_.Emplace<Linear>(cur, width, rng);

    cur = width;
    for (int l = 0; l < config_.num_layers - 1; ++l) {
      discriminator_.Emplace<Linear>(cur, h, rng);
      discriminator_.Emplace<LeakyRelu>(config_.leaky_slope);
      discriminator_.Emplace<LayerNorm>(h);
      cur = h;
    }
    discriminator_.Emplace<Linear>(cur, 1, rng);
  } else {
    // Conv backbone: the feature row is a length-`width` 1-D signal.
    // Generator upsamples a seed signal by 4x with transposed convolutions,
    // then a linear layer maps to the exact feature width.
    const int seed_len = std::max(2, (width + 3) / 4);
    generator_.Emplace<Linear>(config_.noise_dim, 4 * seed_len, rng);
    generator_.Emplace<LeakyRelu>(config_.leaky_slope);
    generator_.Emplace<ConvTranspose1D>(4, 2, seed_len, 4, 2, 1, rng);
    generator_.Emplace<LeakyRelu>(config_.leaky_slope);
    generator_.Emplace<ConvTranspose1D>(2, 1, 2 * seed_len, 4, 2, 1, rng);
    generator_.Emplace<LeakyRelu>(config_.leaky_slope);
    generator_.Emplace<Linear>(4 * seed_len, width, rng);

    Conv1D* c1 = new Conv1D(1, 4, width, 4, 2, 1, rng);
    const int l1 = c1->out_length();
    discriminator_.Add(std::unique_ptr<Module>(c1));
    discriminator_.Emplace<LeakyRelu>(config_.leaky_slope);
    Conv1D* c2 = new Conv1D(4, 8, l1, 4, 2, 1, rng);
    const int l2 = c2->out_length();
    discriminator_.Add(std::unique_ptr<Module>(c2));
    discriminator_.Emplace<LeakyRelu>(config_.leaky_slope);
    discriminator_.Emplace<Linear>(8 * l2, h, rng);
    discriminator_.Emplace<LeakyRelu>(config_.leaky_slope);
    discriminator_.Emplace<LayerNorm>(h);
    discriminator_.Emplace<Linear>(h, 1, rng);
  }
  generator_.Emplace<TabularActivation>(encoder_.spans());
  PrefixParameterNames(generator_.Parameters(), "generator.");
  PrefixParameterNames(discriminator_.Parameters(), "discriminator.");
  g_optimizer_.reset();
  d_optimizer_.reset();
}

Status GanSynthesizer::Fit(const Table& data, Rng* rng) {
  if (data.num_rows() < 2) {
    return Status::InvalidArgument("GAN needs at least 2 rows");
  }
  SF_RETURN_NOT_OK(encoder_.Fit(data));
  BuildNetworks(encoder_.encoded_width(), rng);
  const Matrix all = encoder_.Encode(data);
  SF_TRACE_SPAN("gan.train");
  obs::TrainLoopTelemetry telemetry("gan.train",
                                    std::min(config_.batch_size, all.rows()));
  telemetry.WatchHealth(generator_.Parameters());
  telemetry.WatchHealth(discriminator_.Parameters());
  double d_loss = 0.0, g_loss = 0.0;
  for (int s = 0; s < config_.train_steps; ++s) {
    const std::vector<int> idx = SampleBatchIndices(
        all.rows(), std::min(config_.batch_size, all.rows()), rng);
    auto [d, g] = TrainStep(all.GatherRows(idx), rng);
    d_loss = s == 0 ? d : 0.95 * d_loss + 0.05 * d;
    g_loss = s == 0 ? g : 0.95 * g_loss + 0.05 * g;
    SF_RETURN_NOT_OK(telemetry.Step({{"d_loss", d_loss}, {"g_loss", g_loss}}));
  }
  SF_LOG(Debug) << name() << " losses: D " << d_loss << " G " << g_loss;
  generator_.Seal();
  discriminator_.Seal();
  g_optimizer_.reset();
  d_optimizer_.reset();
  fitted_ = true;
  return Status::OK();
}

std::vector<Parameter*> GanSynthesizer::Parameters() {
  std::vector<Parameter*> params = generator_.Parameters();
  for (Parameter* p : discriminator_.Parameters()) params.push_back(p);
  return params;
}

std::pair<double, double> GanSynthesizer::TrainStep(const Matrix& real_batch,
                                                    Rng* rng) {
  const int batch = real_batch.rows();
  if (g_optimizer_ == nullptr) {
    g_optimizer_ = std::make_unique<Adam>(generator_.Parameters(), config_.lr,
                                          0.5f, 0.999f);
    d_optimizer_ = std::make_unique<Adam>(discriminator_.Parameters(),
                                          config_.lr, 0.5f, 0.999f);
  }

  // --- Discriminator step ------------------------------------------------
  Matrix noise = Matrix::RandomNormal(batch, config_.noise_dim, rng);
  Matrix fake = generator_.Forward(noise, rng);
  d_optimizer_->ZeroGrad();
  Matrix ones(batch, 1, 1.0f);
  Matrix zeros(batch, 1, 0.0f);
  Matrix grad;
  Matrix d_real = discriminator_.Forward(real_batch, rng);
  double d_loss = BceWithLogitsLoss(d_real, ones, &grad);
  discriminator_.Backward(grad);
  Matrix d_fake = discriminator_.Forward(fake, rng);
  d_loss += BceWithLogitsLoss(d_fake, zeros, &grad);
  discriminator_.Backward(grad);
  d_optimizer_->ClipGradNorm(config_.grad_clip);
  d_optimizer_->Step();

  // --- Generator step (non-saturating) -----------------------------------
  noise = Matrix::RandomNormal(batch, config_.noise_dim, rng);
  fake = generator_.Forward(noise, rng);
  Matrix d_out = discriminator_.Forward(fake, rng);
  const double g_loss = BceWithLogitsLoss(d_out, ones, &grad);
  g_optimizer_->ZeroGrad();
  d_optimizer_->ZeroGrad();  // discard discriminator grads from this pass
  Matrix grad_fake = discriminator_.Backward(grad);
  generator_.Backward(grad_fake);
  g_optimizer_->ClipGradNorm(config_.grad_clip);
  g_optimizer_->Step();
  d_optimizer_->ZeroGrad();
  return {d_loss, g_loss};
}

Result<Table> GanSynthesizer::Synthesize(int num_rows, Rng* rng) {
  if (!fitted_) return Status::FailedPrecondition("Fit GAN first");
  if (num_rows <= 0) return Status::InvalidArgument("num_rows must be > 0");
  Matrix noise = Matrix::RandomNormal(num_rows, config_.noise_dim, rng);
  Matrix fake = generator_.Forward(noise, /*train_rng=*/nullptr);
  return encoder_.DecodeProbabilities(fake, rng);
}

}  // namespace silofuse
