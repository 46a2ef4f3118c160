#include "models/tabddpm.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "data/split.h"
#include "diffusion/time_embedding.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace silofuse {

Status TabDdpmSynthesizer::Fit(const Table& data, Rng* rng) {
  if (data.num_rows() < 2) {
    return Status::InvalidArgument("TabDDPM needs at least 2 rows");
  }
  SF_RETURN_NOT_OK(encoder_.Fit(data));
  schedule_ = std::make_unique<VarianceSchedule>(config_.num_timesteps);
  numeric_spans_.clear();
  cat_spans_.clear();
  cat_diffusions_.clear();
  for (const FeatureSpan& span : encoder_.spans()) {
    if (span.categorical) {
      cat_spans_.push_back(span);
      cat_diffusions_.emplace_back(schedule_.get(), span.width);
    } else {
      numeric_spans_.push_back(span);
    }
  }

  const int width = encoder_.encoded_width();
  const int in_dim = width + config_.time_embed_dim;
  backbone_.Clear();
  backbone_.Emplace<Linear>(in_dim, config_.hidden_dim, rng);
  backbone_.Emplace<Gelu>();
  for (int l = 0; l < config_.num_layers - 2; ++l) {
    backbone_.Emplace<Linear>(config_.hidden_dim, config_.hidden_dim, rng);
    backbone_.Emplace<Gelu>();
  }
  backbone_.Emplace<Linear>(config_.hidden_dim, width, rng);
  PrefixParameterNames(backbone_.Parameters(), "backbone.");
  optimizer_.reset();

  const Matrix all = encoder_.Encode(data);
  SF_TRACE_SPAN("tabddpm.train");
  obs::TrainLoopTelemetry telemetry("tabddpm.train",
                                    std::min(config_.batch_size, all.rows()));
  telemetry.WatchHealth(backbone_.Parameters());
  double g_loss = 0.0, m_loss = 0.0;
  for (int s = 0; s < config_.train_steps; ++s) {
    const std::vector<int> idx = SampleBatchIndices(
        all.rows(), std::min(config_.batch_size, all.rows()), rng);
    auto [g, m] = TrainStep(all.GatherRows(idx), rng);
    g_loss = s == 0 ? g : 0.95 * g_loss + 0.05 * g;
    m_loss = s == 0 ? m : 0.95 * m_loss + 0.05 * m;
    SF_RETURN_NOT_OK(telemetry.Step(
        {{"gaussian_loss", g_loss}, {"multinomial_loss", m_loss}}));
  }
  SF_LOG(Debug) << "TabDDPM losses: gaussian " << g_loss << " multinomial "
                << m_loss;
  backbone_.Seal();
  optimizer_.reset();
  fitted_ = true;
  return Status::OK();
}

Matrix TabDdpmSynthesizer::BackboneForward(const Matrix& x_t,
                                           const std::vector<int>& t,
                                           Rng* train_rng) {
  Matrix t_emb = SinusoidalTimeEmbedding(t, config_.time_embed_dim);
  return backbone_.Forward(Matrix::ConcatCols({x_t, t_emb}), train_rng);
}

std::pair<double, double> TabDdpmSynthesizer::TrainStep(
    const Matrix& x_encoded, Rng* rng) {
  const int batch = x_encoded.rows();
  const int width = encoder_.encoded_width();
  std::vector<int> t(batch);
  for (int r = 0; r < batch; ++r) {
    t[r] = static_cast<int>(rng->UniformInt(1, schedule_->num_timesteps()));
  }

  // Build the noisy input x_t span by span.
  Matrix x_t(batch, width);
  Matrix eps(batch, width);  // numeric slots only; zero elsewhere
  for (const FeatureSpan& span : numeric_spans_) {
    for (int r = 0; r < batch; ++r) {
      const double s0 = schedule_->sqrt_alpha_bar(t[r]);
      const double s1 = schedule_->sqrt_one_minus_alpha_bar(t[r]);
      const float e = static_cast<float>(rng->Normal());
      eps.at(r, span.offset) = e;
      x_t.at(r, span.offset) = static_cast<float>(
          s0 * x_encoded.at(r, span.offset) + s1 * e);
    }
  }
  std::vector<Matrix> cat_xt(cat_spans_.size());
  for (size_t v = 0; v < cat_spans_.size(); ++v) {
    const FeatureSpan& span = cat_spans_[v];
    Matrix x0 = x_encoded.SliceCols(span.offset, span.width);
    Matrix probs = cat_diffusions_[v].QXtGivenX0(x0, t);
    cat_xt[v] = cat_diffusions_[v].SampleOneHot(probs, rng);
    for (int r = 0; r < batch; ++r) {
      const float* src = cat_xt[v].row_data(r);
      float* dst = x_t.row_data(r) + span.offset;
      std::copy(src, src + span.width, dst);
    }
  }

  Matrix out = BackboneForward(x_t, t, rng);

  // Loss/gradient assembly: MSE on numeric eps-slots + mean multinomial KL.
  Matrix grad(batch, width);
  double gaussian_loss = 0.0;
  const int num_numeric = static_cast<int>(numeric_spans_.size());
  if (num_numeric > 0) {
    const float scale = 2.0f / static_cast<float>(batch * num_numeric);
    for (const FeatureSpan& span : numeric_spans_) {
      for (int r = 0; r < batch; ++r) {
        const double d = static_cast<double>(out.at(r, span.offset)) -
                         eps.at(r, span.offset);
        gaussian_loss += d * d;
        grad.at(r, span.offset) = scale * static_cast<float>(d);
      }
    }
    gaussian_loss /= batch * num_numeric;
  }
  double multinomial_loss = 0.0;
  if (!cat_spans_.empty()) {
    const float inv_v = 1.0f / static_cast<float>(cat_spans_.size());
    for (size_t v = 0; v < cat_spans_.size(); ++v) {
      const FeatureSpan& span = cat_spans_[v];
      Matrix logits = out.SliceCols(span.offset, span.width);
      Matrix x0 = x_encoded.SliceCols(span.offset, span.width);
      Matrix grad_logits;
      multinomial_loss +=
          cat_diffusions_[v].KlLoss(logits, x0, cat_xt[v], t, &grad_logits);
      for (int r = 0; r < batch; ++r) {
        const float* src = grad_logits.row_data(r);
        float* dst = grad.row_data(r) + span.offset;
        for (int k = 0; k < span.width; ++k) dst[k] = src[k] * inv_v;
      }
    }
    multinomial_loss /= cat_spans_.size();
  }

  if (optimizer_ == nullptr) {
    optimizer_ = std::make_unique<Adam>(backbone_.Parameters(), config_.lr);
  }
  optimizer_->ZeroGrad();
  backbone_.Backward(grad);
  optimizer_->ClipGradNorm(config_.grad_clip);
  optimizer_->Step();
  return {gaussian_loss, multinomial_loss};
}

Result<Table> TabDdpmSynthesizer::Synthesize(int num_rows, Rng* rng) {
  if (!fitted_) return Status::FailedPrecondition("Fit TabDDPM first");
  if (num_rows <= 0) return Status::InvalidArgument("num_rows must be > 0");
  const int width = encoder_.encoded_width();

  // Initialize: numerics from N(0, I), categoricals uniform one-hot.
  Matrix x(num_rows, width);
  for (const FeatureSpan& span : numeric_spans_) {
    for (int r = 0; r < num_rows; ++r) {
      x.at(r, span.offset) = static_cast<float>(rng->Normal());
    }
  }
  for (const FeatureSpan& span : cat_spans_) {
    for (int r = 0; r < num_rows; ++r) {
      const int k = static_cast<int>(rng->UniformInt(0, span.width - 1));
      x.at(r, span.offset + k) = 1.0f;
    }
  }

  const std::vector<int> taus =
      schedule_->InferenceTimesteps(config_.inference_steps);
  std::vector<int> t_batch(num_rows);
  for (size_t i = 0; i < taus.size(); ++i) {
    const int t = taus[i];
    const int t_prev = (i + 1 < taus.size()) ? taus[i + 1] : 0;
    const bool adjacent = (t_prev == t - 1);
    std::fill(t_batch.begin(), t_batch.end(), t);
    Matrix out = BackboneForward(x, t_batch, /*train_rng=*/nullptr);

    // Numeric branch: DDIM/ancestral update from the eps prediction.
    const double abar_t = schedule_->alpha_bar(t);
    const double abar_prev = schedule_->alpha_bar(t_prev);
    const double s0 = std::sqrt(abar_t);
    const double s1 = std::sqrt(1.0 - abar_t);
    const double sigma =
        t_prev == 0 ? 0.0
                    : std::sqrt((1.0 - abar_prev) / (1.0 - abar_t) *
                                (1.0 - abar_t / abar_prev));
    const double dir_coef =
        std::sqrt(std::max(0.0, 1.0 - abar_prev - sigma * sigma));
    for (const FeatureSpan& span : numeric_spans_) {
      for (int r = 0; r < num_rows; ++r) {
        const double eps_hat = out.at(r, span.offset);
        double x0_hat = (x.at(r, span.offset) - s1 * eps_hat) / s0;
        x0_hat = std::max(-10.0, std::min(10.0, x0_hat));
        if (t_prev == 0) {
          x.at(r, span.offset) = static_cast<float>(x0_hat);
        } else {
          const double eps_adj = (x.at(r, span.offset) - s0 * x0_hat) / s1;
          double v = std::sqrt(abar_prev) * x0_hat + dir_coef * eps_adj;
          v += sigma * rng->Normal();
          x.at(r, span.offset) = static_cast<float>(v);
        }
      }
    }

    // Categorical branch: posterior step when adjacent; otherwise sample x0
    // from the predicted distribution and re-noise to t_prev.
    for (size_t v = 0; v < cat_spans_.size(); ++v) {
      const FeatureSpan& span = cat_spans_[v];
      Matrix logits = out.SliceCols(span.offset, span.width);
      Matrix x0_dist = SoftmaxRows(logits);
      Matrix x_cat_t = x.SliceCols(span.offset, span.width);
      Matrix next;
      if (t_prev == 0) {
        next = cat_diffusions_[v].SampleOneHot(
            cat_diffusions_[v].Posterior(x_cat_t, x0_dist, t_batch), rng);
      } else if (adjacent) {
        Matrix post = cat_diffusions_[v].Posterior(x_cat_t, x0_dist, t_batch);
        next = cat_diffusions_[v].SampleOneHot(post, rng);
      } else {
        Matrix x0_sample = cat_diffusions_[v].SampleOneHot(x0_dist, rng);
        std::vector<int> t_prev_batch(num_rows, t_prev);
        Matrix probs = cat_diffusions_[v].QXtGivenX0(x0_sample, t_prev_batch);
        next = cat_diffusions_[v].SampleOneHot(probs, rng);
      }
      for (int r = 0; r < num_rows; ++r) {
        const float* src = next.row_data(r);
        float* dst = x.row_data(r) + span.offset;
        std::copy(src, src + span.width, dst);
      }
    }
  }
  return encoder_.Decode(x);
}

}  // namespace silofuse
