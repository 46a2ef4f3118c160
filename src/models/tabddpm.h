#ifndef SILOFUSE_MODELS_TABDDPM_H_
#define SILOFUSE_MODELS_TABDDPM_H_

#include <memory>
#include <vector>

#include "data/mixed_encoder.h"
#include "diffusion/multinomial_ddpm.h"
#include "diffusion/schedule.h"
#include "models/synthesizer.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace silofuse {

/// Hyperparameters for TabDDPM (Kotelnikov et al.), the real-space
/// state-of-the-art baseline of the paper.
struct TabDdpmConfig {
  int num_timesteps = 200;
  int hidden_dim = 128;  // paper: 6-layer MLP, hidden 256 (scaled for CPU)
  int num_layers = 6;
  int time_embed_dim = 32;
  float lr = 1e-3f;
  float grad_clip = 5.0f;
  int train_steps = 1500;
  int batch_size = 256;
  /// Inference timesteps. Strides over the schedule; categorical features
  /// bridge strides by sampling x0 from the predicted distribution and
  /// re-noising to the next timestep.
  int inference_steps = 50;
};

/// TabDDPM: Gaussian diffusion on quantile-normalized numeric features plus
/// per-feature multinomial diffusion on one-hot categoricals, with the
/// combined loss of Eq. (3). Works directly in the (sparse) one-hot real
/// space — the contrast that motivates SiloFuse's latent design.
class TabDdpmSynthesizer : public Synthesizer {
 public:
  explicit TabDdpmSynthesizer(TabDdpmConfig config = {})
      : config_(std::move(config)) {}

  Status Fit(const Table& data, Rng* rng) override;
  Result<Table> Synthesize(int num_rows, Rng* rng) override;
  std::string name() const override { return "TabDDPM"; }

  const TabDdpmConfig& config() const { return config_; }
  /// Width of the model's feature space (the one-hot expanded width of
  /// Table II).
  int encoded_width() const { return encoder_.encoded_width(); }

  /// One minibatch update on pre-encoded rows; returns (gaussian,
  /// multinomial) losses. Exposed for tests. Fit seals the backbone and
  /// drops the optimizer when training ends; a later call re-creates the
  /// optimizer (Adam moments from zero) and its training forward unseals.
  std::pair<double, double> TrainStep(const Matrix& x_encoded, Rng* rng);

 private:
  Matrix BackboneForward(const Matrix& x_t, const std::vector<int>& t,
                         Rng* train_rng);

  TabDdpmConfig config_;
  MixedEncoder encoder_{NumericScaling::kQuantileNormal};
  std::unique_ptr<VarianceSchedule> schedule_;
  std::vector<MultinomialDiffusion> cat_diffusions_;  // one per cat column
  std::vector<FeatureSpan> numeric_spans_;
  std::vector<FeatureSpan> cat_spans_;
  Sequential backbone_;
  std::unique_ptr<Adam> optimizer_;  // created by the first TrainStep
  bool fitted_ = false;
};

}  // namespace silofuse

#endif  // SILOFUSE_MODELS_TABDDPM_H_
