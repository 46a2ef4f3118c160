#ifndef SILOFUSE_MODELS_LATENT_DIFFUSION_H_
#define SILOFUSE_MODELS_LATENT_DIFFUSION_H_

#include <memory>

#include "diffusion/gaussian_ddpm.h"
#include "distributed/coordinator.h"
#include "models/autoencoder.h"
#include "models/synthesizer.h"

namespace silofuse {

/// Shared training knobs for the latent-diffusion family.
struct LatentDiffusionConfig {
  AutoencoderConfig autoencoder;
  GaussianDdpmConfig diffusion;  // data_dim filled in automatically
  int autoencoder_steps = 800;
  int diffusion_train_steps = 1500;
  int batch_size = 256;       // paper: 512
  int inference_steps = 25;   // paper: "inference conducted over 25 steps"
  double sampling_eta = 1.0;  // ancestral sampling

  /// Mid-training quality probes: every `quality_probe_every` diffusion
  /// steps, synthesize a batch from the partially trained backbone, decode
  /// it, and score it against the training data's ReferenceStats with the
  /// serving auditor's scorer into `quality.*` gauges (obs/health.h). 0
  /// disables (the default — probes cost one small synthesis pass each).
  /// Probes use their own fixed-seed Rng, so the training trajectory is
  /// byte-identical either way.
  int quality_probe_every = 0;
};

/// LatentDiff: the centralized latent tabular DDPM of Fig. 4/5 — one
/// autoencoder over all features, a Gaussian DDPM over the (standardized)
/// latents, stacked training. This is SiloFuse's centralized upper bound:
/// its latent DDPM is SiloFuse's, trained and sampled by one Coordinator
/// (scope "latentdiff") over the single party's latents.
class LatentDiffSynthesizer : public Synthesizer {
 public:
  explicit LatentDiffSynthesizer(LatentDiffusionConfig config = {})
      : config_(std::move(config)),
        coordinator_(config_.diffusion, "latentdiff") {}

  Status Fit(const Table& data, Rng* rng) override;
  Result<Table> Synthesize(int num_rows, Rng* rng) override;
  std::string name() const override { return "LatentDiff"; }

  const LatentDiffusionConfig& config() const { return config_; }
  TabularAutoencoder* autoencoder() { return autoencoder_.get(); }
  Coordinator* coordinator() { return &coordinator_; }

  /// Samples standardized latents and de-standardizes them; used by the
  /// privacy-sensitivity experiment (Table VII) to vary inference steps.
  Result<Matrix> SampleLatents(int num_rows, int inference_steps, Rng* rng);

 private:
  LatentDiffusionConfig config_;
  std::unique_ptr<TabularAutoencoder> autoencoder_;
  Coordinator coordinator_;
};

}  // namespace silofuse

#endif  // SILOFUSE_MODELS_LATENT_DIFFUSION_H_
