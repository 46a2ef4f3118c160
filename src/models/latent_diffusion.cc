#include "models/latent_diffusion.h"

#include <algorithm>

#include "common/logging.h"
#include "core/reference_stats.h"
#include "data/split.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace silofuse {

Status LatentDiffSynthesizer::Fit(const Table& data, Rng* rng) {
  SF_TRACE_SPAN("latentdiff.fit");
  if (data.num_rows() < 2) {
    return Status::InvalidArgument("LatentDiff needs at least 2 rows");
  }
  // Step 1: train the autoencoder (stacked, Eq. 4).
  SF_ASSIGN_OR_RETURN(autoencoder_,
                      TabularAutoencoder::Create(data, config_.autoencoder, rng));
  SF_ASSIGN_OR_RETURN(const double ae_loss,
                      autoencoder_->Train(data, config_.autoencoder_steps,
                                          config_.batch_size, rng));
  SF_LOG(Debug) << name() << ": autoencoder loss " << ae_loss;

  // Step 2: encode once, standardize, train the DDPM on latents (Eq. 5).
  SF_TRACE_SPAN("latentdiff.fit.diffusion");
  Matrix latents = autoencoder_->EncodeTable(data);
  standardizer_.Fit(latents);
  Matrix z0 = standardizer_.Transform(latents);

  GaussianDdpmConfig ddpm_config = config_.diffusion;
  ddpm_config.data_dim = z0.cols();
  diffusion_ = std::make_unique<GaussianDdpm>(ddpm_config, rng);
  obs::TrainLoopTelemetry telemetry("latentdiff.train",
                                    std::min(config_.batch_size, z0.rows()));
  telemetry.WatchHealth(diffusion_->Parameters());

  // Optional mid-training quality probes (see LatentDiffusionConfig): the
  // probe samples latents from the half-trained backbone, decodes through
  // the frozen autoencoder, and scores against the training table's
  // reference statistics.
  ReferenceStats reference;
  obs::health::QualityProbe probe;
  if (config_.quality_probe_every > 0) {
    Rng stats_rng(ReferenceStats::kCaptureSeed);
    reference = ReferenceStats::Capture(
        data, ReferenceStats::kDefaultSampleRows, &stats_rng);
    probe.every_steps = config_.quality_probe_every;
    probe.reference = &reference;
    probe.prefix = "quality.latentdiff";
    probe.synthesize = [this](int rows, Rng* probe_rng) -> Result<Table> {
      SF_ASSIGN_OR_RETURN(
          Matrix latent_sample,
          SampleLatents(rows, config_.inference_steps, probe_rng));
      return autoencoder_->DecodeToTable(latent_sample, probe_rng,
                                         /*sample=*/true);
    };
  }
  obs::health::QualityProbeRunner probe_runner(probe);

  double running = 0.0;
  for (int s = 0; s < config_.diffusion_train_steps; ++s) {
    const std::vector<int> idx = SampleBatchIndices(
        z0.rows(), std::min(config_.batch_size, z0.rows()), rng);
    const double loss = diffusion_->TrainStep(z0.GatherRows(idx), rng);
    running = s == 0 ? loss : 0.95 * running + 0.05 * loss;
    SF_RETURN_NOT_OK(telemetry.Step({{"diffusion_loss", running}}));
    // Probes run between optimizer steps only: the next TrainStep
    // re-establishes the layer caches its Backward needs.
    SF_RETURN_NOT_OK(probe_runner.MaybeRun(s + 1));
  }
  // The weights are fixed from here on: pack them once and drop the grads
  // and Adam moments sampling never reads.
  diffusion_->PrepareForSampling();
  SF_LOG(Debug) << name() << ": diffusion loss " << running;
  return Status::OK();
}

Result<Matrix> LatentDiffSynthesizer::SampleLatents(int num_rows,
                                                    int inference_steps,
                                                    Rng* rng) {
  if (diffusion_ == nullptr) {
    return Status::FailedPrecondition("Fit must be called before sampling");
  }
  Matrix z = diffusion_->Sample(num_rows, inference_steps, rng,
                                config_.sampling_eta);
  return standardizer_.Inverse(z);
}

Result<Table> LatentDiffSynthesizer::Synthesize(int num_rows, Rng* rng) {
  if (num_rows <= 0) return Status::InvalidArgument("num_rows must be > 0");
  SF_ASSIGN_OR_RETURN(Matrix latents,
                      SampleLatents(num_rows, config_.inference_steps, rng));
  return autoencoder_->DecodeToTable(latents, rng, /*sample=*/true);
}

}  // namespace silofuse
