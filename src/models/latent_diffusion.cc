#include "models/latent_diffusion.h"

#include "common/logging.h"
#include "core/reference_stats.h"
#include "obs/health.h"
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

  // Optional mid-training quality probes (see LatentDiffusionConfig): the
  // probe samples latents from the half-trained backbone, decodes through
  // the frozen autoencoder, and scores against the training table's
  // reference statistics.
  ReferenceStats reference;
  if (config_.quality_probe_every > 0) {
    Rng stats_rng(ReferenceStats::kCaptureSeed);
    reference = ReferenceStats::Capture(
        data, ReferenceStats::kDefaultSampleRows, &stats_rng);
  }
  obs::health::QualityProbe probe;
  probe.every_steps = config_.quality_probe_every;
  probe.reference = &reference;
  probe.synthesize = [this](int rows, Rng* probe_rng) -> Result<Table> {
    SF_ASSIGN_OR_RETURN(
        Matrix latent_sample,
        SampleLatents(rows, config_.inference_steps, probe_rng));
    return autoencoder_->DecodeToTable(latent_sample, probe_rng,
                                       /*sample=*/true);
  };
  // Step 2: encode once and train the latent DDPM (Eq. 5) through the
  // coordinator's loop, which standardizes the latents.
  return coordinator_.TrainOnLatents(
      autoencoder_->EncodeTable(data), config_.diffusion_train_steps,
      config_.batch_size, rng, std::move(probe));
}

Result<Matrix> LatentDiffSynthesizer::SampleLatents(int num_rows,
                                                    int inference_steps,
                                                    Rng* rng) {
  return coordinator_.SampleLatents(num_rows, inference_steps,
                                    config_.sampling_eta, rng);
}

Result<Table> LatentDiffSynthesizer::Synthesize(int num_rows, Rng* rng) {
  if (num_rows <= 0) return Status::InvalidArgument("num_rows must be > 0");
  SF_ASSIGN_OR_RETURN(Matrix latents,
                      SampleLatents(num_rows, config_.inference_steps, rng));
  return autoencoder_->DecodeToTable(latents, rng, /*sample=*/true);
}

}  // namespace silofuse
