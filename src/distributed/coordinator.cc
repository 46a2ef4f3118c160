#include "distributed/coordinator.h"

#include "data/split.h"
#include "distributed/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace silofuse {

Result<Matrix> Coordinator::ShipLatentSlice(ReliableTransfer* transfer,
                                            const std::string& to,
                                            const Matrix& slice) const {
  return transfer->SendMatrix(party_name(), to, slice, "synthetic_latents");
}

Status Coordinator::TrainOnLatents(const Matrix& latents, int steps,
                                   int batch_size, Rng* rng,
                                   obs::health::QualityProbe probe) {
  SF_TRACE_SPAN("coordinator.train_on_latents");
  if (latents.rows() < 2) {
    return Status::InvalidArgument("coordinator needs at least 2 latent rows");
  }
  standardizer_.Fit(latents);
  Matrix z0 = standardizer_.Transform(latents);
  GaussianDdpmConfig config = config_;
  config.data_dim = z0.cols();
  ddpm_ = std::make_unique<GaussianDdpm>(config, rng);
  {
    obs::TrainLoopTelemetry telemetry(scope_ + ".train",
                                      std::min(batch_size, z0.rows()));
    telemetry.WatchHealth(ddpm_->Parameters());
    probe.prefix = "quality." + scope_;
    obs::health::QualityProbeRunner probe_runner(std::move(probe));
    for (int s = 0; s < steps; ++s) {
      const std::vector<int> idx =
          SampleBatchIndices(z0.rows(), std::min(batch_size, z0.rows()), rng);
      const double loss = ddpm_->TrainStep(z0.GatherRows(idx), rng);
      SF_RETURN_NOT_OK(telemetry.Step({{"diffusion_loss", loss}}));
      // Probes run between optimizer steps: the next TrainStep
      // re-establishes the layer caches its Backward needs, so mid-training
      // inference through the shared backbone is safe here (and nowhere
      // inside a step).
      SF_RETURN_NOT_OK(probe_runner.MaybeRun(s + 1));
    }
  }
  // The weights are fixed from here on: a fitted coordinator holds what a
  // reloaded checkpoint holds (packed weights, no grads or moments).
  ddpm_->PrepareForSampling();
  return Status::OK();
}

Result<Matrix> Coordinator::SampleLatents(int num_rows, int inference_steps,
                                          double eta, Rng* rng) {
  return SampleLatentsCoalesced({num_rows}, {rng}, inference_steps, eta);
}

Result<Matrix> Coordinator::SampleLatentsCoalesced(
    const std::vector<int>& block_rows, const std::vector<Rng*>& rngs,
    int inference_steps, double eta) {
  SF_TRACE_SPAN("coordinator.sample_latents");
  if (!trained()) {
    return Status::FailedPrecondition("coordinator has not been trained");
  }
  if (block_rows.empty() || block_rows.size() != rngs.size()) {
    return Status::InvalidArgument("block_rows/rngs size mismatch");
  }
  for (int rows : block_rows) {
    if (rows <= 0) return Status::InvalidArgument("rows must be > 0");
  }
  if (inference_steps <= 0) {
    return Status::InvalidArgument("inference_steps must be > 0");
  }
  Matrix z = ddpm_->SampleCoalesced(block_rows, rngs, inference_steps, eta);
  return standardizer_.Inverse(z);
}

Status Coordinator::Save(BinaryWriter* writer) {
  if (!trained()) {
    return Status::FailedPrecondition("cannot save an untrained coordinator");
  }
  writer->WriteString("coordinator");
  ddpm_->Save(writer);
  standardizer_.Save(writer);
  return Status::OK();
}

Result<std::unique_ptr<Coordinator>> Coordinator::LoadFrom(
    BinaryReader* reader) {
  SF_RETURN_NOT_OK(reader->ExpectTag("coordinator"));
  SF_ASSIGN_OR_RETURN(auto ddpm, GaussianDdpm::LoadFrom(reader));
  auto coordinator = std::make_unique<Coordinator>(ddpm->config());
  coordinator->ddpm_ = std::move(ddpm);
  SF_RETURN_NOT_OK(coordinator->standardizer_.Load(reader));
  return coordinator;
}

}  // namespace silofuse
