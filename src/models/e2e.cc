#include "models/e2e.h"

#include "common/logging.h"
#include "data/split.h"
#include "nn/losses.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace silofuse {

Status E2ESynthesizer::Fit(const Table& data, Rng* rng) {
  if (data.num_rows() < 2) {
    return Status::InvalidArgument("E2E needs at least 2 rows");
  }
  SF_ASSIGN_OR_RETURN(autoencoder_,
                      TabularAutoencoder::Create(data, config_.autoencoder, rng));
  GaussianDdpmConfig ddpm_config = config_.diffusion;
  ddpm_config.data_dim = autoencoder_->latent_dim();
  // End-to-end training needs the x0 parameterization: the decoder consumes
  // the denoised latents directly.
  ddpm_config.predict = DiffusionPrediction::kX0;
  diffusion_ = std::make_unique<GaussianDdpm>(ddpm_config, rng);
  joint_optimizer_.reset();

  const Matrix all = autoencoder_->mixed_encoder().Encode(data);
  // The joint model trains for the combined budget of the two stacked
  // phases, so E2E and LatentDiff see the same number of updates.
  const int steps = config_.autoencoder_steps + config_.diffusion_train_steps;
  SF_TRACE_SPAN("e2e.train");
  obs::TrainLoopTelemetry telemetry("e2e.train",
                                    std::min(config_.batch_size, all.rows()));
  telemetry.WatchHealth(JointParameters());
  double recon = 0.0, diff = 0.0;
  for (int s = 0; s < steps; ++s) {
    const std::vector<int> idx = SampleBatchIndices(
        all.rows(), std::min(config_.batch_size, all.rows()), rng);
    auto [r, d] = TrainStep(all.GatherRows(idx), rng);
    recon = s == 0 ? r : 0.95 * recon + 0.05 * r;
    diff = s == 0 ? d : 0.95 * diff + 0.05 * d;
    SF_RETURN_NOT_OK(
        telemetry.Step({{"recon_loss", recon}, {"diffusion_loss", diff}}));
  }
  SF_LOG(Debug) << "E2E losses: recon " << recon << " diffusion " << diff;
  autoencoder_->PrepareForSampling();
  diffusion_->PrepareForSampling();
  joint_optimizer_.reset();
  fitted_ = true;
  return Status::OK();
}

std::vector<Parameter*> E2ESynthesizer::JointParameters() {
  std::vector<Parameter*> params = autoencoder_->Parameters();
  for (Parameter* p : diffusion_->Parameters()) params.push_back(p);
  return params;
}

std::pair<double, double> E2ESynthesizer::TrainStep(const Matrix& x_encoded,
                                                    Rng* rng) {
  if (joint_optimizer_ == nullptr) {
    joint_optimizer_ =
        std::make_unique<Adam>(JointParameters(), config_.autoencoder.lr);
  }
  const int batch = x_encoded.rows();
  Matrix z = autoencoder_->EncoderForward(x_encoded, rng);
  std::vector<int> t(batch);
  for (int r = 0; r < batch; ++r) {
    t[r] = static_cast<int>(
        rng->UniformInt(1, diffusion_->schedule().num_timesteps()));
  }
  Matrix eps = Matrix::RandomNormal(batch, z.cols(), rng);
  Matrix z_t = diffusion_->ForwardProcess(z, t, eps);
  Matrix z0_hat = diffusion_->ForwardBackbone(z_t, t, rng);
  Matrix heads = autoencoder_->DecoderForward(z0_hat, rng);

  Matrix grad_heads;
  const double recon_loss = autoencoder_->HeadLoss(heads, x_encoded, &grad_heads);
  // Diffusion MSE between the denoised prediction and the clean latents.
  // The gradient flows to BOTH sides: without the target-side term nothing
  // anchors the encoder's latent scale and it drifts until the backbone can
  // no longer track it.
  Matrix grad_mse;
  const double diffusion_loss = MseLoss(z0_hat, z, &grad_mse);

  joint_optimizer_->ZeroGrad();
  Matrix grad_pred = autoencoder_->DecoderBackward(grad_heads);
  grad_pred.AddInPlace(grad_mse);
  Matrix grad_zt = diffusion_->BackwardBackbone(grad_pred);
  // dz_t/dz = sqrt(alpha_bar_t) per row, plus the MSE target-side gradient
  // dL/dz = -grad_mse.
  Matrix grad_z(batch, z.cols());
  for (int r = 0; r < batch; ++r) {
    const float s0 =
        static_cast<float>(diffusion_->schedule().sqrt_alpha_bar(t[r]));
    const float* src = grad_zt.row_data(r);
    const float* mse = grad_mse.row_data(r);
    float* dst = grad_z.row_data(r);
    for (int c = 0; c < z.cols(); ++c) dst[c] = s0 * src[c] - mse[c];
  }
  autoencoder_->EncoderBackward(grad_z);
  joint_optimizer_->ClipGradNorm(config_.autoencoder.grad_clip);
  joint_optimizer_->Step();
  return {recon_loss, diffusion_loss};
}

Result<Table> E2ESynthesizer::Synthesize(int num_rows, Rng* rng) {
  if (!fitted_) return Status::FailedPrecondition("Fit E2E first");
  if (num_rows <= 0) return Status::InvalidArgument("num_rows must be > 0");
  Matrix z = diffusion_->Sample(num_rows, config_.inference_steps, rng,
                                config_.sampling_eta);
  return autoencoder_->DecodeToTable(z, rng, /*sample=*/true);
}

}  // namespace silofuse
