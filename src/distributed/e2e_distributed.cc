#include "distributed/e2e_distributed.h"

#include <algorithm>

#include "common/logging.h"
#include "data/split.h"
#include "nn/losses.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace silofuse {

void E2EDistrSynthesizer::set_fault(const FaultInjection& fault) {
  channel_.SetClock(fault.clock);
  wire_ = FaultyChannel(&channel_, fault.plan);
  transfer_ = ReliableTransfer(&wire_, fault.retry, fault.clock);
}

Status E2EDistrSynthesizer::Fit(const Table& data, Rng* rng) {
  if (data.num_rows() < 2) {
    return Status::InvalidArgument("E2EDistr needs at least 2 rows");
  }
  channel_.Reset();
  trace_run_id_ = obs::NextTraceRunId();
  trace_round_ = 0;
  SF_ASSIGN_OR_RETURN(partition_,
                      PartitionColumns(data.num_columns(), partition_config_));
  clients_.clear();
  client_inputs_.clear();

  const int num_clients = static_cast<int>(partition_.size());
  AutoencoderConfig client_config = config_.autoencoder;
  client_config.hidden_dim =
      std::max(16, client_config.hidden_dim / num_clients);

  int total_latent = 0;
  for (int i = 0; i < num_clients; ++i) {
    Rng client_rng = rng->Fork();
    SF_ASSIGN_OR_RETURN(
        auto client,
        SiloClient::Create(i, data.SelectColumns(partition_[i]), client_config,
                           &client_rng));
    client_inputs_.push_back(
        client->autoencoder()->mixed_encoder().Encode(client->features()));
    total_latent += client->latent_dim();
    clients_.push_back(std::move(client));
  }

  GaussianDdpmConfig ddpm_config = config_.diffusion;
  ddpm_config.data_dim = total_latent;
  ddpm_config.predict = DiffusionPrediction::kX0;  // decoder consumes x0-hat
  backbone_ = std::make_unique<GaussianDdpm>(ddpm_config, rng);
  joint_optimizer_.reset();

  const int steps = config_.autoencoder_steps + config_.diffusion_train_steps;
  obs::TraceContext run_ctx;
  run_ctx.run_id = trace_run_id_;
  obs::ScopedTraceContext run_scope(run_ctx);
  obs::ContextSpan train_span("e2e_distr.train");
  obs::TrainLoopTelemetry telemetry(
      "e2e_distr.train", std::min(config_.batch_size, data.num_rows()));
  // One watched group per silo (abort messages then name the silo) plus the
  // shared diffusion backbone on the coordinator.
  for (auto& client : clients_) {
    telemetry.WatchHealth(client->autoencoder()->Parameters(), client->id());
  }
  telemetry.WatchHealth(backbone_->Parameters());
  double recon = 0.0, diff = 0.0;
  const int64_t bytes_before_first = channel_.total_bytes();
  for (int s = 0; s < steps; ++s) {
    const std::vector<int> rows = SampleBatchIndices(
        data.num_rows(), std::min(config_.batch_size, data.num_rows()), rng);
    SF_ASSIGN_OR_RETURN(auto losses, TrainIteration(rows, rng));
    const auto [r, d] = losses;
    recon = s == 0 ? r : 0.95 * recon + 0.05 * r;
    diff = s == 0 ? d : 0.95 * diff + 0.05 * d;
    SF_RETURN_NOT_OK(
        telemetry.Step({{"recon_loss", recon}, {"diffusion_loss", diff}}));
    if (s == 0) bytes_per_round_ = channel_.total_bytes() - bytes_before_first;
  }
  SF_LOG(Debug) << "E2EDistr losses: recon " << recon << " diffusion " << diff;
  for (auto& client : clients_) client->autoencoder()->PrepareForSampling();
  backbone_->PrepareForSampling();
  joint_optimizer_.reset();
  fitted_ = true;
  return Status::OK();
}

Result<std::pair<double, double>> E2EDistrSynthesizer::TrainIteration(
    const std::vector<int>& batch_rows, Rng* rng) {
  SF_CHECK(backbone_ != nullptr);
  if (joint_optimizer_ == nullptr) {
    // Every silo's autoencoder, then the coordinator's backbone.
    std::vector<Parameter*> params;
    for (auto& client : clients_) {
      for (Parameter* p : client->autoencoder()->Parameters()) {
        params.push_back(p);
      }
    }
    for (Parameter* p : backbone_->Parameters()) params.push_back(p);
    joint_optimizer_ =
        std::make_unique<Adam>(std::move(params), config_.autoencoder.lr);
  }
  // Each training iteration is one communication round; give it a 1-based
  // round number in the ambient context so its transfers (and the spans of
  // pool tasks it fans out) group per round in the trace and the profile's
  // critical-path report.
  obs::TraceContext round_ctx = obs::CurrentTraceContext();
  round_ctx.run_id = trace_run_id_;
  round_ctx.round = ++trace_round_;
  obs::ScopedTraceContext round_scope(round_ctx);
  obs::ContextSpan round_span("e2e_distr.round");
  const int batch = static_cast<int>(batch_rows.size());
  wire_.BeginRound();

  // Forward 1/2: clients encode and ship activations (latents).
  std::vector<Matrix> z_parts;
  z_parts.reserve(clients_.size());
  for (size_t i = 0; i < clients_.size(); ++i) {
    Matrix x_i = client_inputs_[i].GatherRows(batch_rows);
    Matrix z_i = clients_[i]->autoencoder()->EncoderForward(x_i, rng);
    SF_ASSIGN_OR_RETURN(z_i, transfer_.SendMatrix(clients_[i]->party_name(),
                                                  "coordinator", z_i,
                                                  "forward_activations"));
    z_parts.push_back(std::move(z_i));
  }
  Matrix z = Matrix::ConcatCols(z_parts);

  // Forward 2/2: coordinator noises, denoises, ships denoised slices back.
  std::vector<int> t(batch);
  for (int r = 0; r < batch; ++r) {
    t[r] = static_cast<int>(
        rng->UniformInt(1, backbone_->schedule().num_timesteps()));
  }
  Matrix eps = Matrix::RandomNormal(batch, z.cols(), rng);
  Matrix z_t = backbone_->ForwardProcess(z, t, eps);
  Matrix z0_hat = backbone_->ForwardBackbone(z_t, t, rng);

  joint_optimizer_->ZeroGrad();
  double recon_loss = 0.0;
  Matrix grad_pred(batch, z.cols());
  int offset = 0;
  for (size_t i = 0; i < clients_.size(); ++i) {
    const int s_i = clients_[i]->latent_dim();
    Matrix z0_hat_i = z0_hat.SliceCols(offset, s_i);
    SF_ASSIGN_OR_RETURN(z0_hat_i,
                        transfer_.SendMatrix("coordinator",
                                             clients_[i]->party_name(),
                                             z0_hat_i, "denoised_latents"));
    // Client-side decode + head loss + decoder backward.
    TabularAutoencoder* ae = clients_[i]->autoencoder();
    Matrix x_i = client_inputs_[i].GatherRows(batch_rows);
    Matrix heads = ae->DecoderForward(z0_hat_i, rng);
    Matrix grad_heads;
    recon_loss += ae->HeadLoss(heads, x_i, &grad_heads);
    Matrix grad_z0_i = ae->DecoderBackward(grad_heads);
    SF_ASSIGN_OR_RETURN(grad_z0_i,
                        transfer_.SendMatrix(clients_[i]->party_name(),
                                             "coordinator", grad_z0_i,
                                             "backward_gradients"));
    for (int r = 0; r < batch; ++r) {
      const float* src = grad_z0_i.row_data(r);
      float* dst = grad_pred.row_data(r) + offset;
      std::copy(src, src + s_i, dst);
    }
    offset += s_i;
  }
  recon_loss /= static_cast<double>(clients_.size());

  // Diffusion MSE; as in E2E, the gradient flows to both the prediction and
  // the clean latents (the target-side term anchors the latent scale).
  Matrix grad_mse;
  const double diffusion_loss = MseLoss(z0_hat, z, &grad_mse);
  grad_pred.AddInPlace(grad_mse);

  Matrix grad_zt = backbone_->BackwardBackbone(grad_pred);
  // dz_t/dz = sqrt(alpha_bar_t) plus the MSE target-side gradient; ship
  // gradient slices back to clients.
  offset = 0;
  for (size_t i = 0; i < clients_.size(); ++i) {
    const int s_i = clients_[i]->latent_dim();
    Matrix grad_z_i(batch, s_i);
    for (int r = 0; r < batch; ++r) {
      const float s0 =
          static_cast<float>(backbone_->schedule().sqrt_alpha_bar(t[r]));
      const float* src = grad_zt.row_data(r) + offset;
      const float* mse = grad_mse.row_data(r) + offset;
      float* dst = grad_z_i.row_data(r);
      for (int c = 0; c < s_i; ++c) dst[c] = s0 * src[c] - mse[c];
    }
    SF_ASSIGN_OR_RETURN(grad_z_i,
                        transfer_.SendMatrix("coordinator",
                                             clients_[i]->party_name(),
                                             grad_z_i, "backward_gradients"));
    clients_[i]->autoencoder()->EncoderBackward(grad_z_i);
    offset += s_i;
  }

  joint_optimizer_->ClipGradNorm(config_.autoencoder.grad_clip);
  joint_optimizer_->Step();
  return std::make_pair(recon_loss, diffusion_loss);
}

Result<Table> E2EDistrSynthesizer::Synthesize(int num_rows, Rng* rng) {
  if (!fitted_) return Status::FailedPrecondition("Fit E2EDistr first");
  if (num_rows <= 0) return Status::InvalidArgument("num_rows must be > 0");
  obs::TraceContext round_ctx;
  round_ctx.run_id = trace_run_id_;
  round_ctx.round = ++trace_round_;
  obs::ScopedTraceContext round_scope(round_ctx);
  obs::ContextSpan synth_span("e2e_distr.synthesize");
  Matrix z = backbone_->Sample(num_rows, config_.inference_steps, rng,
                               config_.sampling_eta);
  wire_.BeginRound();
  std::vector<Table> parts;
  parts.reserve(clients_.size());
  int offset = 0;
  for (auto& client : clients_) {
    Matrix z_i = z.SliceCols(offset, client->latent_dim());
    offset += client->latent_dim();
    SF_ASSIGN_OR_RETURN(z_i, transfer_.SendMatrix("coordinator",
                                                  client->party_name(), z_i,
                                                  "synthetic_latents"));
    parts.push_back(client->Decode(z_i, rng, /*sample=*/true));
  }
  return ReassembleColumns(parts, partition_);
}

}  // namespace silofuse
