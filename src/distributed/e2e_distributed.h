#ifndef SILOFUSE_DISTRIBUTED_E2E_DISTRIBUTED_H_
#define SILOFUSE_DISTRIBUTED_E2E_DISTRIBUTED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "diffusion/gaussian_ddpm.h"
#include "distributed/channel.h"
#include "distributed/client.h"
#include "distributed/fault.h"
#include "distributed/partition.h"
#include "models/latent_diffusion.h"
#include "models/synthesizer.h"
#include "nn/optimizer.h"

namespace silofuse {

/// E2EDistr: the end-to-end distributed baseline of Fig. 9 (split-learning
/// style model parallelism). Client encoders/decoders and the coordinator's
/// DDPM backbone are trained jointly; every iteration exchanges forward
/// activations and gradients through the channel, so communication grows as
/// O(#iterations) — the contrast to SiloFuse's single round (Fig. 10).
class E2EDistrSynthesizer : public Synthesizer {
 public:
  E2EDistrSynthesizer(LatentDiffusionConfig base, PartitionConfig partition)
      : config_(std::move(base)), partition_config_(partition) {}

  Status Fit(const Table& data, Rng* rng) override;
  Result<Table> Synthesize(int num_rows, Rng* rng) override;
  std::string name() const override { return "E2EDistr"; }

  /// One joint iteration over a shared batch-row selection; returns
  /// (reconstruction, diffusion) losses. Every call performs one
  /// communication round: activations up, denoised slices down, head
  /// gradients up, latent gradients down. Every exchange is a reliable
  /// transfer; under an installed fault plan, exhausted retries or a silo
  /// vanishing mid-training surface as kUnavailable (split-learning model
  /// parallelism cannot degrade to K-of-M — every slice is load-bearing).
  /// Fit seals every network and drops the optimizer when training ends; a
  /// later call re-creates the optimizer (Adam moments from zero).
  Result<std::pair<double, double>> TrainIteration(
      const std::vector<int>& batch_rows, Rng* rng);

  /// Installs fault injection + reliability settings; call before Fit. The
  /// plan and clock are borrowed and must outlive this synthesizer.
  void set_fault(const FaultInjection& fault);

  const Channel& channel() const { return channel_; }
  Channel* mutable_channel() { return &channel_; }
  int num_clients() const { return static_cast<int>(clients_.size()); }

  /// Measured bytes for one training round (available after Fit).
  int64_t bytes_per_training_round() const { return bytes_per_round_; }

  /// Trace run id allocated by the last Fit (0 before any fit).
  uint32_t trace_run_id() const { return trace_run_id_; }

 private:
  LatentDiffusionConfig config_;
  PartitionConfig partition_config_;
  std::vector<std::vector<int>> partition_;
  std::vector<std::unique_ptr<SiloClient>> clients_;
  std::vector<Matrix> client_inputs_;  // pre-encoded features per client
  std::unique_ptr<GaussianDdpm> backbone_;
  std::unique_ptr<Adam> joint_optimizer_;  // created by TrainIteration
  Channel channel_;
  FaultyChannel wire_{&channel_};  // no fault plan until set_fault
  ReliableTransfer transfer_{&wire_};
  int64_t bytes_per_round_ = 0;
  uint32_t trace_run_id_ = 0;
  int32_t trace_round_ = 0;  // 1-based communication round within the run
  bool fitted_ = false;
};

}  // namespace silofuse

#endif  // SILOFUSE_DISTRIBUTED_E2E_DISTRIBUTED_H_
