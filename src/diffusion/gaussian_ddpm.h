#ifndef SILOFUSE_DIFFUSION_GAUSSIAN_DDPM_H_
#define SILOFUSE_DIFFUSION_GAUSSIAN_DDPM_H_

#include <memory>
#include <vector>

#include "common/archive.h"
#include "common/rng.h"
#include "diffusion/schedule.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/matrix.h"

namespace silofuse {

/// What the denoiser network predicts.
enum class DiffusionPrediction {
  kEpsilon,  // the added base noise (Ho et al., Eq. 2)
  kX0,       // the clean sample directly (the Eq. 5 view of the paper)
};

/// Hyperparameters of the Gaussian DDPM backbone G.
struct GaussianDdpmConfig {
  int data_dim = 0;
  int num_timesteps = 200;  // paper: "a maximum of 200 timesteps"
  ScheduleType schedule = ScheduleType::kLinear;
  DiffusionPrediction predict = DiffusionPrediction::kEpsilon;
  int time_embed_dim = 32;
  int hidden_dim = 128;
  int num_layers = 8;  // paper: "bilinear model comprising eight layers"
  float dropout = 0.01f;
  float lr = 1e-3f;
  float grad_clip = 5.0f;
};

/// Denoising diffusion probabilistic model over continuous feature vectors.
///
/// This is the generative backbone G of SiloFuse/LatentDiff: an MLP with
/// GELU activations and sinusoidal timestep conditioning, trained with the
/// MSE objective (Eq. 2 / Eq. 5) and sampled with strided ancestral
/// (DDIM-eta) steps ("training 200 timesteps, inference over 25 steps").
class GaussianDdpm {
 public:
  GaussianDdpm(const GaussianDdpmConfig& config, Rng* rng);

  /// One minibatch update on clean vectors `z0`; returns the loss.
  double TrainStep(const Matrix& z0, Rng* rng);

  /// Generates `n` samples with `steps` inference timesteps.
  /// eta=1 reproduces ancestral DDPM sampling; eta=0 is deterministic DDIM.
  Matrix Sample(int n, int steps, Rng* rng, double eta = 1.0);

  /// Coalesced sampling for request batching (src/serve): one denoising
  /// pass over sum(block_rows) rows where row block i consumes noise
  /// exclusively from rngs[i], in the same draw order as a solo
  /// Sample(block_rows[i], steps, rngs[i], eta) call. Because every kernel
  /// on the sampling path computes each output row from that row alone
  /// (GEMM rows, elementwise maps, per-row DDIM updates), block i of the
  /// result is byte-identical to its solo run while sharing every backbone
  /// forward pass with the rest of the batch.
  ///
  /// Each denoising step is one parallel region over row tiles of
  /// kSampleTileRows rows: a tile runs the backbone and its DDIM update
  /// serially, with its activations cache-resident. Tiles depend only on
  /// the batch size, and rows never mix, so the bytes are those of one
  /// whole-batch pass at any thread count. A batch of at most one tile runs
  /// inline, where the backbone's kernels may still fan out.
  ///
  /// With eta > 0, step i + 1's noise is drawn as one extra item of step
  /// i's region, beside its tiles (after the tile, in a one-tile pass). The
  /// draw alone touches the Rngs during the pass, in the serial order, so
  /// the noise values and each Rng's final state equal those of a serial
  /// sampler that draws every step's noise before the step.
  Matrix SampleCoalesced(const std::vector<int>& block_rows,
                         const std::vector<Rng*>& rngs, int steps, double eta);

  /// Rows per sampling tile. 64 was the fastest of 64/128/256 on the 8x256
  /// serving denoiser (4 threads) and tied at width 128: a tile's widest
  /// activation is 64 KB, so one tile's whole backbone stays in L2.
  static constexpr int kSampleTileRows = 64;

  /// Forward (noising) process of Eq. (1): F(z0, t, eps). `t` is per-row.
  Matrix ForwardProcess(const Matrix& z0, const std::vector<int>& t,
                        const Matrix& eps) const;

  /// Runs the backbone on noisy inputs at per-row timesteps; returns the
  /// raw prediction (eps or x0 per config); `train_rng` as in
  /// Module::Forward. Exposed for the end-to-end baselines, which backprop
  /// through the backbone.
  Matrix ForwardBackbone(const Matrix& z_t, const std::vector<int>& t,
                         Rng* train_rng);

  /// Backprop through the last ForwardBackbone; returns dLoss/dZ_t
  /// (timestep-embedding gradient is dropped).
  Matrix BackwardBackbone(const Matrix& grad_prediction);

  std::vector<Parameter*> Parameters() {
    std::vector<Parameter*> params = backbone_.Parameters();
    for (Parameter* p : skip_->Parameters()) params.push_back(p);
    return params;
  }
  /// Checkpoint support: serializes the config and all weights; LoadFrom
  /// reconstructs a model ready to sample, PrepareForSampling applied.
  void Save(BinaryWriter* writer);
  static Result<std::unique_ptr<GaussianDdpm>> LoadFrom(BinaryReader* reader);

  /// Call when the weights become fixed (end of training, checkpoint
  /// load): Module::Seal packs every Linear, so sampling skips the per-call
  /// repack with unchanged bytes, and drops the grads; the Adam moments go
  /// too. A later TrainStep re-creates that state (the moments from zero).
  /// Sampling only reads the packs, so concurrent Sample calls stay
  /// race-free.
  void PrepareForSampling();

  const GaussianDdpmConfig& config() const { return config_; }
  const VarianceSchedule& schedule() const { return schedule_; }

 private:
  GaussianDdpmConfig config_;
  VarianceSchedule schedule_;
  Sequential backbone_;
  std::unique_ptr<Linear> skip_;  // direct z_t -> prediction path
  std::unique_ptr<Adam> optimizer_;  // created by the first TrainStep
};

}  // namespace silofuse

#endif  // SILOFUSE_DIFFUSION_GAUSSIAN_DDPM_H_
