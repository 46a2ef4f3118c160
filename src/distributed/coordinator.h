#ifndef SILOFUSE_DISTRIBUTED_COORDINATOR_H_
#define SILOFUSE_DISTRIBUTED_COORDINATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "diffusion/gaussian_ddpm.h"
#include "models/synthesizer.h"
#include "obs/health.h"

namespace silofuse {

class ReliableTransfer;

/// The coordinator/server holding the generative diffusion backbone G.
/// It only ever sees latent matrices — by Theorem 1 it cannot reconstruct
/// client features from them without the (private) decoders.
class Coordinator {
 public:
  /// `scope` names the loop's `<scope>.train.*`, `health.<scope>.train.*`
  /// and `quality.<scope>.*` metrics (LatentDiff uses "latentdiff").
  explicit Coordinator(const GaussianDdpmConfig& config,
                       std::string scope = "coordinator")
      : config_(config), scope_(std::move(scope)) {}

  std::string party_name() const { return "coordinator"; }

  /// Trains G on the concatenated latents Z = Z_1 || ... || Z_M
  /// (lines 10-15 of Algorithm 1). Latents are standardized internally.
  /// Runs under the training-health watchdog: a diverging or NaN-poisoned
  /// backbone aborts with kFailedPrecondition naming the offending layer
  /// and step. An optional quality probe periodically samples a latent
  /// batch from the partially trained backbone (probe.synthesize decodes
  /// it back to a table) and scores it against probe.reference, emitting a
  /// `quality.<scope>.*` metric time-series; the probe draws from its own
  /// fixed-seed Rng, so training is byte-identical with probes on. Ends
  /// with PrepareForSampling, the state LoadFrom gives.
  Status TrainOnLatents(const Matrix& latents, int steps, int batch_size,
                        Rng* rng,
                        obs::health::QualityProbe probe = {});

  /// Samples `num_rows` synthetic latents with `inference_steps` denoising
  /// steps (Algorithm 2, lines 3-4), de-standardized to the client scale.
  /// Non-positive rows or steps are kInvalidArgument.
  Result<Matrix> SampleLatents(int num_rows, int inference_steps, double eta,
                               Rng* rng);

  /// Coalesced form for the serving layer: one batched denoising pass over
  /// sum(block_rows) rows where block i draws noise only from rngs[i], so
  /// each block of the result is byte-identical to a solo
  /// SampleLatents(block_rows[i], ..., rngs[i]) call (de-standardization is
  /// elementwise and therefore row-stable too).
  Result<Matrix> SampleLatentsCoalesced(const std::vector<int>& block_rows,
                                        const std::vector<Rng*>& rngs,
                                        int inference_steps, double eta);

  /// Ships one client's synthetic latent slice over a reliable transfer;
  /// returns the slice as the client received it (bit-identical on
  /// success). kUnavailable signals exhausted retries or a down silo.
  Result<Matrix> ShipLatentSlice(ReliableTransfer* transfer,
                                 const std::string& to,
                                 const Matrix& slice) const;

  GaussianDdpm* ddpm() { return ddpm_.get(); }
  bool trained() const { return ddpm_ != nullptr; }

  /// Checkpoint support; only a trained coordinator can be saved.
  Status Save(BinaryWriter* writer);
  static Result<std::unique_ptr<Coordinator>> LoadFrom(BinaryReader* reader);

 private:
  GaussianDdpmConfig config_;
  std::string scope_;
  std::unique_ptr<GaussianDdpm> ddpm_;
  LatentStandardizer standardizer_;
};

}  // namespace silofuse

#endif  // SILOFUSE_DISTRIBUTED_COORDINATOR_H_
