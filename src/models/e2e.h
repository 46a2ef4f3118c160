#ifndef SILOFUSE_MODELS_E2E_H_
#define SILOFUSE_MODELS_E2E_H_

#include <memory>
#include <vector>

#include "diffusion/gaussian_ddpm.h"
#include "models/autoencoder.h"
#include "models/latent_diffusion.h"
#include "models/synthesizer.h"
#include "nn/optimizer.h"

namespace silofuse {

/// E2E: the centralized end-to-end latent diffusion baseline of Fig. 8.
/// Unlike LatentDiff's stacked two-step training, the autoencoder and the
/// DDPM backbone are optimized jointly on the combined loss
/// L = L_AE(D(G(F(E(x), t))), x) + L_G (Eq. 4 + Eq. 5): every iteration
/// backpropagates through decoder, backbone and encoder.
class E2ESynthesizer : public Synthesizer {
 public:
  explicit E2ESynthesizer(LatentDiffusionConfig config = {})
      : config_(std::move(config)) {}

  Status Fit(const Table& data, Rng* rng) override;
  Result<Table> Synthesize(int num_rows, Rng* rng) override;
  std::string name() const override { return "E2E"; }

  /// One joint minibatch update; returns (reconstruction, diffusion) losses.
  /// Fit seals both networks and drops the optimizer when training ends; a
  /// later call re-creates the optimizer (Adam moments from zero).
  std::pair<double, double> TrainStep(const Matrix& x_encoded, Rng* rng);

  const LatentDiffusionConfig& config() const { return config_; }

 private:
  /// Autoencoder parameters, then the backbone's: the optimizer's order.
  std::vector<Parameter*> JointParameters();

  LatentDiffusionConfig config_;
  std::unique_ptr<TabularAutoencoder> autoencoder_;
  std::unique_ptr<GaussianDdpm> diffusion_;
  std::unique_ptr<Adam> joint_optimizer_;  // created by the first TrainStep
  bool fitted_ = false;
};

}  // namespace silofuse

#endif  // SILOFUSE_MODELS_E2E_H_
