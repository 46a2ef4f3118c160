#ifndef SILOFUSE_MODELS_GAN_H_
#define SILOFUSE_MODELS_GAN_H_

#include <memory>
#include <vector>

#include "data/mixed_encoder.h"
#include "models/synthesizer.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace silofuse {

/// Generator/discriminator backbone flavor (Section V-A baselines):
/// kLinear ~ CTGAN, kConv ~ CTAB-GAN's convolutional architecture mapped to
/// 1-D convolutions over the feature axis.
enum class GanBackbone { kLinear, kConv };

struct GanConfig {
  GanBackbone backbone = GanBackbone::kLinear;
  int noise_dim = 64;
  int hidden_dim = 128;
  int num_layers = 4;  // paper: "four convolutional or linear layers"
  float lr = 1e-3f;
  float leaky_slope = 0.2f;
  float grad_clip = 5.0f;
  int train_steps = 1200;  // generator+discriminator alternations
  int batch_size = 256;
};

/// Span-aware output head: tanh on numeric slots, softmax within each
/// categorical one-hot span. Keeps the generator's categorical output a
/// valid probability vector the discriminator (and decoder) can consume.
class TabularActivation : public Module {
 public:
  explicit TabularActivation(std::vector<FeatureSpan> spans)
      : spans_(std::move(spans)) {}

  const char* TypeName() const override { return "tabular_activation"; }

  Matrix Forward(const Matrix& input, Rng* train_rng) override;
  Matrix Backward(const Matrix& grad_output) override;
  void Seal() override { cached_output_ = Matrix(); }

 private:
  std::vector<FeatureSpan> spans_;
  Matrix cached_output_;
};

/// GAN tabular synthesizer: non-saturating BCE objective, LeakyReLU +
/// LayerNorm blocks, one-hot + minmax feature space.
class GanSynthesizer : public Synthesizer {
 public:
  explicit GanSynthesizer(GanConfig config = {}) : config_(std::move(config)) {}

  Status Fit(const Table& data, Rng* rng) override;
  Result<Table> Synthesize(int num_rows, Rng* rng) override;
  std::string name() const override {
    return config_.backbone == GanBackbone::kLinear ? "GAN(linear)"
                                                    : "GAN(conv)";
  }

  /// One alternation (discriminator step + generator step); returns
  /// (d_loss, g_loss). Exposed for tests. Fit seals both networks and drops
  /// the optimizers when training ends; a later call re-creates them.
  std::pair<double, double> TrainStep(const Matrix& real_batch, Rng* rng);

  const GanConfig& config() const { return config_; }

  /// Both networks' parameters, generator first. Exposed for tests.
  std::vector<Parameter*> Parameters();

 private:
  void BuildNetworks(int width, Rng* rng);

  GanConfig config_;
  MixedEncoder encoder_{NumericScaling::kMinMax};
  Sequential generator_;
  Sequential discriminator_;
  // Both created by the first TrainStep.
  std::unique_ptr<Adam> g_optimizer_;
  std::unique_ptr<Adam> d_optimizer_;
  bool fitted_ = false;
};

}  // namespace silofuse

#endif  // SILOFUSE_MODELS_GAN_H_
