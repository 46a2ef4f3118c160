#ifndef SILOFUSE_MODELS_AUTOENCODER_H_
#define SILOFUSE_MODELS_AUTOENCODER_H_

#include <memory>
#include <vector>

#include "common/archive.h"
#include "common/result.h"
#include "common/rng.h"
#include "data/mixed_encoder.h"
#include "data/table.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "tensor/matrix.h"

namespace silofuse {

/// Hyperparameters for a client autoencoder (E_i, D_i).
struct AutoencoderConfig {
  /// Hidden width of the 3-layer MLPs (paper: 1024 centralized, split across
  /// clients; scaled for CPU).
  int hidden_dim = 128;
  /// Latent width s_i; 0 means "number of original columns", the paper's
  /// setting ("latent dimension is set to the number of original features
  /// before one-hot encoding").
  int latent_dim = 0;
  int num_layers = 3;
  float lr = 1e-3f;
  float grad_clip = 5.0f;
  float dropout = 0.0f;
};

/// Client-side tabular autoencoder: a GELU MLP encoder producing continuous
/// latents and a decoder with per-feature distribution heads — Gaussian
/// (mean, logvar) for numeric columns, multinomial logits for categorical
/// columns — trained with negative log-likelihood (Eq. 4).
class TabularAutoencoder {
 public:
  /// Fits preprocessing on `data` and initializes the networks.
  static Result<std::unique_ptr<TabularAutoencoder>> Create(
      const Table& data, const AutoencoderConfig& config, Rng* rng);

  /// One minibatch NLL update on pre-encoded inputs (dropout draws from
  /// `rng`); returns the loss.
  double TrainStep(const Matrix& x_encoded, Rng* rng);

  /// Convenience: trains for `steps` minibatches on `data` under the
  /// training-health watchdog; returns the final running loss, or
  /// kFailedPrecondition if the watchdog aborts (NaN loss/gradients or EMA
  /// divergence). `silo_id` >= 0 scopes health metrics and abort messages
  /// to the owning silo. Success leaves the networks sealed, as LoadFrom
  /// does.
  Result<double> Train(const Table& data, int steps, int batch_size, Rng* rng,
                       int silo_id = -1);

  /// Encodes a table into latents Z_i = E_i(X_i).
  Matrix EncodeTable(const Table& table) const;

  /// Decodes latents back into a table (X~_i = D_i(Z~_i)). When `sample` is
  /// true, categorical codes are drawn from the head's softmax and numeric
  /// values from the Gaussian head; otherwise argmax/mean are used.
  Table DecodeToTable(const Matrix& latents, Rng* rng, bool sample = true);

  /// --- Low-level interface used by the end-to-end baselines -------------

  /// Encoder forward (Module::Forward's `train_rng`); input must be the
  /// MixedEncoder encoding of this client's features.
  Matrix EncoderForward(const Matrix& x_encoded, Rng* train_rng);
  /// Backprop through the encoder; returns dLoss/dInput.
  Matrix EncoderBackward(const Matrix& grad_latent);
  /// Decoder forward up to the raw head outputs.
  Matrix DecoderForward(const Matrix& latents, Rng* train_rng);
  /// Backprop through the decoder; returns dLoss/dLatent.
  Matrix DecoderBackward(const Matrix& grad_heads);
  /// NLL of head outputs against encoded targets; fills dLoss/dHeads.
  double HeadLoss(const Matrix& head_outputs, const Matrix& x_target_encoded,
                  Matrix* grad_heads) const;
  /// Seals both networks and drops the Adam moments, as
  /// GaussianDdpm::PrepareForSampling does; a later TrainStep or training
  /// forward undoes it. Train and LoadFrom call it; the end-to-end
  /// baselines call it when their joint training ends.
  void PrepareForSampling();

  const MixedEncoder& mixed_encoder() const { return mixed_encoder_; }
  const Schema& schema() const { return mixed_encoder_.schema(); }
  int latent_dim() const { return latent_dim_; }
  int head_width() const { return head_width_; }
  std::vector<Parameter*> Parameters();
  int64_t parameter_count();

  /// Checkpoint support: Save serializes the config, fitted preprocessing
  /// and all weights; LoadFrom reconstructs a ready-to-use autoencoder with
  /// no training data (decode-only deployment after Algorithm 2).
  void Save(BinaryWriter* writer);
  static Result<std::unique_ptr<TabularAutoencoder>> LoadFrom(
      BinaryReader* reader);

 private:
  TabularAutoencoder() = default;

  /// Builds head_spans_/head_width_ from the fitted schema.
  void BuildHeadLayout();
  /// Builds encoder_/decoder_ (requires layout + latent_dim_).
  void BuildNetworks(Rng* rng);

  /// Assembles a MixedEncoder-layout feature matrix from raw head outputs
  /// (numeric mean [+ sampled noise], categorical logits).
  Matrix HeadsToEncodedLayout(const Matrix& head_outputs, Rng* rng,
                              bool sample) const;

  AutoencoderConfig config_;
  MixedEncoder mixed_encoder_;
  int latent_dim_ = 0;
  int head_width_ = 0;
  /// Head layout: per original column, offset into the decoder output.
  struct HeadSpan {
    int column = 0;
    int offset = 0;
    int width = 0;  // 2 for numeric (mean, logvar), K for categorical
    bool categorical = false;
  };
  std::vector<HeadSpan> head_spans_;
  Sequential encoder_;
  Sequential decoder_;
  std::unique_ptr<Adam> optimizer_;  // created by the first TrainStep
};

}  // namespace silofuse

#endif  // SILOFUSE_MODELS_AUTOENCODER_H_
