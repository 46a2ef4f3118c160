#ifndef SILOFUSE_DISTRIBUTED_VFL_H_
#define SILOFUSE_DISTRIBUTED_VFL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/mixed_encoder.h"
#include "distributed/channel.h"
#include "distributed/fault.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace silofuse {

/// Configuration of the split-learning classifier.
struct VflConfig {
  /// Per-client embedding width sent to the server each iteration.
  int embedding_dim = 8;
  int client_hidden_dim = 32;
  int server_hidden_dim = 64;
  int train_steps = 600;
  int batch_size = 128;
  float lr = 1e-3f;
  float grad_clip = 5.0f;
};

/// Vertical federated learning classifier (split learning à la Vepakomma et
/// al.): every client encodes its private feature slice into a small
/// embedding, the label-holding server concatenates the embeddings and runs
/// the classification head, and gradients flow back through the channel.
///
/// This realizes the paper's "first case" downstream path (Section IV-D):
/// when synthetic data stays vertically partitioned for stronger privacy,
/// parties can still fit joint models — at the price of per-iteration
/// communication, which the byte-metering channel quantifies.
class VflClassifier {
 public:
  /// Initializes client encoders on the (row-aligned) feature parts and the
  /// server head for `num_classes` labels.
  static Result<std::unique_ptr<VflClassifier>> Create(
      const std::vector<Table>& parts, int num_classes,
      const VflConfig& config, Rng* rng);

  /// Trains on the given parts/labels; labels[i] in [0, num_classes).
  /// Every step records one communication round (embeddings up, embedding
  /// gradients down). Returns the final running loss. Seals every network
  /// and drops the optimizer when training ends; a later call re-creates
  /// the optimizer (Adam moments from zero).
  Result<double> Train(const std::vector<Table>& parts,
                       const std::vector<double>& labels, Rng* rng);

  /// Predicts labels for row-aligned feature parts (one forward round of
  /// communication per call).
  Result<std::vector<int>> Predict(const std::vector<Table>& parts);

  /// Class probabilities (n x num_classes).
  Result<Matrix> PredictProba(const std::vector<Table>& parts);

  int num_clients() const { return static_cast<int>(encoders_.size()); }
  int num_classes() const { return num_classes_; }
  const Channel& channel() const { return channel_; }

 private:
  VflClassifier() = default;

  /// Encodes every part and checks row alignment.
  Result<std::vector<Matrix>> EncodeParts(const std::vector<Table>& parts);

  VflConfig config_;
  int num_classes_ = 0;
  std::vector<Schema> client_schemas_;
  std::vector<MixedEncoder> feature_encoders_;
  std::vector<std::unique_ptr<Sequential>> encoders_;  // client towers
  Sequential server_head_;
  std::unique_ptr<Adam> optimizer_;  // created by Train
  std::vector<std::string> party_names_;  // "client_<i>", one per tower
  Channel channel_;
  FaultyChannel wire_{&channel_};  // no fault plan: a transparent wire
  ReliableTransfer transfer_{&wire_};
};

}  // namespace silofuse

#endif  // SILOFUSE_DISTRIBUTED_VFL_H_
