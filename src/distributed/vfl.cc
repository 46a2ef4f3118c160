#include "distributed/vfl.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "data/split.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace silofuse {

Result<std::unique_ptr<VflClassifier>> VflClassifier::Create(
    const std::vector<Table>& parts, int num_classes, const VflConfig& config,
    Rng* rng) {
  if (parts.empty()) {
    return Status::InvalidArgument("VFL needs at least one client part");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("VFL needs num_classes >= 2");
  }
  const int rows = parts[0].num_rows();
  if (rows == 0) return Status::InvalidArgument("empty client parts");
  for (const Table& p : parts) {
    if (p.num_rows() != rows) {
      return Status::InvalidArgument("client parts are not row-aligned");
    }
  }
  auto model = std::unique_ptr<VflClassifier>(new VflClassifier());
  model->config_ = config;
  model->num_classes_ = num_classes;
  for (const Table& p : parts) {
    model->party_names_.push_back("client_" +
                                  std::to_string(model->encoders_.size()));
    model->client_schemas_.push_back(p.schema());
    MixedEncoder encoder;
    SF_RETURN_NOT_OK(encoder.Fit(p));
    auto tower = std::make_unique<Sequential>();
    tower->Emplace<Linear>(encoder.encoded_width(), config.client_hidden_dim,
                           rng);
    tower->Emplace<Gelu>();
    tower->Emplace<Linear>(config.client_hidden_dim, config.embedding_dim,
                           rng);
    model->feature_encoders_.push_back(std::move(encoder));
    model->encoders_.push_back(std::move(tower));
  }
  const int joint = config.embedding_dim * static_cast<int>(parts.size());
  model->server_head_.Emplace<Linear>(joint, config.server_hidden_dim, rng);
  model->server_head_.Emplace<Gelu>();
  model->server_head_.Emplace<Linear>(config.server_hidden_dim, num_classes,
                                      rng);
  return model;
}

Result<std::vector<Matrix>> VflClassifier::EncodeParts(
    const std::vector<Table>& parts) {
  if (static_cast<int>(parts.size()) != num_clients()) {
    return Status::InvalidArgument("part count does not match clients");
  }
  std::vector<Matrix> encoded;
  encoded.reserve(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    if (!(parts[i].schema() == client_schemas_[i])) {
      return Status::InvalidArgument("client part schema mismatch");
    }
    encoded.push_back(feature_encoders_[i].Encode(parts[i]));
  }
  const int rows = encoded[0].rows();
  for (const Matrix& m : encoded) {
    if (m.rows() != rows) {
      return Status::InvalidArgument("client parts are not row-aligned");
    }
  }
  return encoded;
}

Result<double> VflClassifier::Train(const std::vector<Table>& parts,
                                    const std::vector<double>& labels,
                                    Rng* rng) {
  SF_ASSIGN_OR_RETURN(std::vector<Matrix> encoded, EncodeParts(parts));
  const int rows = encoded[0].rows();
  if (static_cast<int>(labels.size()) != rows) {
    return Status::InvalidArgument("label count does not match rows");
  }
  Matrix one_hot(rows, num_classes_);
  for (int r = 0; r < rows; ++r) {
    const int label = static_cast<int>(std::lround(labels[r]));
    if (label < 0 || label >= num_classes_) {
      return Status::OutOfRange("label out of range at row " +
                                std::to_string(r));
    }
    one_hot.at(r, label) = 1.0f;
  }

  if (optimizer_ == nullptr) {
    // One logical optimizer over every client tower, then the server head;
    // parameters are disjoint per party, so this is equivalent to each
    // party running its own Adam.
    std::vector<Parameter*> params;
    for (auto& tower : encoders_) {
      for (Parameter* param : tower->Parameters()) params.push_back(param);
    }
    for (Parameter* param : server_head_.Parameters()) params.push_back(param);
    optimizer_ = std::make_unique<Adam>(std::move(params), config_.lr);
  }
  SF_TRACE_SPAN("vfl.train");
  obs::TrainLoopTelemetry telemetry("vfl.train",
                                    std::min(config_.batch_size, rows));
  telemetry.WatchHealth(optimizer_->params());
  const int e_dim = config_.embedding_dim;
  double running = 0.0;
  for (int s = 0; s < config_.train_steps; ++s) {
    SF_TRACE_SPAN("vfl.round");
    const std::vector<int> idx = SampleBatchIndices(
        rows, std::min(config_.batch_size, rows), rng);
    wire_.BeginRound();
    // Clients encode and ship embeddings.
    std::vector<Matrix> embeddings(encoders_.size());
    for (size_t i = 0; i < encoders_.size(); ++i) {
      SF_ASSIGN_OR_RETURN(
          embeddings[i],
          transfer_.SendMatrix(
              party_names_[i], "server",
              encoders_[i]->Forward(encoded[i].GatherRows(idx), rng),
              "vfl_embeddings"));
    }
    Matrix joint = Matrix::ConcatCols(embeddings);
    Matrix logits = server_head_.Forward(joint, rng);
    Matrix grad;
    const double loss =
        SoftmaxCrossEntropyLoss(logits, one_hot.GatherRows(idx), &grad);
    running = (s == 0) ? loss : 0.95 * running + 0.05 * loss;
    SF_RETURN_NOT_OK(telemetry.Step({{"loss", running}}));
    optimizer_->ZeroGrad();
    Matrix grad_joint = server_head_.Backward(grad);
    // Server ships each client its embedding gradient slice.
    for (size_t i = 0; i < encoders_.size(); ++i) {
      SF_ASSIGN_OR_RETURN(
          const Matrix grad_i,
          transfer_.SendMatrix(
              "server", party_names_[i],
              grad_joint.SliceCols(static_cast<int>(i) * e_dim, e_dim),
              "vfl_gradients"));
      encoders_[i]->Backward(grad_i);
    }
    optimizer_->ClipGradNorm(config_.grad_clip);
    optimizer_->Step();
  }
  for (auto& tower : encoders_) tower->Seal();
  server_head_.Seal();
  optimizer_.reset();
  return running;
}

Result<Matrix> VflClassifier::PredictProba(const std::vector<Table>& parts) {
  SF_TRACE_SPAN("vfl.predict");
  SF_ASSIGN_OR_RETURN(std::vector<Matrix> encoded, EncodeParts(parts));
  wire_.BeginRound();
  std::vector<Matrix> embeddings(encoders_.size());
  for (size_t i = 0; i < encoders_.size(); ++i) {
    SF_ASSIGN_OR_RETURN(
        embeddings[i],
        transfer_.SendMatrix(
            party_names_[i], "server",
            encoders_[i]->Forward(encoded[i], /*train_rng=*/nullptr),
            "vfl_embeddings"));
  }
  Matrix logits = server_head_.Forward(Matrix::ConcatCols(embeddings), nullptr);
  return SoftmaxRows(logits);
}

Result<std::vector<int>> VflClassifier::Predict(
    const std::vector<Table>& parts) {
  SF_ASSIGN_OR_RETURN(Matrix proba, PredictProba(parts));
  std::vector<int> out(proba.rows());
  for (int r = 0; r < proba.rows(); ++r) out[r] = proba.RowArgMax(r);
  return out;
}

}  // namespace silofuse
