#include "models/autoencoder.h"

#include <cmath>

#include "data/split.h"
#include "nn/activations.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/matrix_io.h"

namespace silofuse {

void TabularAutoencoder::BuildHeadLayout() {
  // Head layout: (mean, logvar) per numeric column, K logits per
  // categorical column.
  const Schema& schema = mixed_encoder_.schema();
  head_spans_.clear();
  int offset = 0;
  for (int c = 0; c < schema.num_columns(); ++c) {
    const ColumnSpec& spec = schema.column(c);
    HeadSpan span;
    span.column = c;
    span.offset = offset;
    span.categorical = spec.is_categorical();
    span.width = spec.is_categorical() ? spec.cardinality : 2;
    offset += span.width;
    head_spans_.push_back(span);
  }
  head_width_ = offset;
}

void TabularAutoencoder::BuildNetworks(Rng* rng) {
  const int in_dim = mixed_encoder_.encoded_width();
  encoder_.Clear();
  decoder_.Clear();
  // Encoder/decoder: in -> hidden^(L-1) -> out, GELU between layers.
  auto build = [&](Sequential* net, int in, int out) {
    int cur = in;
    for (int l = 0; l < config_.num_layers - 1; ++l) {
      net->Emplace<Linear>(cur, config_.hidden_dim, rng);
      net->Emplace<Gelu>();
      if (config_.dropout > 0.0f) net->Emplace<Dropout>(config_.dropout);
      cur = config_.hidden_dim;
    }
    net->Emplace<Linear>(cur, out, rng);
  };
  build(&encoder_, in_dim, latent_dim_);
  build(&decoder_, latent_dim_, head_width_);
  PrefixParameterNames(encoder_.Parameters(), "encoder.");
  PrefixParameterNames(decoder_.Parameters(), "decoder.");
}

void TabularAutoencoder::PrepareForSampling() {
  encoder_.Seal();
  decoder_.Seal();
  optimizer_.reset();
}

Result<std::unique_ptr<TabularAutoencoder>> TabularAutoencoder::Create(
    const Table& data, const AutoencoderConfig& config, Rng* rng) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("autoencoder needs a non-empty table");
  }
  if (config.num_layers < 2) {
    return Status::InvalidArgument("autoencoder needs >= 2 layers");
  }
  auto ae = std::unique_ptr<TabularAutoencoder>(new TabularAutoencoder());
  ae->config_ = config;
  SF_RETURN_NOT_OK(ae->mixed_encoder_.Fit(data));
  ae->latent_dim_ =
      config.latent_dim > 0 ? config.latent_dim : data.num_columns();
  ae->BuildHeadLayout();
  ae->BuildNetworks(rng);
  return ae;
}

void TabularAutoencoder::Save(BinaryWriter* writer) {
  writer->WriteString("tabular_autoencoder");
  writer->WriteI32(config_.hidden_dim);
  writer->WriteI32(latent_dim_);
  writer->WriteI32(config_.num_layers);
  writer->WriteF32(config_.lr);
  writer->WriteF32(config_.grad_clip);
  writer->WriteF32(config_.dropout);
  mixed_encoder_.Save(writer);
  const std::vector<Parameter*> params = Parameters();
  writer->WriteU64(params.size());
  for (Parameter* p : params) SaveMatrix(writer, p->value);
}

Result<std::unique_ptr<TabularAutoencoder>> TabularAutoencoder::LoadFrom(
    BinaryReader* reader) {
  SF_RETURN_NOT_OK(reader->ExpectTag("tabular_autoencoder"));
  auto ae = std::unique_ptr<TabularAutoencoder>(new TabularAutoencoder());
  SF_ASSIGN_OR_RETURN(ae->config_.hidden_dim, reader->ReadI32());
  SF_ASSIGN_OR_RETURN(ae->latent_dim_, reader->ReadI32());
  ae->config_.latent_dim = ae->latent_dim_;
  SF_ASSIGN_OR_RETURN(ae->config_.num_layers, reader->ReadI32());
  SF_ASSIGN_OR_RETURN(ae->config_.lr, reader->ReadF32());
  SF_ASSIGN_OR_RETURN(ae->config_.grad_clip, reader->ReadF32());
  SF_ASSIGN_OR_RETURN(ae->config_.dropout, reader->ReadF32());
  SF_RETURN_NOT_OK(ae->mixed_encoder_.Load(reader));
  if (ae->config_.hidden_dim <= 0 || ae->latent_dim_ <= 0 ||
      ae->config_.num_layers < 2) {
    return Status::IOError("corrupt autoencoder config in archive");
  }
  ae->BuildHeadLayout();
  Rng init_rng(0);  // weights are overwritten below
  ae->BuildNetworks(&init_rng);
  std::vector<Parameter*> params = ae->Parameters();
  SF_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  if (count != params.size()) {
    return Status::IOError("autoencoder parameter count mismatch in archive");
  }
  for (Parameter* p : params) {
    SF_ASSIGN_OR_RETURN(Matrix value, LoadMatrix(reader));
    if (value.rows() != p->value.rows() || value.cols() != p->value.cols()) {
      return Status::IOError("autoencoder parameter shape mismatch");
    }
    p->value = std::move(value);
  }
  ae->PrepareForSampling();
  return ae;
}

std::vector<Parameter*> TabularAutoencoder::Parameters() {
  std::vector<Parameter*> params = encoder_.Parameters();
  for (Parameter* p : decoder_.Parameters()) params.push_back(p);
  return params;
}

int64_t TabularAutoencoder::parameter_count() {
  return encoder_.ParameterCount() + decoder_.ParameterCount();
}

Matrix TabularAutoencoder::EncoderForward(const Matrix& x_encoded,
                                          Rng* train_rng) {
  return encoder_.Forward(x_encoded, train_rng);
}

Matrix TabularAutoencoder::EncoderBackward(const Matrix& grad_latent) {
  return encoder_.Backward(grad_latent);
}

Matrix TabularAutoencoder::DecoderForward(const Matrix& latents,
                                          Rng* train_rng) {
  return decoder_.Forward(latents, train_rng);
}

Matrix TabularAutoencoder::DecoderBackward(const Matrix& grad_heads) {
  return decoder_.Backward(grad_heads);
}

double TabularAutoencoder::HeadLoss(const Matrix& head_outputs,
                                    const Matrix& x_target_encoded,
                                    Matrix* grad_heads) const {
  SF_CHECK_EQ(head_outputs.cols(), head_width_);
  SF_CHECK_EQ(x_target_encoded.cols(), mixed_encoder_.encoded_width());
  SF_CHECK_EQ(head_outputs.rows(), x_target_encoded.rows());
  *grad_heads = Matrix(head_outputs.rows(), head_width_);
  double total_loss = 0.0;
  int terms = 0;
  const auto& feature_spans = mixed_encoder_.spans();
  for (size_t i = 0; i < head_spans_.size(); ++i) {
    const HeadSpan& head = head_spans_[i];
    const FeatureSpan& feat = feature_spans[i];
    SF_CHECK_EQ(head.column, feat.column);
    if (head.categorical) {
      Matrix logits = head_outputs.SliceCols(head.offset, head.width);
      Matrix target = x_target_encoded.SliceCols(feat.offset, feat.width);
      Matrix grad;
      total_loss += SoftmaxCrossEntropyLoss(logits, target, &grad);
      for (int r = 0; r < grad.rows(); ++r) {
        float* dst = grad_heads->row_data(r) + head.offset;
        const float* src = grad.row_data(r);
        for (int k = 0; k < head.width; ++k) dst[k] = src[k];
      }
    } else {
      Matrix mean = head_outputs.SliceCols(head.offset, 1);
      Matrix logvar = head_outputs.SliceCols(head.offset + 1, 1);
      Matrix target = x_target_encoded.SliceCols(feat.offset, 1);
      Matrix grad_mean, grad_logvar;
      total_loss += GaussianNllLoss(mean, logvar, target, &grad_mean,
                                    &grad_logvar);
      for (int r = 0; r < grad_mean.rows(); ++r) {
        grad_heads->at(r, head.offset) = grad_mean.at(r, 0);
        grad_heads->at(r, head.offset + 1) = grad_logvar.at(r, 0);
      }
    }
    ++terms;
  }
  // Average so wide tables do not dwarf narrow ones.
  SF_CHECK_GT(terms, 0);
  grad_heads->ScaleInPlace(1.0f / static_cast<float>(terms));
  return total_loss / terms;
}

double TabularAutoencoder::TrainStep(const Matrix& x_encoded, Rng* rng) {
  SF_TRACE_SPAN("ae.train_step");
  Matrix latents = EncoderForward(x_encoded, rng);
  Matrix heads = DecoderForward(latents, rng);
  Matrix grad_heads;
  const double loss = HeadLoss(heads, x_encoded, &grad_heads);
  if (optimizer_ == nullptr) {
    optimizer_ = std::make_unique<Adam>(Parameters(), config_.lr);
  }
  optimizer_->ZeroGrad();
  Matrix grad_latent = DecoderBackward(grad_heads);
  EncoderBackward(grad_latent);
  const double grad_norm = optimizer_->ClipGradNorm(config_.grad_clip);
  optimizer_->Step();
  static obs::Gauge* loss_gauge =
      obs::MetricsRegistry::Global().GetGauge("ae.train.loss");
  static obs::Gauge* grad_norm_gauge =
      obs::MetricsRegistry::Global().GetGauge("ae.train.grad_norm");
  loss_gauge->Set(loss);
  grad_norm_gauge->Set(grad_norm);
  return loss;
}

Result<double> TabularAutoencoder::Train(const Table& data, int steps,
                                         int batch_size, Rng* rng,
                                         int silo_id) {
  SF_TRACE_SPAN("ae.train");
  SF_CHECK_GT(steps, 0);
  const Matrix all = mixed_encoder_.Encode(data);
  const int batch = std::min(batch_size, all.rows());
  obs::TrainLoopTelemetry telemetry("ae.train", batch);
  telemetry.WatchHealth(Parameters(), silo_id);
  double running = 0.0;
  for (int s = 0; s < steps; ++s) {
    const std::vector<int> idx = SampleBatchIndices(all.rows(), batch, rng);
    const double loss = TrainStep(all.GatherRows(idx), rng);
    // Seed the running EMA with the first loss: a 0-init EMA ramps up over
    // the first decades of steps, which the health watchdog would misread
    // as divergence.
    running = s == 0 ? loss : 0.95 * running + 0.05 * loss;
    SF_RETURN_NOT_OK(telemetry.Step({{"running_loss", running}}));
  }
  PrepareForSampling();
  return running;
}

Matrix TabularAutoencoder::EncodeTable(const Table& table) const {
  const Matrix x = mixed_encoder_.Encode(table);
  // Encoding is inference: const_cast is safe because Forward only mutates
  // layer caches, which the next Forward overwrites.
  auto* self = const_cast<TabularAutoencoder*>(this);
  return self->encoder_.Forward(x, /*train_rng=*/nullptr);
}

Matrix TabularAutoencoder::HeadsToEncodedLayout(const Matrix& head_outputs,
                                                Rng* rng, bool sample) const {
  const auto& feature_spans = mixed_encoder_.spans();
  Matrix encoded(head_outputs.rows(), mixed_encoder_.encoded_width());
  for (size_t i = 0; i < head_spans_.size(); ++i) {
    const HeadSpan& head = head_spans_[i];
    const FeatureSpan& feat = feature_spans[i];
    for (int r = 0; r < head_outputs.rows(); ++r) {
      const float* src = head_outputs.row_data(r) + head.offset;
      float* dst = encoded.row_data(r) + feat.offset;
      if (head.categorical) {
        for (int k = 0; k < head.width; ++k) dst[k] = src[k];
      } else {
        float v = src[0];
        if (sample) {
          const float logvar =
              std::max(-10.0f, std::min(10.0f, src[1]));
          v += static_cast<float>(rng->Normal(0.0, std::exp(0.5 * logvar)));
        }
        dst[0] = v;
      }
    }
  }
  return encoded;
}

Table TabularAutoencoder::DecodeToTable(const Matrix& latents, Rng* rng,
                                        bool sample) {
  SF_CHECK(rng != nullptr);
  Matrix heads = DecoderForward(latents, /*train_rng=*/nullptr);
  Matrix encoded = HeadsToEncodedLayout(heads, rng, sample);
  return sample ? mixed_encoder_.DecodeSampled(encoded, rng)
                : mixed_encoder_.Decode(encoded);
}

}  // namespace silofuse
