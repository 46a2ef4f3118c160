#include "core/silofuse.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>

#include "common/archive.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "tensor/mem_stats.h"

namespace silofuse {

namespace {

/// Remaps the surviving parts' original column indices onto a dense
/// 0..K-1 range (rank order), so after a silo drops the partition is again
/// a permutation of the synthesized columns and ReassembleColumns keeps
/// restoring the surviving columns in their original relative order.
std::vector<std::vector<int>> CompactPartition(
    const std::vector<std::vector<int>>& parts) {
  std::vector<int> flat;
  for (const auto& p : parts) flat.insert(flat.end(), p.begin(), p.end());
  std::sort(flat.begin(), flat.end());
  std::map<int, int> rank;
  for (size_t i = 0; i < flat.size(); ++i) rank[flat[i]] = static_cast<int>(i);
  std::vector<std::vector<int>> out = parts;
  for (auto& p : out) {
    for (int& c : p) c = rank.at(c);
  }
  return out;
}

}  // namespace

Status SiloFuse::Fit(const Table& data, Rng* rng) {
  SF_ASSIGN_OR_RETURN(auto partition,
                      PartitionColumns(data.num_columns(), options_.partition));
  std::vector<Table> parts;
  parts.reserve(partition.size());
  for (const auto& cols : partition) parts.push_back(data.SelectColumns(cols));
  return FitPartitioned(std::move(parts), std::move(partition), rng);
}

Status SiloFuse::FitPartitioned(std::vector<Table> parts,
                                std::vector<std::vector<int>> partition,
                                Rng* rng) {
  if (parts.empty()) return Status::InvalidArgument("no client feature sets");
  if (parts.size() != partition.size()) {
    return Status::InvalidArgument("parts/partition size mismatch");
  }
  const int rows = parts[0].num_rows();
  for (const Table& p : parts) {
    if (p.num_rows() != rows) {
      return Status::InvalidArgument(
          "client feature sets are not row-aligned (run PSI first)");
    }
  }
  channel_.Reset();
  channel_.SetClock(options_.fault.clock);
  partition_ = std::move(partition);
  clients_.clear();

  // One Fit = one trace run: everything recorded below (and during the
  // later synthesis of this deployment) carries this run id, across the
  // runtime pool and across the wire.
  trace_run_id_ = obs::NextTraceRunId();
  obs::TraceContext run_ctx;
  run_ctx.run_id = trace_run_id_;
  obs::ScopedTraceContext run_scope(run_ctx);
  obs::ContextSpan fit_span("silofuse.fit");
  const bool tracing = obs::TraceEnabled();

  const int num_clients = static_cast<int>(parts.size());
  AutoencoderConfig client_config = options_.base.autoencoder;
  client_config.hidden_dim = std::max(
      options_.min_client_hidden, client_config.hidden_dim / num_clients);

  // --- Algorithm 1, lines 1-7: local autoencoder training, in parallel ---
  for (int i = 0; i < num_clients; ++i) {
    Rng client_rng = rng->Fork();
    SF_ASSIGN_OR_RETURN(auto client,
                        SiloClient::Create(i, std::move(parts[i]),
                                           client_config, &client_rng));
    obs::TraceContext client_ctx = run_ctx;
    client_ctx.silo_id = i;
    obs::ScopedTraceContext client_scope(client_ctx);
    obs::ContextSpan train_span(
        "client.train_autoencoder",
        tracing ? obs::InternTraceString(client->party_name()) : nullptr);
    SF_ASSIGN_OR_RETURN(
        const double loss,
        client->TrainAutoencoder(options_.base.autoencoder_steps,
                                 options_.base.batch_size, &client_rng));
    SF_LOG(Debug) << "SiloFuse client " << i << " AE loss " << loss;
    clients_.push_back(std::move(client));
  }

  // --- Lines 8-10: the single communication round — latents to the
  // coordinator, Z = Z_1 || ... || Z_M, over checksummed retrying
  // transfers. A silo whose upload permanently fails (only possible under
  // a fault plan) is dropped when K-of-M degradation is configured.
  degraded_silos_.clear();
  FaultyChannel wire(&channel_, options_.fault.plan);
  ReliableTransfer transfer(&wire, options_.fault.retry, options_.fault.clock);
  obs::TraceContext round_ctx = run_ctx;
  round_ctx.round = 1;
  obs::ScopedTraceContext round_scope(round_ctx);
  wire.BeginRound();
  std::vector<Matrix> latents;
  std::vector<std::unique_ptr<SiloClient>> survivors;
  std::vector<std::vector<int>> surviving_partition;
  latents.reserve(clients_.size());
  for (size_t i = 0; i < clients_.size(); ++i) {
    SiloClient* client = clients_[i].get();
    obs::TraceContext silo_ctx = round_ctx;
    silo_ctx.silo_id = static_cast<int32_t>(i);
    obs::ScopedTraceContext silo_scope(silo_ctx);
    Result<Matrix> delivered = client->UploadLatents(&transfer);
    if (delivered.ok()) {
      latents.push_back(std::move(delivered).Value());
      survivors.push_back(std::move(clients_[i]));
      surviving_partition.push_back(partition_[i]);
      continue;
    }
    if (options_.min_clients <= 0) {
      return Status(delivered.status().code(),
                    "latent upload from " + client->party_name() +
                        " failed: " + delivered.status().message());
    }
    SF_LOG(Warning) << "SiloFuse degraded mode: dropping "
                    << client->party_name() << " ("
                    << delivered.status().ToString() << ")";
    degraded_silos_.push_back(client->id());
  }
  const int surviving = static_cast<int>(survivors.size());
  if (surviving < std::max(options_.min_clients, 1)) {
    return Status::Unavailable(
        "only " + std::to_string(surviving) + " of " +
        std::to_string(num_clients) +
        " silos completed the latent upload (min_clients=" +
        std::to_string(options_.min_clients) + ")");
  }
  clients_ = std::move(survivors);
  if (!degraded_silos_.empty()) {
    static obs::Counter* degraded_counter =
        obs::MetricsRegistry::Global().GetCounter("silofuse.degraded_silos");
    degraded_counter->Add(static_cast<int64_t>(degraded_silos_.size()));
    partition_ = CompactPartition(surviving_partition);
  }
  Matrix z = Matrix::ConcatCols(latents);

  // Reference statistics of the reassembled training table: the quality
  // probes score against them, and the checkpoint carries them so a serving
  // host can score live traffic without the training data. A private
  // fixed-seed Rng leaves the trajectory and the caller's rng untouched, and
  // the reassembled table is freed before the backbone trains.
  reference_stats_ = ReferenceStats{};
  if (options_.reference_stats_rows > 0) {
    std::vector<Table> feature_parts;
    feature_parts.reserve(clients_.size());
    for (auto& client : clients_) feature_parts.push_back(client->features());
    SF_ASSIGN_OR_RETURN(const Table training,
                        ReassembleColumns(feature_parts, partition_));
    Rng stats_rng(ReferenceStats::kCaptureSeed);
    reference_stats_ = ReferenceStats::Capture(
        training, options_.reference_stats_rows, &stats_rng);
  }

  // --- Lines 11-15: coordinator trains the diffusion backbone locally ---
  coordinator_ = std::make_unique<Coordinator>(options_.base.diffusion);
  Rng coord_rng = rng->Fork();

  // Optional mid-training quality probes: periodically run Algorithm 2
  // end-to-end (sample latents from the half-trained backbone, decode on
  // each surviving silo, reassemble) and score the result against the
  // reference statistics.
  obs::health::QualityProbe probe;
  probe.every_steps = options_.base.quality_probe_every;
  probe.reference = &reference_stats_;
  probe.synthesize = [this](int rows, Rng* probe_rng) -> Result<Table> {
    SF_ASSIGN_OR_RETURN(
        const Matrix z,
        coordinator_->SampleLatents(rows, options_.base.inference_steps,
                                    options_.base.sampling_eta, probe_rng));
    return DecodeAndReassemble(z, probe_rng);
  };
  {
    obs::ContextSpan coord_span(
        "coordinator.train_ddpm",
        tracing ? obs::InternTraceString("coordinator") : nullptr, run_ctx);
    SF_RETURN_NOT_OK(coordinator_->TrainOnLatents(
        z, options_.base.diffusion_train_steps, options_.base.batch_size,
        &coord_rng, std::move(probe)));
  }
  // Training freed its batches' temporaries in whichever order the pool's
  // timing gave; without the trim, the heap slack they left varied from
  // run to run, and synthesis's peak RSS with it (by ~0.5 MB at 4 silos).
  memstats::ReleaseFreeMemory();
  fitted_ = true;
  return Status::OK();
}

int SiloFuse::total_latent_dim() const {
  int total = 0;
  for (const auto& client : clients_) total += client->latent_dim();
  return total;
}

SamplingParams SiloFuse::Resolve(const SamplingParams& params) const {
  return {params.steps > 0 ? params.steps : options_.base.inference_steps,
          params.eta >= 0.0 ? params.eta : options_.base.sampling_eta};
}

Result<std::vector<Table>> SiloFuse::SynthesizePartitioned(
    int num_rows, Rng* rng, const SamplingParams& params) {
  if (!fitted_) return Status::FailedPrecondition("Fit SiloFuse first");
  if (num_rows <= 0) return Status::InvalidArgument("num_rows must be > 0");
  const SamplingParams sampling = Resolve(params);
  // Checkpoint-restored models never ran Fit in this process; give them a
  // fresh run id so their synthesis trace is still attributable.
  if (trace_run_id_ == 0) trace_run_id_ = obs::NextTraceRunId();
  channel_.SetClock(options_.fault.clock);
  obs::TraceContext run_ctx;
  run_ctx.run_id = trace_run_id_;
  obs::ScopedTraceContext run_scope(run_ctx);
  obs::ContextSpan synth_span("silofuse.synthesize");
  const bool tracing = obs::TraceEnabled();
  // Algorithm 2: coordinator samples noise and denoises...
  Matrix z;
  {
    obs::ContextSpan sample_span(
        "coordinator.sample_latents",
        tracing ? obs::InternTraceString("coordinator") : nullptr, run_ctx);
    SF_ASSIGN_OR_RETURN(z, coordinator_->SampleLatents(num_rows, sampling.steps,
                                                       sampling.eta, rng));
  }
  // ... partitions Z~ = Z~_1 || ... || Z~_M and ships each client its slice.
  FaultyChannel wire(&channel_, options_.fault.plan);
  ReliableTransfer transfer(&wire, options_.fault.retry, options_.fault.clock);
  obs::TraceContext round_ctx = run_ctx;
  round_ctx.round = 2;  // round 1 was the training-latent upload
  obs::ScopedTraceContext round_scope(round_ctx);
  wire.BeginRound();
  std::vector<Table> outputs;
  outputs.reserve(clients_.size());
  int offset = 0;
  int silo_index = 0;
  for (auto& client : clients_) {
    obs::TraceContext silo_ctx = round_ctx;
    silo_ctx.silo_id = silo_index++;
    obs::ScopedTraceContext silo_scope(silo_ctx);
    Matrix z_i = z.SliceCols(offset, client->latent_dim());
    offset += client->latent_dim();
    Result<Matrix> delivered =
        coordinator_->ShipLatentSlice(&transfer, client->party_name(), z_i);
    if (!delivered.ok()) {
      return Status(delivered.status().code(),
                    "synthetic latent delivery to " + client->party_name() +
                        " failed: " + delivered.status().message());
    }
    outputs.push_back(client->Decode(delivered.Value(), rng, /*sample=*/true));
  }
  return outputs;
}

Result<Table> SiloFuse::Synthesize(int num_rows, Rng* rng) {
  return Synthesize(num_rows, rng, SamplingParams{});
}

Result<Table> SiloFuse::Synthesize(int num_rows, Rng* rng,
                                   const SamplingParams& params) {
  SF_ASSIGN_OR_RETURN(auto parts,
                      SynthesizePartitioned(num_rows, rng, params));
  return ReassembleColumns(parts, partition_);
}

Result<std::vector<Table>> SiloFuse::SynthesizeCoalesced(
    const std::vector<CoalescedRequest>& requests,
    const SamplingParams& params, CoalescedTiming* timing) {
  if (!fitted_) return Status::FailedPrecondition("Fit SiloFuse first");
  if (requests.empty()) {
    return Status::InvalidArgument("no requests to coalesce");
  }
  std::vector<int> block_rows;
  std::vector<Rng*> rngs;
  block_rows.reserve(requests.size());
  rngs.reserve(requests.size());
  for (const CoalescedRequest& request : requests) {
    if (request.rows <= 0) {
      return Status::InvalidArgument("request rows must be > 0");
    }
    if (request.rng == nullptr) {
      return Status::InvalidArgument("request rng must not be null");
    }
    block_rows.push_back(request.rows);
    rngs.push_back(request.rng);
  }
  const SamplingParams sampling = Resolve(params);
  // Serving installs a batch-scoped ambient context (request/batch ids)
  // before calling in; only fall back to the model's own run id when no
  // caller context is present, so serve spans keep their request identity.
  obs::TraceContext run_ctx = obs::CurrentTraceContext();
  if (!run_ctx.set()) {
    if (trace_run_id_ == 0) trace_run_id_ = obs::NextTraceRunId();
    run_ctx.run_id = trace_run_id_;
  }
  obs::ScopedTraceContext run_scope(run_ctx);
  obs::ContextSpan synth_span("silofuse.synthesize_coalesced");
  if (timing != nullptr) timing->sample_start_ns = obs::TraceNowNs();
  // One shared denoising pass over every request's rows...
  SF_ASSIGN_OR_RETURN(Matrix z,
                      coordinator_->SampleLatentsCoalesced(
                          block_rows, rngs, sampling.steps, sampling.eta));
  if (timing != nullptr) timing->sample_end_ns = obs::TraceNowNs();
  // ... then per-request decoding: each request's slice goes through the
  // clients in the same order (and with the same rng) as its solo
  // Synthesize call, so decoder sampling draws line up exactly.
  std::vector<Table> outputs;
  outputs.reserve(requests.size());
  int row_offset = 0;
  for (const CoalescedRequest& request : requests) {
    SF_ASSIGN_OR_RETURN(
        Table table,
        DecodeAndReassemble(z.SliceRows(row_offset, request.rows),
                            request.rng));
    row_offset += request.rows;
    outputs.push_back(std::move(table));
  }
  return outputs;
}

Result<Table> SiloFuse::DecodeAndReassemble(const Matrix& z, Rng* rng) {
  std::vector<Table> decoded;
  decoded.reserve(clients_.size());
  int col_offset = 0;
  for (auto& client : clients_) {
    Matrix z_i = z.SliceCols(col_offset, client->latent_dim());
    col_offset += client->latent_dim();
    decoded.push_back(client->Decode(z_i, rng, /*sample=*/true));
  }
  return ReassembleColumns(decoded, partition_);
}

namespace {
constexpr char kCheckpointMagic[] = "SILOFUSE_CKPT_V1";
/// Optional trailing checkpoint section. Pre-ReferenceStats checkpoints end
/// right after the coordinator payload; readers detect the section by
/// peeking for more bytes, so both directions stay compatible (old readers
/// never look past the coordinator, new readers accept old files).
constexpr char kReferenceStatsMagic[] = "SILOFUSE_REFSTATS";
constexpr uint32_t kReferenceStatsVersion = 1;

/// Writes the file at `path` so that `path` only ever names a complete
/// file: `write` fills a temp file in the same directory, which is flushed,
/// fsync'd and then renamed over `path` (atomic on POSIX). A reader such as
/// a hot-reload poller therefore sees the old file or the new one, never a
/// half-written one. On any failure the temp file is removed and an
/// existing `path` is left untouched.
Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(BinaryWriter*)>& write) {
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(next_temp.fetch_add(1));
  const Status status = [&]() -> Status {
    {
      std::ofstream out(temp, std::ios::binary | std::ios::trunc);
      if (!out) return Status::IOError("cannot open '" + path + "' for writing");
      BinaryWriter writer(&out);
      SF_RETURN_NOT_OK(write(&writer));
      out.close();
      if (!writer.ok() || out.fail()) {
        return Status::IOError("write to '" + path + "' failed");
      }
    }
    const int fd = ::open(temp.c_str(), O_RDONLY);
    const bool synced = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!synced) return Status::IOError("cannot fsync '" + path + "'");
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
      return Status::IOError("cannot rename a temp file over '" + path + "'");
    }
    return Status::OK();
  }();
  if (!status.ok()) std::remove(temp.c_str());
  return status;
}
}  // namespace

Status SiloFuse::SaveCheckpoint(const std::string& path) {
  if (!fitted_) {
    return Status::FailedPrecondition("cannot checkpoint an unfitted model");
  }
  return WriteFileAtomically(path, [this](BinaryWriter* writer) -> Status {
    writer->WriteString(kCheckpointMagic);
    writer->WriteI32(options_.base.inference_steps);
    writer->WriteF64(options_.base.sampling_eta);
    writer->WriteU64(partition_.size());
    for (const auto& cols : partition_) {
      writer->WriteU64(cols.size());
      for (int c : cols) writer->WriteI32(c);
    }
    for (auto& client : clients_) client->autoencoder()->Save(writer);
    SF_RETURN_NOT_OK(coordinator_->Save(writer));
    if (!reference_stats_.empty()) {
      writer->WriteString(kReferenceStatsMagic);
      writer->WriteU32(kReferenceStatsVersion);
      reference_stats_.Save(writer);
    }
    return Status::OK();
  });
}

Result<std::unique_ptr<SiloFuse>> SiloFuse::LoadCheckpoint(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  BinaryReader reader(&in);
  SF_RETURN_NOT_OK(reader.ExpectTag(kCheckpointMagic));
  auto model = std::make_unique<SiloFuse>();
  SF_ASSIGN_OR_RETURN(model->options_.base.inference_steps, reader.ReadI32());
  SF_ASSIGN_OR_RETURN(model->options_.base.sampling_eta, reader.ReadF64());
  if (model->options_.base.inference_steps <= 0 ||
      !std::isfinite(model->options_.base.sampling_eta)) {
    return Status::IOError("corrupt sampling settings in checkpoint");
  }
  SF_ASSIGN_OR_RETURN(uint64_t num_clients, reader.ReadU64());
  if (num_clients == 0 || num_clients > 4096) {
    return Status::IOError("corrupt client count in checkpoint");
  }
  model->options_.partition.num_clients = static_cast<int>(num_clients);
  model->partition_.resize(num_clients);
  for (auto& cols : model->partition_) {
    SF_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
    if (count > kMaxArchiveVectorLength) {
      return Status::IOError("corrupt partition in checkpoint");
    }
    cols.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      SF_ASSIGN_OR_RETURN(cols[i], reader.ReadI32());
    }
  }
  for (uint64_t i = 0; i < num_clients; ++i) {
    SF_ASSIGN_OR_RETURN(auto autoencoder, TabularAutoencoder::LoadFrom(&reader));
    model->clients_.push_back(
        SiloClient::FromAutoencoder(static_cast<int>(i), std::move(autoencoder)));
  }
  SF_ASSIGN_OR_RETURN(model->coordinator_, Coordinator::LoadFrom(&reader));
  // Optional trailing ReferenceStats section: absent in pre-section
  // checkpoints (the stream ends here), present-and-versioned otherwise.
  in.peek();
  if (!in.eof()) {
    SF_RETURN_NOT_OK(reader.ExpectTag(kReferenceStatsMagic));
    SF_ASSIGN_OR_RETURN(const uint32_t version, reader.ReadU32());
    if (version != kReferenceStatsVersion) {
      return Status::IOError("unsupported reference-stats version " +
                             std::to_string(version));
    }
    SF_ASSIGN_OR_RETURN(model->reference_stats_, ReferenceStats::Load(&reader));
  }
  model->fitted_ = true;
  return model;
}

}  // namespace silofuse
