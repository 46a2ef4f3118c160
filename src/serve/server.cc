#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace silofuse {
namespace serve {

SynthesisServer::SynthesisServer(ServeOptions options)
    : options_(options), cache_(options.cache) {
  if (options_.stream_chunk_rows < 1) options_.stream_chunk_rows = 1;
  if (options_.max_rows_per_request < 1) options_.max_rows_per_request = 1;
  if (!options_.flight_dump_dir.empty()) {
    obs::FlightRecorder::Global().SetDumpDir(options_.flight_dump_dir);
  }
  options_.enable_audit = EnvFlag("SILOFUSE_AUDIT", options_.enable_audit);
  if (const char* env = std::getenv("SILOFUSE_AUDIT_SEED");
      env != nullptr && *env != '\0') {
    options_.audit.seed = std::strtoull(env, nullptr, 0);
  }
  if (options_.flight_trigger_dedup_ns > 0) {
    obs::FlightRecorder::Global().SetTriggerDedup(
        options_.flight_trigger_dedup_ns, options_.clock);
  }
  if (options_.enable_audit) {
    auditor_ = std::make_unique<obs::QualityAuditor>(options_.audit,
                                                     options_.clock);
  }
  // SILOFUSE_INTROSPECT: a flag word forces the introspection plane on or
  // off, "auto" forces it on, and anything else is the port to bind it on.
  if (const char* env = std::getenv("SILOFUSE_INTROSPECT");
      env != nullptr && *env != '\0') {
    const std::optional<bool> flag = ParseFlag(env);
    options_.enable_introspection = flag.value_or(true);
    if (!flag.has_value() && std::strcmp(env, "auto") != 0) {
      options_.introspection_port = std::atoi(env);
    }
  }
  if (options_.enable_introspection) {
    obs::IntrospectionOptions io;
    io.port = options_.introspection_port;
    introspection_ = std::make_unique<obs::IntrospectionServer>(io);
    introspection_->SetStatuszHandler(
        [this] { return RenderStatusz(DebugSnapshot()); });
    if (Status s = introspection_->Start(); !s.ok()) {
      SF_LOG(Warning) << "introspection endpoint disabled: " << s.ToString();
      introspection_.reset();
    }
  }
  if (options_.enable_slo) {
    slo_ = std::make_unique<obs::SloMonitor>(options_.slo, options_.clock,
                                             "serve.slo");
    slo_->SetOnBreach([](const std::string& reason) {
      auto& flight = obs::FlightRecorder::Global();
      const int64_t now_ns = obs::TraceNowNs();
      flight.Record(obs::FlightPhase::kBreach, /*request_id=*/0,
                    /*batch_id=*/0, /*deployment=*/nullptr, /*rows=*/0,
                    now_ns, now_ns);
      // The whole point of the always-on recorder: the events leading up
      // to this breach are already in memory — snapshot them now.
      flight.DumpOnTrigger("slo_breach");
      static_cast<void>(reason);
    });
  }
}

Status SynthesisServer::RegisterDeployment(const std::string& name,
                                           const std::string& checkpoint_path) {
  // The deployment name becomes a metric segment (serve.deploy.<name>.*,
  // audit.<name>.*) and a Prometheus label value, so restrict it to the
  // charset the naming grammar reserves for the deployment position
  // (obs::MetricNameValid): [A-Za-z0-9_-], non-empty.
  if (name.empty()) {
    return Status::InvalidArgument("deployment name must be non-empty");
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          "deployment name must match [A-Za-z0-9_-]+ (it becomes a metric "
          "segment): " +
          name);
    }
  }
  return cache_.Register(name, checkpoint_path);
}

int SynthesisServer::IntrospectionPort() const {
  return introspection_ != nullptr ? introspection_->port() : -1;
}

int SynthesisServer::ActiveBatchers() const {
  std::lock_guard<std::mutex> lock(batchers_mu_);
  return static_cast<int>(batchers_.size());
}

ServerDebugSnapshot SynthesisServer::DebugSnapshot() {
  ServerDebugSnapshot snapshot;
  for (const std::string& name : cache_.Deployments()) {
    ServerDebugSnapshot::Deployment deployment;
    deployment.name = name;
    {
      std::lock_guard<std::mutex> lock(batchers_mu_);
      auto it = batchers_.find(name);
      if (it != batchers_.end()) deployment.queue_depth = it->second->QueueDepth();
    }
    snapshot.deployments.push_back(std::move(deployment));
  }
  snapshot.loaded_models = cache_.LoadedCount();
  snapshot.active_batchers = ActiveBatchers();
  snapshot.slo_enabled = slo_ != nullptr;
  if (slo_ != nullptr) snapshot.slo = slo_->Snapshot();
  snapshot.audit_enabled = auditor_ != nullptr;
  if (auditor_ != nullptr) snapshot.audit = auditor_->Snapshot();
  auto& flight = obs::FlightRecorder::Global();
  snapshot.recent_flight_dumps = flight.RecentDumps();
  snapshot.flight_events = flight.TotalRecorded();
  return snapshot;
}

namespace {

void RenderSloWindow(std::ostringstream& out, const char* label,
                     const obs::SloWindowStats& window) {
  out << "  " << label << ": total=" << window.total << " good=" << window.good
      << " rejected=" << window.rejected << " errors=" << window.errors
      << " bad_fraction=" << window.bad_fraction
      << " burn_rate=" << window.burn_rate << "\n";
}

}  // namespace

std::string RenderStatusz(const ServerDebugSnapshot& snapshot) {
  std::ostringstream out;
  out << "synthesis-server statusz\n";
  out << "deployments: " << snapshot.deployments.size() << "\n";
  for (const ServerDebugSnapshot::Deployment& deployment :
       snapshot.deployments) {
    out << "  " << deployment.name
        << ": queue_depth=" << deployment.queue_depth << "\n";
  }
  out << "loaded_models: " << snapshot.loaded_models << "\n";
  out << "active_batchers: " << snapshot.active_batchers << "\n";
  out << "slo: " << (snapshot.slo_enabled ? "enabled" : "disabled") << "\n";
  if (snapshot.slo_enabled) {
    out << "  breached: " << (snapshot.slo.breached ? 1 : 0) << "\n";
    out << "  breaches: " << snapshot.slo.breaches << "\n";
    out << "  total_requests: " << snapshot.slo.total_requests << "\n";
    RenderSloWindow(out, "short_window", snapshot.slo.short_window);
    RenderSloWindow(out, "long_window", snapshot.slo.long_window);
  }
  out << "audit: " << (snapshot.audit_enabled ? "enabled" : "disabled")
      << "\n";
  for (const obs::DeploymentAuditSnapshot& audit : snapshot.audit) {
    out << "  " << audit.deployment
        << ": reference=" << (audit.has_reference ? 1 : 0)
        << " observed_rows=" << audit.observed_rows
        << " audits=" << audit.audits << " bad_audits=" << audit.bad_audits
        << " degenerate=" << audit.degenerate
        << " breached=" << (audit.breached ? 1 : 0)
        << " breaches=" << audit.breaches << " burn=" << audit.burn_short
        << "/" << audit.burn_long << "\n";
    if (audit.audits > 0) {
      out << "    last: marginal_distance=" << audit.last.marginal_distance
          << " correlation_drift=" << audit.last.correlation_drift
          << " utility_proxy=" << audit.last.utility_proxy
          << " dcr_p5=" << audit.last.dcr_p5
          << " good=" << (audit.last.good ? 1 : 0);
      if (!audit.last.detail.empty()) out << " detail=" << audit.last.detail;
      out << "\n";
    }
  }
  out << "flight_events: " << snapshot.flight_events << "\n";
  out << "recent_flight_dumps: " << snapshot.recent_flight_dumps.size()
      << "\n";
  for (const std::string& dump : snapshot.recent_flight_dumps) {
    out << "  " << dump << "\n";
  }
  return out.str();
}

RequestBatcher* SynthesisServer::BatcherFor(const std::string& deployment) {
  std::lock_guard<std::mutex> lock(batchers_mu_);
  auto it = batchers_.find(deployment);
  if (it == batchers_.end()) {
    auto batcher = std::make_unique<RequestBatcher>(
        options_.batcher,
        [this, deployment](const std::vector<RequestBatcher::Request>& batch,
                           const SamplingParams& params, int64_t dispatch_ns) {
          return RunBatch(deployment, batch, params, dispatch_ns);
        });
    it = batchers_.emplace(deployment, std::move(batcher)).first;
  }
  return it->second.get();
}

Result<std::vector<Table>> SynthesisServer::RunBatch(
    const std::string& deployment,
    const std::vector<RequestBatcher::Request>& batch,
    const SamplingParams& params, int64_t dispatch_ns) {
  // The batcher installed the batch-scoped context (round = batch id, tag =
  // deployment) before calling in; spans and flight events key off it.
  const uint64_t batch_id =
      static_cast<uint64_t>(obs::CurrentTraceContext().round);
  const char* deployment_tag = obs::InternTraceString(deployment);
  obs::ContextSpan batch_span("serve.batch");
  int batch_rows = 0;
  for (const RequestBatcher::Request& request : batch) {
    batch_rows += request.rows;
  }

  const int64_t batch_start_ns = obs::TraceNowNs();
  std::shared_ptr<SiloFuse> model;
  {
    obs::ContextSpan cache_span("serve.cache_load");
    SF_ASSIGN_OR_RETURN(model, cache_.Get(deployment));
  }
  RecordPhase(obs::FlightPhase::kCacheLoad, /*request_id=*/0, batch_id,
              deployment_tag, batch_rows, batch_start_ns, obs::TraceNowNs());

  // One private noise stream per request: output i is byte-identical to a
  // solo request with the same seed regardless of batch composition.
  std::deque<Rng> rngs;
  std::vector<CoalescedRequest> coalesced;
  coalesced.reserve(batch.size());
  for (const RequestBatcher::Request& request : batch) {
    rngs.emplace_back(request.seed);
    coalesced.push_back({request.rows, &rngs.back()});
  }
  CoalescedTiming timing;
  Result<std::vector<Table>> result =
      model->SynthesizeCoalesced(coalesced, params, &timing);
  const int64_t done_ns = obs::TraceNowNs();
  if (!result.ok()) return result;

  // Phase accounting: the sample segment runs from the batcher's dispatch
  // stamp to the end of the shared denoising pass — deliberately including
  // the cache fetch and latent prep (serve.cache_load_ms above is the
  // finer-grained detail view) — and decode runs from there to `done_ns`,
  // where the caller's handoff opens. Adjacent phases share their boundary
  // stamps, so the phases sum to the request's latency exactly. Every
  // batch member observes the shared durations: each request really did
  // wait for the whole pass.
  const int64_t sample_end_ns =
      timing.sample_end_ns > 0 ? timing.sample_end_ns : done_ns;
  for (const RequestBatcher::Request& request : batch) {
    RecordPhase(obs::FlightPhase::kSample, request.request_id, batch_id,
                deployment_tag, request.rows, dispatch_ns, sample_end_ns);
    RecordPhase(obs::FlightPhase::kDecode, request.request_id, batch_id,
                deployment_tag, request.rows, sample_end_ns, done_ns);
    if (request.done_ns != nullptr) *request.done_ns = done_ns;
  }

  // Quality auditing taps the finished tables here, AFTER the results are
  // final: the auditor only ever copies rows into its reservoir, so served
  // bytes and the phase accounting above are identical audit on or off.
  if (auditor_ != nullptr) {
    bool fresh_model = false;
    {
      std::lock_guard<std::mutex> lock(audit_sources_mu_);
      const void*& source = audit_sources_[deployment];
      if (source != model.get()) {
        source = model.get();
        fresh_model = true;
      }
    }
    if (fresh_model) {
      // First batch on this checkpoint (cold load or hot reload): install
      // its training-time reference. Checkpoints without a ReferenceStats
      // section register empty stats, which the auditor reports as
      // "no reference" instead of scoring.
      auditor_->SetReference(deployment, model->reference_stats());
    }
    for (const Table& table : result.Value()) {
      auditor_->Observe(deployment, table);
    }
  }
  return result;
}

Result<Table> SynthesisServer::SynthesizeInternal(const ServeRequest& request,
                                                  const RowChunkSink* sink) {
  static obs::Counter* const requests =
      obs::MetricsRegistry::Global().GetCounter("serve.requests");
  requests->Increment();
  if (request.rows <= 0) {
    return Status::InvalidArgument("request rows must be positive");
  }
  if (request.rows > options_.max_rows_per_request) {
    return Status::InvalidArgument(
        "request rows " + std::to_string(request.rows) +
        " exceed max_rows_per_request " +
        std::to_string(options_.max_rows_per_request));
  }
  // Admission happens BEFORE BatcherFor: a batcher costs a worker thread
  // and a permanent map entry, so a stream of unknown (typo'd or hostile)
  // deployment names must bounce here instead of minting one per name.
  if (!cache_.Registered(request.deployment)) {
    return Status::NotFound("deployment '" + request.deployment +
                            "' is not registered");
  }
  // Resolve the schedule up front: batches may only merge requests with
  // identical params, and sentinels resolve to the SERVING defaults here
  // (25-step DDIM), not to the checkpoint's training schedule.
  RequestBatcher::Request order;
  order.rows = request.rows;
  order.seed = request.seed;
  order.params.steps = request.params.steps > 0 ? request.params.steps
                                                : options_.defaults.steps;
  order.params.eta =
      request.params.eta >= 0.0 ? request.params.eta : options_.defaults.eta;
  order.request_id = obs::NextTraceRunId();
  order.deployment = obs::InternTraceString(request.deployment);

  // Request-scoped ambient context on the caller thread; the batcher hands
  // an equivalent context (plus batch id) to the worker side, so both
  // halves of the request share run/tag identity in the exported trace.
  obs::TraceContext request_ctx;
  request_ctx.run_id = static_cast<uint32_t>(order.request_id);
  request_ctx.tag = order.deployment;
  obs::ScopedTraceContext request_scope(request_ctx);
  obs::ContextSpan request_span("serve.request");

  // Phase boundaries: the latency opens at the queue phase's submit stamp
  // and closes at the end of the last phase (handoff, or stream), so the
  // phases sum to it exactly.
  int64_t batch_done_ns = 0;
  order.submit_ns = obs::TraceNowNs();
  order.done_ns = &batch_done_ns;
  Result<Table> result = BatcherFor(request.deployment)->Submit(order);
  int64_t end_ns = obs::TraceNowNs();
  if (result.ok() && batch_done_ns > 0) {
    RecordPhase(obs::FlightPhase::kHandoff, order.request_id, /*batch_id=*/0,
                order.deployment, order.rows, batch_done_ns, end_ns);
  }
  Status stream_status = Status::OK();
  if (result.ok() && sink != nullptr) {
    obs::ContextSpan stream_span("serve.stream");
    const int64_t stream_start_ns = end_ns;
    const Table& table = result.Value();
    // Chunking applies to DELIVERY only: the decode itself must be whole-
    // request (the decoder consumes its rng span-major, so decoding row
    // chunks independently would change the bytes).
    for (int start = 0; start < table.num_rows();
         start += options_.stream_chunk_rows) {
      const int count =
          std::min(options_.stream_chunk_rows, table.num_rows() - start);
      stream_status = (*sink)(table.SliceRows(start, count));
      if (!stream_status.ok()) break;
    }
    end_ns = obs::TraceNowNs();
    RecordPhase(obs::FlightPhase::kStream, order.request_id, /*batch_id=*/0,
                order.deployment, table.num_rows(), stream_start_ns, end_ns);
  }

  // SLO filing: everything past validation counts. Backpressure sheds are
  // kRejected (they consume error budget but are not server faults);
  // batch failures and sink failures are kError.
  obs::SloOutcome outcome = obs::SloOutcome::kOk;
  if (!result.ok()) {
    outcome = result.status().code() == StatusCode::kUnavailable
                  ? obs::SloOutcome::kRejected
                  : obs::SloOutcome::kError;
  } else if (!stream_status.ok()) {
    outcome = obs::SloOutcome::kError;
  }
  RecordRequestEnd(order.deployment, result.ok() ? request.rows : 0,
                   order.submit_ns, end_ns, outcome, slo_.get());

  if (!stream_status.ok()) return stream_status;
  return result;
}

Result<Table> SynthesisServer::Synthesize(const ServeRequest& request) {
  return SynthesizeInternal(request, /*sink=*/nullptr);
}

Status SynthesisServer::SynthesizeStream(const ServeRequest& request,
                                         const RowChunkSink& sink) {
  Result<Table> result = SynthesizeInternal(request, &sink);
  if (!result.ok()) return result.status();
  return Status::OK();
}

}  // namespace serve
}  // namespace silofuse
