#ifndef SILOFUSE_SERVE_SERVER_H_
#define SILOFUSE_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "data/table.h"
#include "obs/expose.h"
#include "obs/quality_audit.h"
#include "obs/slo.h"
#include "serve/batcher.h"
#include "serve/model_cache.h"

namespace silofuse {
namespace serve {

/// One synthesis order against a hosted deployment.
struct ServeRequest {
  std::string deployment;
  int rows = 0;
  /// Seeds the request's private noise stream. Two requests with the same
  /// (deployment, rows, seed, params) get byte-identical tables no matter
  /// what else is in flight.
  uint64_t seed = 0;
  /// Per-request schedule override; sentinel fields (steps <= 0, eta < 0)
  /// fall back to ServeOptions::defaults, NOT to the checkpoint's training
  /// configuration.
  SamplingParams params;
};

struct ServeOptions {
  ModelCacheOptions cache;
  BatcherOptions batcher;
  /// Serving-path schedule for requests that do not override it: few-step
  /// deterministic DDIM (the paper's 25-step inference setting, eta = 0).
  SamplingParams defaults{/*steps=*/25, /*eta=*/0.0};
  /// SynthesizeStream delivers the result in chunks of at most this many
  /// rows.
  int stream_chunk_rows = 256;
  /// Admission control: reject single requests larger than this outright.
  int max_rows_per_request = 65536;
  /// SLO monitoring (obs/slo.h): when enabled, every request that passes
  /// validation is filed into an SloMonitor publishing serve.slo.* gauges;
  /// entering breach triggers a flight-recorder dump ("slo_breach").
  bool enable_slo = false;
  obs::SloOptions slo;
  /// Time source for the SLO monitor's rolling windows, audit pacing and
  /// quality-breach windows, and the flight-recorder trigger dedup (tests
  /// inject a VirtualClock to script breaches deterministically); nullptr =
  /// system.
  Clock* clock = nullptr;
  /// Non-empty: forwarded to FlightRecorder::Global().SetDumpDir at
  /// construction, so breach/abort dumps have somewhere to land.
  std::string flight_dump_dir;
  /// Online synthesis-quality auditing (obs/quality_audit.h): decoded
  /// result rows are reservoir-sampled per deployment off the request path
  /// and scored against the checkpoint's training-time ReferenceStats,
  /// publishing audit.<deployment>.* gauges and firing a flight-recorder
  /// dump ("quality_breach") on sustained quality breaches. Env override:
  /// SILOFUSE_AUDIT=1/0 (or on/off, true/false, yes/no) forces it on/off,
  /// SILOFUSE_AUDIT_SEED reseeds the sampling streams.
  bool enable_audit = false;
  obs::QualityAuditOptions audit;
  /// > 0 arms FlightRecorder trigger dedup with this window, so an SLO
  /// breach and a quality breach tripping on the same incident write one
  /// dump, not two (the second is counted as flight.dump_skipped).
  int64_t flight_trigger_dedup_ns = 0;
  /// Live introspection plane (obs/expose.h): when enabled the server
  /// starts an embedded loopback HTTP endpoint serving /metrics (Prometheus
  /// text exposition), /varz (metrics JSON), /healthz, and /statusz (the
  /// rendered DebugSnapshot). Windowed rates are the client's job: sf_top
  /// differences consecutive scrapes. Scrapes only READ process state; the
  /// serving data plane never waits on the endpoint. Env override:
  /// SILOFUSE_INTROSPECT=<port> forces it on at that port ("auto" or an on
  /// word — 1/on/true/yes — keeps introspection_port; an off word —
  /// 0/off/false/no — forces it off).
  bool enable_introspection = false;
  /// TCP port for the endpoint; 0 = ephemeral (read back with
  /// IntrospectionPort()).
  int introspection_port = 0;
};

/// Point-in-time operational state of one SynthesisServer, for debug
/// endpoints and sf_report --serve.
struct ServerDebugSnapshot {
  struct Deployment {
    std::string name;
    int queue_depth = -1;  // -1 = no batcher yet (never served)
  };
  std::vector<Deployment> deployments;
  int loaded_models = 0;
  int active_batchers = 0;
  bool slo_enabled = false;
  obs::SloSnapshot slo;  // zeroed when disabled
  bool audit_enabled = false;
  std::vector<obs::DeploymentAuditSnapshot> audit;  // empty when disabled
  std::vector<std::string> recent_flight_dumps;     // oldest first
  int64_t flight_events = 0;                        // process-wide total
};

/// Renders a ServerDebugSnapshot as the plain-text /statusz payload: one
/// "key: value" line per snapshot field, deployments/audit as indented
/// blocks. Deterministic — a quiesced server's /statusz is byte-identical
/// to rendering its DebugSnapshot() directly (serve_test pins this).
std::string RenderStatusz(const ServerDebugSnapshot& snapshot);

/// Multi-tenant synthesis-as-a-service front end.
///
/// Hosts decode-only SiloFuse deployments (SiloFuse::LoadCheckpoint) behind
/// an LRU ModelCache with checkpoint hot-reload, coalescing concurrent
/// requests per deployment through a RequestBatcher into single batched
/// few-step sampling passes (SiloFuse::SynthesizeCoalesced). The model is
/// fetched from the cache once per batch, so a hot-reloaded checkpoint
/// takes effect at the next batch boundary while in-flight batches drain on
/// the shared_ptr they already hold.
///
/// Thread-safe: any number of threads may call Synthesize concurrently.
///
/// Metrics: counters serve.requests, serve.rows, serve.rejected,
/// serve.errors; histogram serve.request_latency_ms decomposed by the
/// phase histograms serve.queue_ms + serve.linger_ms + serve.sample_ms +
/// serve.decode_ms + serve.handoff_ms + serve.stream_ms (cache fetch detail
/// in serve.cache_load_ms — the fetch itself is part of the sample
/// segment), all written by RecordPhase/RecordRequestEnd with
/// per-deployment copies under serve.deploy.<name>.*. Adjacent phases share
/// their boundary stamps, so a request's phases (and its flight events)
/// sum to its latency exactly; serve.batch.* / serve.cache.* from the batcher
/// and cache; serve.slo.* when SLO monitoring is enabled. Every request is
/// also traced (serve.request/serve.dispatch/serve.batch spans with flow
/// arrows) and recorded in the always-on flight recorder
/// (obs/flight_recorder.h) under a per-request id.
class SynthesisServer {
 public:
  explicit SynthesisServer(ServeOptions options = {});

  SynthesisServer(const SynthesisServer&) = delete;
  SynthesisServer& operator=(const SynthesisServer&) = delete;

  /// Makes `checkpoint_path` servable as deployment `name`. Loading is
  /// lazy (first request) and re-registering swaps the path.
  Status RegisterDeployment(const std::string& name,
                            const std::string& checkpoint_path);

  /// Serves one request: validates, enqueues into the deployment's batcher,
  /// waits for its coalesced pass, returns the full table. kUnavailable
  /// under backpressure; kNotFound for unknown deployments, rejected
  /// before any per-deployment batcher state is created.
  Result<Table> Synthesize(const ServeRequest& request);

  /// Receives consecutive row chunks of one response, in order. A non-OK
  /// return aborts delivery and surfaces from SynthesizeStream.
  using RowChunkSink = std::function<Status(const Table& chunk)>;

  /// Streaming variant: same sampling path, but the response is delivered
  /// through `sink` in chunks of at most options().stream_chunk_rows rows,
  /// so callers can forward rows without holding a second full copy.
  Status SynthesizeStream(const ServeRequest& request,
                          const RowChunkSink& sink);

  ModelCache* cache() { return &cache_; }
  const ServeOptions& options() const { return options_; }

  /// Number of per-deployment batchers (worker threads) currently alive.
  /// At most one per registered deployment that has served traffic.
  int ActiveBatchers() const;

  /// Operational state for debug endpoints / sf_report --serve.
  ServerDebugSnapshot DebugSnapshot();

  /// The SLO monitor, or nullptr when ServeOptions::enable_slo is false.
  obs::SloMonitor* slo() { return slo_.get(); }

  /// The quality auditor, or nullptr when ServeOptions::enable_audit is
  /// false (after env overrides). Tests and sf_report call RunOnce() on it
  /// to force a scoring sweep.
  obs::QualityAuditor* auditor() { return auditor_.get(); }

  /// The introspection endpoint's bound port, or -1 when introspection is
  /// off (after env overrides) or the port could not be bound.
  int IntrospectionPort() const;

 private:
  /// Lazily creates the deployment's batcher (whose batch function samples
  /// through the cache). Only reached for registered deployments —
  /// Synthesize validates against the cache first.
  RequestBatcher* BatcherFor(const std::string& deployment);

  /// Shared request path: validate, enqueue, wait; a non-null `sink`
  /// additionally streams the finished table in chunks (the stream phase)
  /// before the request's latency is observed, so streamed requests pay
  /// their delivery time inside serve.request_latency_ms.
  Result<Table> SynthesizeInternal(const ServeRequest& request,
                                   const RowChunkSink* sink);

  /// One coalesced pass for `deployment`: cache fetch + SynthesizeCoalesced.
  /// Its sample phase opens at the batcher's `dispatch_ns`.
  Result<std::vector<Table>> RunBatch(
      const std::string& deployment,
      const std::vector<RequestBatcher::Request>& batch,
      const SamplingParams& params, int64_t dispatch_ns);

  ServeOptions options_;
  ModelCache cache_;
  std::unique_ptr<obs::SloMonitor> slo_;  // null unless enable_slo
  // Null unless auditing is enabled. Declared before batchers_ so batcher
  // workers can still Observe() into it while they drain.
  std::unique_ptr<obs::QualityAuditor> auditor_;
  // Model identity last registered with the auditor per deployment, so a
  // hot reload re-captures the new checkpoint's reference stats.
  std::mutex audit_sources_mu_;
  std::map<std::string, const void*> audit_sources_;
  mutable std::mutex batchers_mu_;
  // Destroyed before cache_ (reverse member order): batcher workers may
  // still be sampling on cached models during their drain.
  std::map<std::string, std::unique_ptr<RequestBatcher>> batchers_;
  // Declared last so the introspection plane is destroyed FIRST: the
  // acceptor must stop calling DebugSnapshot() before the members it reads
  // start tearing down.
  std::unique_ptr<obs::IntrospectionServer> introspection_;  // null unless on
};

}  // namespace serve
}  // namespace silofuse

#endif  // SILOFUSE_SERVE_SERVER_H_
