#include "serve/batcher.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace silofuse {
namespace serve {

namespace {

struct BatcherMetrics {
  obs::Counter* rejected;
  obs::Gauge* queue_depth;
  obs::Histogram* batch_requests;
  obs::Histogram* batch_rows;
};

const BatcherMetrics& Metrics() {
  static const BatcherMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    BatcherMetrics m;
    m.rejected = registry.GetCounter("serve.rejected");
    m.queue_depth = registry.GetGauge("serve.queue_depth");
    m.batch_requests = registry.GetHistogram(
        "serve.batch.requests", {1, 2, 4, 8, 16, 32, 64});
    m.batch_rows = registry.GetHistogram(
        "serve.batch.rows", {16, 64, 256, 1024, 4096, 16384});
    return m;
  }();
  return metrics;
}

/// The timed serving phases, in request order.
constexpr obs::FlightPhase kTimedPhases[] = {
    obs::FlightPhase::kQueue,  obs::FlightPhase::kLinger,
    obs::FlightPhase::kCacheLoad, obs::FlightPhase::kSample,
    obs::FlightPhase::kDecode, obs::FlightPhase::kHandoff,
    obs::FlightPhase::kStream};

/// The serving histograms of one scope: the process ("serve") or one
/// deployment ("serve.deploy.<d>").
struct PhaseTable {
  obs::Histogram* request_latency_ms = nullptr;
  std::array<obs::Histogram*, 16> phase_ms{};  // by FlightPhase value
};

PhaseTable MakePhaseTable(const std::string& prefix) {
  auto& registry = obs::MetricsRegistry::Global();
  PhaseTable table;
  table.request_latency_ms = registry.GetHistogram(
      prefix + ".request_latency_ms",
      {0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000});
  for (obs::FlightPhase phase : kTimedPhases) {
    // "serve.<phase>" names the flight event; its histogram is
    // <prefix>.<phase>_ms.
    const std::string_view name = obs::FlightPhaseName(phase);
    table.phase_ms.at(static_cast<size_t>(phase)) = registry.GetHistogram(
        prefix + std::string(name.substr(name.find('.'))) + "_ms",
        ServePhaseBoundsMs());
  }
  return table;
}

const PhaseTable& ProcessPhases() {
  static const PhaseTable table = MakePhaseTable("serve");
  return table;
}

/// One deployment's table, cached by interned pointer (each distinct
/// deployment string interns to one stable pointer, so the hot path is one
/// map lookup under a small mutex, no string building). Null for a null
/// deployment.
const PhaseTable* DeploymentPhases(const char* deployment) {
  if (deployment == nullptr) return nullptr;
  static std::mutex mu;
  static auto* cache = new std::map<const char*, PhaseTable>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(deployment);
  if (it == cache->end()) {
    it = cache
             ->emplace(deployment, MakePhaseTable(std::string("serve.deploy.") +
                                                  deployment))
             .first;
  }
  return &it->second;
}

std::atomic<uint32_t> g_next_batch_id{0};

bool SameParams(const SamplingParams& a, const SamplingParams& b) {
  return a.steps == b.steps && a.eta == b.eta;
}

// The server runs one batcher per deployment but serve.queue_depth is a
// single gauge, so each batcher publishes the DELTA of its own queue size
// against this process-wide total instead of Set()ing its size directly —
// otherwise concurrent batchers would overwrite each other and a dying
// batcher would zero out its siblings' contributions. Two racing Set()s
// may momentarily publish totals out of order; the gauge is last-write-
// wins and converges as soon as the queues go quiet.
std::atomic<int64_t> g_queue_depth_total{0};

}  // namespace

void RecordPhase(obs::FlightPhase phase, uint64_t request_id,
                 uint64_t batch_id, const char* deployment, int32_t rows,
                 int64_t start_ns, int64_t end_ns) {
  const size_t slot = static_cast<size_t>(phase);
  SF_DCHECK(slot < ProcessPhases().phase_ms.size() &&
            ProcessPhases().phase_ms[slot] != nullptr)
      << "not a timed phase: " << obs::FlightPhaseName(phase);
  const double ms =
      static_cast<double>(std::max<int64_t>(0, end_ns - start_ns)) / 1e6;
  ProcessPhases().phase_ms[slot]->Observe(ms);
  if (const PhaseTable* deploy = DeploymentPhases(deployment)) {
    deploy->phase_ms[slot]->Observe(ms);
  }
  obs::FlightRecorder::Global().Record(phase, request_id, batch_id,
                                       deployment, rows, start_ns, end_ns);
}

void RecordRequestEnd(const char* deployment, int rows, int64_t submit_ns,
                      int64_t end_ns, obs::SloOutcome outcome,
                      obs::SloMonitor* slo) {
  static obs::Counter* const rows_served =
      obs::MetricsRegistry::Global().GetCounter("serve.rows");
  static obs::Counter* const errors =
      obs::MetricsRegistry::Global().GetCounter("serve.errors");
  const double latency_ms = static_cast<double>(end_ns - submit_ns) / 1e6;
  ProcessPhases().request_latency_ms->Observe(latency_ms);
  if (const PhaseTable* deploy = DeploymentPhases(deployment)) {
    deploy->request_latency_ms->Observe(latency_ms);
  }
  if (rows > 0) rows_served->Add(rows);
  if (outcome == obs::SloOutcome::kError) errors->Increment();
  if (slo != nullptr) slo->Record(latency_ms, outcome);
}

RequestBatcher::RequestBatcher(BatcherOptions options, BatchFn batch_fn)
    : options_(options), batch_fn_(std::move(batch_fn)) {
  if (options_.max_batch_requests < 1) options_.max_batch_requests = 1;
  if (options_.max_batch_rows < 1) options_.max_batch_rows = 1;
  if (options_.max_queue_depth < 1) options_.max_queue_depth = 1;
  if (options_.start_worker) {
    worker_ = std::thread([this] { WorkerLoop(); });
  }
}

RequestBatcher::~RequestBatcher() {
  std::deque<Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    if (!options_.start_worker) {
      orphans.swap(queue_);
      PublishQueueDepthLocked();  // withdraw ONLY this batcher's share
    }
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) worker_.join();  // worker drains the queue first
  for (Pending& pending : orphans) {
    pending.promise.set_value(
        Status::Unavailable("batcher destroyed before dispatch"));
  }
}

void RequestBatcher::PublishQueueDepthLocked() {
  const int64_t depth = static_cast<int64_t>(queue_.size());
  const int64_t delta = depth - published_queue_depth_;
  if (delta == 0) return;
  published_queue_depth_ = depth;
  const int64_t total =
      g_queue_depth_total.fetch_add(delta, std::memory_order_relaxed) + delta;
  Metrics().queue_depth->Set(static_cast<double>(total));
}

Result<std::future<Result<Table>>> RequestBatcher::SubmitAsync(
    Request request) {
  if (request.rows <= 0) {
    return Status::InvalidArgument("request rows must be positive");
  }
  if (request.submit_ns == 0) request.submit_ns = obs::TraceNowNs();
  const int64_t submit_ns = request.submit_ns;
  Pending pending;
  pending.request = request;
  std::future<Result<Table>> future = pending.promise.get_future();
  auto& flight = obs::FlightRecorder::Global();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return Status::Unavailable("batcher is shutting down");
    if (static_cast<int>(queue_.size()) >= options_.max_queue_depth) {
      Metrics().rejected->Increment();
      flight.Record(obs::FlightPhase::kReject, request.request_id,
                    /*batch_id=*/0, request.deployment, request.rows,
                    submit_ns, submit_ns);
      return Status::Unavailable(
          "serving queue is full (depth " + std::to_string(queue_.size()) +
          "); retry with backoff");
    }
    queue_.push_back(std::move(pending));
    PublishQueueDepthLocked();
  }
  flight.Record(obs::FlightPhase::kEnqueue, request.request_id,
                /*batch_id=*/0, request.deployment, request.rows, submit_ns,
                submit_ns);
  // Trace-side flow start: the matching finish is recorded inside the
  // dispatch span on the worker thread, so the viewer draws an arrow from
  // the caller's submit into the batch that served it.
  if (request.request_id != 0) {
    obs::RecordTransferFlow("serve.request", request.request_id,
                            /*start=*/true);
  }
  queue_cv_.notify_one();
  return future;
}

Result<Table> RequestBatcher::Submit(Request request) {
  SF_ASSIGN_OR_RETURN(std::future<Result<Table>> future,
                      SubmitAsync(request));
  return future.get();
}

int RequestBatcher::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

std::vector<RequestBatcher::Pending> RequestBatcher::NextBatchLocked() {
  std::vector<Pending> batch;
  int rows = 0;
  while (!queue_.empty() &&
         static_cast<int>(batch.size()) < options_.max_batch_requests) {
    Pending& front = queue_.front();
    if (!batch.empty() &&
        (!SameParams(front.request.params, batch.front().request.params) ||
         rows + front.request.rows > options_.max_batch_rows)) {
      break;
    }
    rows += front.request.rows;
    batch.push_back(std::move(front));
    queue_.pop_front();
  }
  PublishQueueDepthLocked();
  return batch;
}

void RequestBatcher::Dispatch(std::vector<Pending> batch, int64_t wake_ns) {
  if (batch.empty()) return;
  const int64_t dispatch_ns = obs::TraceNowNs();
  const uint32_t batch_id =
      g_next_batch_id.fetch_add(1, std::memory_order_relaxed) + 1;
  const BatcherMetrics& metrics = Metrics();
  std::vector<Request> requests;
  requests.reserve(batch.size());
  int rows = 0;
  for (const Pending& pending : batch) {
    const Request& request = pending.request;
    requests.push_back(request);
    rows += request.rows;
    // Queue = submit until the worker first saw work for this batch;
    // linger = the rest of the wait. A request that arrived mid-linger has
    // zero queue time, and the two always sum to dispatch - submit.
    const int64_t queue_end = std::max(request.submit_ns, wake_ns);
    RecordPhase(obs::FlightPhase::kQueue, request.request_id, batch_id,
                request.deployment, request.rows, request.submit_ns,
                queue_end);
    RecordPhase(obs::FlightPhase::kLinger, request.request_id, batch_id,
                request.deployment, request.rows, queue_end, dispatch_ns);
  }
  metrics.batch_requests->Observe(static_cast<double>(batch.size()));
  metrics.batch_rows->Observe(static_cast<double>(rows));
  // Batch-scoped ambient context: downstream spans (cache load, sampling,
  // decode) and flight events read the batch id out of `round` and the
  // deployment out of `tag`; the run id names the batch's first request so
  // the exported trace groups the whole pass under one run.
  obs::TraceContext batch_ctx;
  batch_ctx.run_id = static_cast<uint32_t>(requests.front().request_id);
  batch_ctx.round = static_cast<int32_t>(batch_id);
  batch_ctx.tag = requests.front().deployment;
  obs::ScopedTraceContext batch_scope(batch_ctx);
  Result<std::vector<Table>> result = [&] {
    obs::ContextSpan dispatch_span("serve.dispatch");
    // Trace-side flow finish for every member, bound to the dispatch span.
    for (const Request& request : requests) {
      if (request.request_id != 0) {
        obs::RecordTransferFlow("serve.request", request.request_id,
                                /*start=*/false);
      }
    }
    return batch_fn_(requests, requests.front().params, dispatch_ns);
  }();
  if (!result.ok()) {
    for (Pending& pending : batch) pending.promise.set_value(result.status());
    return;
  }
  std::vector<Table>& tables = result.Value();
  if (tables.size() != batch.size()) {
    Status mismatch = Status::Internal(
        "batch function returned " + std::to_string(tables.size()) +
        " tables for " + std::to_string(batch.size()) + " requests");
    for (Pending& pending : batch) pending.promise.set_value(mismatch);
    return;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(tables[i]));
  }
}

int RequestBatcher::RunOnce() {
  const int64_t wake_ns = obs::TraceNowNs();
  std::vector<Pending> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch = NextBatchLocked();
  }
  const int served = static_cast<int>(batch.size());
  Dispatch(std::move(batch), wake_ns);
  return served;
}

void RequestBatcher::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    int64_t wake_ns = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      wake_ns = obs::TraceNowNs();
      if (options_.max_linger_us > 0) {
        // Linger: give concurrent callers a window to join this batch. Wake
        // early once the batch caps are reachable from the front run alone
        // (conservative check: total queued requests/rows hit the caps).
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(options_.max_linger_us);
        queue_cv_.wait_until(lock, deadline, [this] {
          if (stop_) return true;
          if (static_cast<int>(queue_.size()) >= options_.max_batch_requests)
            return true;
          int rows = 0;
          for (const Pending& pending : queue_) rows += pending.request.rows;
          return rows >= options_.max_batch_rows;
        });
        if (queue_.empty()) return;
      }
      batch = NextBatchLocked();
    }
    Dispatch(std::move(batch), wake_ns);
  }
}

}  // namespace serve
}  // namespace silofuse
