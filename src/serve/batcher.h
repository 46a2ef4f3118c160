#ifndef SILOFUSE_SERVE_BATCHER_H_
#define SILOFUSE_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/silofuse.h"
#include "data/table.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"

namespace silofuse {
namespace serve {

/// Shared bucket bounds (milliseconds) for the serve.*_ms phase histograms
/// (queue/linger/cache_load/sample/decode/handoff/stream). Sub-millisecond
/// buckets matter here: a healthy queue wait is tens of microseconds.
inline std::vector<double> ServePhaseBoundsMs() {
  return {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
          2.5,  5,     10,   25,  50,  100, 250, 1000};
}

/// Records one timed serving phase, [start_ns, end_ns] on the trace clock,
/// in its three views: histogram serve.<phase>_ms (FlightPhaseName(phase) +
/// "_ms", ServePhaseBoundsMs), its copy serve.deploy.<deployment>.<phase>_ms
/// (none for a null deployment), and the flight event. `phase` is one of
/// the timed phases: queue, linger, cache_load, sample, decode, handoff,
/// stream. `request_id` 0 marks a batch-scoped phase (cache_load),
/// `batch_id` 0 a caller-side one (handoff, stream). `deployment` must be
/// interned (obs::InternTraceString) or a literal.
void RecordPhase(obs::FlightPhase phase, uint64_t request_id,
                 uint64_t batch_id, const char* deployment, int32_t rows,
                 int64_t start_ns, int64_t end_ns);

/// Closes one admitted request: serve.request_latency_ms and its
/// serve.deploy.<deployment>.* copy observe end_ns - submit_ns, counter
/// serve.rows adds `rows` (0 when no table was produced), serve.errors
/// counts a kError outcome, and a non-null `slo` files latency and outcome.
void RecordRequestEnd(const char* deployment, int rows, int64_t submit_ns,
                      int64_t end_ns, obs::SloOutcome outcome,
                      obs::SloMonitor* slo);

struct BatcherOptions {
  /// Coalesce at most this many requests into one sampling pass.
  int max_batch_requests = 16;
  /// ... or until the batch reaches this many output rows, whichever first.
  int max_batch_rows = 4096;
  /// After the first request of a batch arrives, wait up to this long for
  /// more arrivals before dispatching (latency the slowest request pays to
  /// let the fastest share its denoising pass). 0 dispatches immediately.
  int64_t max_linger_us = 2000;
  /// Admission control: SubmitAsync rejects with kUnavailable when this many
  /// requests are already queued (bounded-queue backpressure).
  int max_queue_depth = 64;
  /// False = manual mode for deterministic tests: no worker thread is
  /// started and the owner drives dispatch via RunOnce().
  bool start_worker = true;
};

/// Coalesces concurrent synthesis requests for ONE deployment into batched
/// sampling passes.
///
/// Requests are served FIFO. A dispatch takes the longest front run of
/// queued requests that share SamplingParams (different schedules cannot
/// share a denoising pass), capped by max_batch_requests/max_batch_rows,
/// and hands it to the batch function — which is expected to produce, for
/// each member, exactly the bytes a solo request with the same seed would
/// get (SiloFuse::SynthesizeCoalesced's contract). A failed batch fails
/// every member with the batch's status; later queued requests are
/// unaffected.
///
/// Histograms serve.batch.requests / serve.batch.rows record realized batch
/// shapes and counter serve.rejected counts admission-control rejections,
/// both aggregated across every batcher (deployment) in the process. Gauge
/// serve.queue_depth is likewise the TOTAL pending count across all live
/// batchers: each batcher publishes deltas of its own queue size and
/// withdraws its contribution on destruction, so concurrent batchers never
/// clobber each other's share.
///
/// Phase attribution: every request's time before its batch function runs
/// is split into the queue phase (waiting for the worker to be free) and
/// the linger phase (the deliberate wait for co-batchable arrivals), each
/// recorded through RecordPhase, plus instant flight events kEnqueue and
/// kReject, and a batch-scoped
/// TraceContext (run = first request id, round = batch id, tag =
/// deployment) installed around the batch function so downstream spans and
/// flight events share ids with the enqueue side.
class RequestBatcher {
 public:
  /// One caller's order: `rows` synthetic rows from a deployment-scoped
  /// deterministic stream keyed by `seed`.
  struct Request {
    int rows = 0;
    uint64_t seed = 0;
    SamplingParams params;
    /// Telemetry identity (0 / nullptr = untracked): `request_id` names
    /// this request in flight-recorder events and trace flow arrows;
    /// `deployment` must be interned (InternTraceString) or a literal.
    uint64_t request_id = 0;
    const char* deployment = nullptr;
    /// Phase clock (trace epoch, ns), for callers that time the whole
    /// request path. `submit_ns` opens the queue phase; a caller stamps it
    /// before submitting so its latency shares that boundary (0 =
    /// SubmitAsync stamps it). A non-null `done_ns` is where the batch
    /// function stamps the end of its work for this request, which opens
    /// the handoff back to the waiting caller.
    int64_t submit_ns = 0;
    int64_t* done_ns = nullptr;
  };

  /// Runs one coalesced pass over `batch` (all members share `params`) and
  /// returns one table per member, in order. Called on the worker thread
  /// (or inside RunOnce) with no batcher lock held. `dispatch_ns` is the
  /// stamp that closed every member's linger phase; the batch function's
  /// own phases open there.
  using BatchFn = std::function<Result<std::vector<Table>>(
      const std::vector<Request>& batch, const SamplingParams& params,
      int64_t dispatch_ns)>;

  RequestBatcher(BatcherOptions options, BatchFn batch_fn);
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Enqueues a request. Returns the future that will carry its table, or
  /// kUnavailable immediately when the queue is full (the caller should
  /// shed load / retry with backoff).
  Result<std::future<Result<Table>>> SubmitAsync(Request request);

  /// SubmitAsync + wait: the synchronous serving call.
  Result<Table> Submit(Request request);

  /// Manual mode: dispatches one batch from the queue front on the calling
  /// thread (no linger). Returns the number of requests served, 0 when the
  /// queue is empty. Must not race a started worker.
  int RunOnce();

  /// Pending (not yet dispatched) requests.
  int QueueDepth() const;

 private:
  struct Pending {
    Request request;
    std::promise<Result<Table>> promise;
  };

  /// Pops the next batch (front run with equal params, size-capped) off the
  /// queue. Caller holds mu_. Empty when the queue is empty.
  std::vector<Pending> NextBatchLocked();

  /// Folds the change in this batcher's queue size into the process-wide
  /// serve.queue_depth gauge (sum over all batchers). Caller holds mu_.
  void PublishQueueDepthLocked();

  /// Runs `batch` through batch_fn_ and fulfills its promises. No lock.
  /// `wake_ns` is when the worker first saw work for this batch (the
  /// queue/linger boundary); per-member queue_ms = wake - submit and
  /// linger_ms = dispatch - max(submit, wake), so the two sum exactly to
  /// the member's pre-dispatch wait.
  void Dispatch(std::vector<Pending> batch, int64_t wake_ns);

  void WorkerLoop();

  BatcherOptions options_;
  BatchFn batch_fn_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // worker wakeup: arrival or stop
  std::deque<Pending> queue_;
  int64_t published_queue_depth_ = 0;  // this batcher's share of the gauge
  bool stop_ = false;
  std::thread worker_;  // joinable only when options_.start_worker
};

}  // namespace serve
}  // namespace silofuse

#endif  // SILOFUSE_SERVE_BATCHER_H_
