#ifndef SILOFUSE_OBS_FLIGHT_RECORDER_H_
#define SILOFUSE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"

namespace silofuse {
namespace obs {

/// Lifecycle phase of one serving-path event. Values are stable (they are
/// packed into ring slots and named in dumps); append only.
enum class FlightPhase : uint8_t {
  kNone = 0,
  kCacheLoad = 1,  // checkpoint fetch/restore for a batch's deployment
  kEnqueue = 2,    // instant: request admitted into a batcher queue
  kQueue = 3,      // waiting for the batcher worker to be free
  kLinger = 4,     // deliberate wait for co-batchable arrivals
  kSample = 5,     // batched few-step DDIM denoising pass
  kDecode = 6,     // per-request latent decode + reassembly
  kStream = 7,     // chunked delivery to the caller's sink
  kReject = 8,         // instant: admission control shed this request
  kBreach = 9,         // instant: SLO monitor entered breach
  kQualityBreach = 10,  // instant: quality auditor entered breach
  kHandoff = 11,        // end of decode until the caller holds its table
};

/// Stable lower-case name ("serve.queue", "serve.sample", ...) for dump/span
/// labels; serve::RecordPhase derives each timed phase's histogram from it.
const char* FlightPhaseName(FlightPhase phase);

/// One recorded event, decoded out of a ring slot.
struct FlightEvent {
  uint64_t request_id = 0;  // 0 = not request-scoped (e.g. cache load)
  uint64_t batch_id = 0;    // 0 = not batch-scoped
  int64_t start_ns = 0;     // trace epoch (obs::TraceNowNs)
  int64_t end_ns = 0;
  const char* deployment = nullptr;  // interned, may be null
  FlightPhase phase = FlightPhase::kNone;
  int32_t rows = 0;
  int tid = 0;  // small per-thread id, matches ring registration order
};

/// Always-on, lock-free flight recorder for the serving path.
///
/// Each recording thread owns a fixed-size ring of cache-line-sized slots;
/// Record() is wait-free (a handful of relaxed atomic stores plus one
/// release fence per event) and never allocates after the thread's first
/// event, so it stays enabled in production: when a request blows its SLO
/// or a watchdog aborts the process, the last ~4K events per thread are
/// already in memory waiting to be dumped. Readers (Snapshot/Dump) validate
/// each slot against a per-slot sequence number and simply skip slots that
/// a writer is overwriting mid-read — a dump never blocks serving.
///
/// Timestamps share the trace epoch (obs::TraceNowNs), so a flight dump
/// loaded next to an SF_TRACE export lines up on the same timeline.
class FlightRecorder {
 public:
  /// Slots per thread ring (power of two). ~4K events x 64B = 256 KiB per
  /// recording thread; at 7 events/request that is the last ~585 requests.
  static constexpr size_t kRingSlots = 4096;

  /// Process-wide instance. Enabled by default; SILOFUSE_FLIGHT=0 (or
  /// off/false/no) disables, SILOFUSE_FLIGHT_DIR presets the dump directory.
  static FlightRecorder& Global();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Records one event into the calling thread's ring. Wait-free; drops
  /// nothing (the ring overwrites oldest). `deployment` must be interned
  /// (InternTraceString) or a string literal; rows saturate at 2^24 - 1.
  void Record(FlightPhase phase, uint64_t request_id, uint64_t batch_id,
              const char* deployment, int32_t rows, int64_t start_ns,
              int64_t end_ns);

  /// Consistent copies of every currently-stable slot, oldest first by
  /// start time. Slots being overwritten concurrently are skipped.
  std::vector<FlightEvent> Snapshot() const;

  /// Writes the snapshot as Chrome/Perfetto trace-event JSON: one "X" slice
  /// per event (phase name, request/batch/deployment args) and "s"/"f" flow
  /// points linking each request's consecutive phases, so the viewer draws
  /// one arrow chain per request across threads.
  Status WriteJson(const std::string& path) const;

  /// Directory Dump() writes into ("" = dumping disabled). Overrides the
  /// SILOFUSE_FLIGHT_DIR initial value.
  void SetDumpDir(const std::string& dir);
  std::string dump_dir() const;

  /// Writes flight_<reason>_<pid>_<n>.json into dump_dir() and returns the
  /// path. kFailedPrecondition when no dump dir is configured.
  Result<std::string> Dump(const std::string& reason);

  /// Trigger hook for SLO breaches, quality breaches and watchdog aborts:
  /// Dump() when a dump dir is configured, otherwise a counted no-op. Never
  /// fails the caller; bumps counter flight.dumps (or flight.dump_failures)
  /// either way. With trigger dedup armed (SetTriggerDedup), at most one
  /// dump is written per dedup window — the SLO monitor and the quality
  /// auditor usually trip on the SAME incident, and the second dump of an
  /// identical ring buys nothing; deduped triggers count flight.dump_skipped.
  void DumpOnTrigger(const std::string& reason);

  /// Arms trigger deduplication: DumpOnTrigger writes at most one dump per
  /// `window_ns`; later triggers inside the window are counted as
  /// flight.dump_skipped instead. `clock` is borrowed (nullptr = system
  /// clock) so tests script epochs on a VirtualClock. window_ns <= 0
  /// disarms (every trigger dumps — the pre-dedup behavior).
  void SetTriggerDedup(int64_t window_ns, Clock* clock = nullptr);

  /// Paths returned by Dump() this process, oldest first (bounded).
  std::vector<std::string> RecentDumps() const;

  /// Total events recorded since process start (including overwritten).
  int64_t TotalRecorded() const;

  /// Drops all recorded events and the dump history (test isolation).
  /// Must not race Record().
  void Clear();

 private:
  FlightRecorder();

  std::atomic<bool> enabled_{true};
};

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_OBS_FLIGHT_RECORDER_H_
