#ifndef SILOFUSE_OBS_SLO_H_
#define SILOFUSE_OBS_SLO_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"

namespace silofuse {
namespace obs {

/// How one request ended, from the SLO's point of view.
enum class SloOutcome {
  kOk = 0,
  kRejected = 1,  // shed by admission control (kUnavailable)
  kError = 2,     // any other non-OK completion
};

struct SloOptions {
  /// A request is "good" when it completes kOk within this latency.
  double latency_objective_ms = 250.0;
  /// Target good fraction (e.g. 0.99 = 99% of requests good). The error
  /// budget is 1 - objective.
  double objective = 0.99;
  /// Multi-window burn-rate alerting (SRE style): breach only when BOTH the
  /// short and the long window burn the error budget faster than
  /// `burn_rate_threshold` x the sustainable rate. The short window makes
  /// the alert fast to clear; the long window keeps one bad instant from
  /// paging.
  int64_t short_window_ns = 10LL * 1000 * 1000 * 1000;   // 10 s
  int64_t long_window_ns = 120LL * 1000 * 1000 * 1000;   // 2 min
  double burn_rate_threshold = 4.0;
  /// Windows are quantized into buckets of this width; long_window_ns
  /// should be a small multiple of it.
  int64_t bucket_ns = 1LL * 1000 * 1000 * 1000;  // 1 s
  /// Windows with fewer total requests than this never breach (a single
  /// early failure is 100% burn over any window).
  int64_t min_requests = 16;
};

/// Rolling-window snapshot for one window length.
struct SloWindowStats {
  int64_t total = 0;
  int64_t good = 0;
  int64_t rejected = 0;
  int64_t errors = 0;
  /// (total - good) / total, 0 when empty.
  double bad_fraction = 0.0;
  /// bad_fraction / (1 - objective), 0 when empty.
  double burn_rate = 0.0;
};

struct SloSnapshot {
  SloWindowStats short_window;
  SloWindowStats long_window;
  bool breached = false;       // currently in breach
  int64_t breaches = 0;        // breach entries since construction
  int64_t total_requests = 0;  // lifetime, not windowed
};

/// Rolling-window SLO monitor for the serving path.
///
/// Record() files each finished request into a time-bucketed ring covering
/// the long window; Evaluate() (called from Record and available to tests)
/// compares the short- and long-window burn rates against the configured
/// threshold. On the transition into breach the on-breach callback fires
/// exactly once (re-armed only after the monitor leaves breach), which is
/// where SynthesisServer hooks the flight-recorder dump.
///
/// Time comes from a Clock, so VirtualClock tests can script an exact
/// request timeline and assert the precise Record() that trips the alert.
/// Thread-safe; Record is a short critical section (no allocation once the
/// bucket ring is primed).
class SloMonitor {
 public:
  /// `clock` is borrowed and must outlive the monitor; nullptr means
  /// SystemClock::Default(). A non-empty `metric_prefix` publishes
  /// "<prefix>.breached" / "<prefix>.burn_short" / "<prefix>.burn_long" /
  /// "<prefix>.breaches" (breach entries so far) gauges on every Record.
  explicit SloMonitor(const SloOptions& options, Clock* clock = nullptr,
                      std::string metric_prefix = "");

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// Files one finished request. kRejected/kError are always bad;
  /// kOk is bad when latency_ms exceeds the objective.
  void Record(double latency_ms, SloOutcome outcome);

  /// Fires (at most once per breach entry) when Record flips into breach.
  /// Receives a one-line reason. Called without the monitor lock held, so
  /// the callback may call back into Snapshot().
  void SetOnBreach(std::function<void(const std::string&)> on_breach);

  SloSnapshot Snapshot();

  const SloOptions& options() const { return options_; }

 private:
  struct Bucket {
    int64_t start_ns = 0;  // bucket covers [start_ns, start_ns + bucket_ns)
    int64_t total = 0;
    int64_t good = 0;
    int64_t rejected = 0;
    int64_t errors = 0;
  };

  /// Drops buckets older than the long window; appends the current bucket
  /// if missing. Requires mu_.
  void AdvanceLocked(int64_t now_ns);
  SloWindowStats WindowLocked(int64_t now_ns, int64_t window_ns) const;
  /// Re-evaluates breach state; returns a reason string when this call
  /// entered breach (empty otherwise). Requires mu_.
  std::string EvaluateLocked(int64_t now_ns);
  void PublishLocked();

  const SloOptions options_;
  Clock* clock_;
  const std::string metric_prefix_;

  std::mutex mu_;
  std::deque<Bucket> buckets_;  // oldest first, covers the long window
  bool breached_ = false;
  int64_t breaches_ = 0;
  int64_t total_requests_ = 0;
  double last_burn_short_ = 0.0;
  double last_burn_long_ = 0.0;
  std::function<void(const std::string&)> on_breach_;  // guarded by mu_
};

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_OBS_SLO_H_
