#ifndef SILOFUSE_TOOLS_LIB_BENCH_COMPARE_H_
#define SILOFUSE_TOOLS_LIB_BENCH_COMPARE_H_

#include <string>
#include <vector>

#include "lib/json.h"

namespace silofuse {
namespace obs {

/// Noise-aware thresholds of the perf-regression gate. A metric regresses
/// only when it is BOTH relatively slower than baseline * (1 + rel_slack)
/// AND absolutely slower by more than abs_slack — small timings jitter by
/// large ratios, large timings by large absolute deltas; requiring both
/// keeps the gate quiet on noise. A regression whose current/baseline ratio
/// exceeds hard_factor is a hard failure.
struct CompareOptions {
  double rel_slack = 0.15;
  double abs_slack_ms = 0.5;
  double hard_factor = 2.0;
  /// Memory keys (suffix _bytes) are gated on absolute growth only: byte
  /// counts are deterministic, so relative slack would let small buffers
  /// grow unboundedly while flagging noise-free 1-byte deltas on big ones.
  double abs_slack_bytes = 1 << 20;  // 1 MiB
  /// Percentage keys (suffix _pct: reject rates, recorder overhead) are
  /// gated on absolute percentage-point growth: a rate near zero would make
  /// any relative threshold either meaningless (0 baseline) or hair-
  /// trigger. current - baseline > abs_slack_pct regresses; more than
  /// hard_factor times that is a hard failure.
  double abs_slack_pct = 2.0;
  /// Speedup keys (stem ending "_speedup" or containing "_speedup_vs_") are
  /// higher-is-better parallel-scaling ratios: a value regresses when it
  /// falls below baseline * (1 - rel_slack) AND drops by more than this
  /// absolute amount (a 4.0x scaling ratio jitters by tenths; a 1.05x one
  /// by hundredths — requiring both keeps the gate quiet). Losing more than
  /// a hard_factor multiple (current * hard_factor < baseline) is a hard
  /// failure. Candidates merge max-of-N: the best repetition is the least
  /// contended estimate of the achievable scaling.
  double abs_slack_speedup = 0.35;
  /// Only keys with a time-like suffix (_ms, _us, _ns), the memory suffix
  /// (_bytes), the percentage suffix (_pct), or a speedup stem are gated;
  /// other counters pass through as informational rows.
  bool gate_time_keys_only = true;
};

/// One compared metric. `current` is the min over all candidate files
/// (min-of-N: the best repetition is the least noisy estimate of the true
/// cost) — except speedup keys, which merge max-of-N (higher is better).
struct CompareEntry {
  std::string key;
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;  // current / baseline; 0 when baseline == 0
  bool gated = false;  // time-like key, subject to thresholds
  bool regressed = false;
  bool hard = false;  // regressed and ratio > hard_factor
};

struct CompareReport {
  std::vector<CompareEntry> entries;  // sorted by key
  std::vector<std::string> missing_in_current;  // gated keys w/o new value
  int regressions = 0;
  int hard_regressions = 0;

  /// Gate verdict: 0 = pass, 1 = regression(s), 2 = hard regression(s).
  int exit_code() const;
  std::string ToMarkdown() const;
};

/// Flattens a parsed benchmark JSON document into numeric leaves: nested
/// objects join with '.', array elements append "[i]". Non-numeric leaves
/// are skipped.
std::vector<std::pair<std::string, double>> FlattenNumericLeaves(
    const json::Value& doc);

/// Compares `baseline` against the element-wise minimum of `candidates`
/// (min-of-N across repeated runs of the same bench).
CompareReport CompareBenchJson(const json::Value& baseline,
                               const std::vector<json::Value>& candidates,
                               const CompareOptions& options = {});

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_TOOLS_LIB_BENCH_COMPARE_H_
