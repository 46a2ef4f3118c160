#ifndef SILOFUSE_OBS_PROFILE_H_
#define SILOFUSE_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace silofuse {
namespace obs {

/// One row of the hotspot table: all spans sharing (name, party),
/// aggregated. Inclusive time counts the whole span; exclusive time
/// subtracts the time spent in directly nested child spans on the same
/// thread, so summing exclusive time over all rows never double-counts.
struct HotspotRow {
  std::string name;
  std::string party;  // "" = unattributed process work
  int64_t count = 0;
  int64_t inclusive_ns = 0;
  int64_t exclusive_ns = 0;
  int64_t min_ns = 0;
  int64_t max_ns = 0;
};

/// Critical-path verdict for one communication round: the (party, phase)
/// whose summed inclusive time is largest among the round's spans — the
/// work that bounds the round's wall time in a serialized protocol.
struct RoundCritical {
  int32_t round = 0;  // 1-based
  double wall_ms = 0.0;  // max span end - min span start within the round
  std::string bounding_party;
  std::string bounding_phase;
  double bounding_ms = 0.0;
  int64_t transfer_attempts = 0;
  int64_t retries = 0;  // transfer.backoff spans observed in the round
};

/// Aggregated view of one trace snapshot.
struct ProfileReport {
  std::vector<HotspotRow> hotspots;  // sorted by exclusive time, desc
  std::vector<RoundCritical> rounds;  // sorted by round number
  int64_t total_spans = 0;
  int64_t total_flow_events = 0;
  int64_t total_counter_events = 0;
};

/// Builds the hotspot table and per-round critical path from a trace
/// snapshot (SnapshotTraceEvents output). Deterministic: the result depends
/// only on the events' names, contexts, and nesting arithmetic, never on
/// buffer or thread enumeration order.
ProfileReport BuildProfile(const std::vector<TraceEvent>& events);

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_OBS_PROFILE_H_
