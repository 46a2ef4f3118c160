#include "obs/profile.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

namespace silofuse {
namespace obs {

namespace {

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct RoundAccum {
  int64_t min_start_ns = 0;
  int64_t max_end_ns = 0;
  bool any = false;
  int64_t transfer_attempts = 0;
  int64_t retries = 0;
  // Summed EXCLUSIVE time per (party, span name): using inclusive time here
  // would always crown the round's container span; exclusive time names the
  // work actually burning the round's wall time.
  std::map<std::pair<std::string, std::string>, int64_t> excl_by_phase;
};

}  // namespace

ProfileReport BuildProfile(const std::vector<TraceEvent>& events) {
  ProfileReport report;

  // Exclusive time: per thread, walk spans in (start asc, dur desc) order
  // with an open-span stack; each span's duration is subtracted from its
  // nearest still-open ancestor. SnapshotTraceEvents already emits this
  // order globally, so the per-tid subsequences are ordered too.
  std::vector<int64_t> exclusive(events.size(), 0);
  std::map<int, std::vector<size_t>> by_tid;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == 'X') {
      by_tid[events[i].tid].push_back(i);
    } else if (events[i].phase == 'C') {
      ++report.total_counter_events;
    } else {
      ++report.total_flow_events;
    }
  }
  for (const auto& [tid, indices] : by_tid) {
    std::vector<size_t> open;
    for (size_t i : indices) {
      const TraceEvent& e = events[i];
      while (!open.empty() && events[open.back()].start_ns +
                                      events[open.back()].dur_ns <=
                                  e.start_ns) {
        open.pop_back();
      }
      exclusive[i] = e.dur_ns;
      if (!open.empty()) exclusive[open.back()] -= e.dur_ns;
      open.push_back(i);
    }
  }

  std::map<std::pair<std::string, std::string>, HotspotRow> hotspots;
  std::map<int32_t, RoundAccum> rounds;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.phase != 'X') continue;
    ++report.total_spans;
    const std::string party = e.party == nullptr ? "" : e.party;
    HotspotRow& row = hotspots[{e.name, party}];
    if (row.count == 0) {
      row.name = e.name;
      row.party = party;
      row.min_ns = e.dur_ns;
      row.max_ns = e.dur_ns;
    }
    ++row.count;
    row.inclusive_ns += e.dur_ns;
    row.exclusive_ns += exclusive[i];
    row.min_ns = std::min(row.min_ns, e.dur_ns);
    row.max_ns = std::max(row.max_ns, e.dur_ns);

    if (e.run_id != 0 && e.round > 0) {
      RoundAccum& accum = rounds[e.round];
      const int64_t end_ns = e.start_ns + e.dur_ns;
      if (!accum.any) {
        accum.min_start_ns = e.start_ns;
        accum.max_end_ns = end_ns;
        accum.any = true;
      } else {
        accum.min_start_ns = std::min(accum.min_start_ns, e.start_ns);
        accum.max_end_ns = std::max(accum.max_end_ns, end_ns);
      }
      if (e.name == "transfer.attempt") ++accum.transfer_attempts;
      if (e.name == "transfer.backoff") ++accum.retries;
      accum.excl_by_phase[{party, e.name}] += exclusive[i];
    }
  }

  report.hotspots.reserve(hotspots.size());
  for (auto& [key, row] : hotspots) report.hotspots.push_back(std::move(row));
  std::sort(report.hotspots.begin(), report.hotspots.end(),
            [](const HotspotRow& a, const HotspotRow& b) {
              if (a.exclusive_ns != b.exclusive_ns) {
                return a.exclusive_ns > b.exclusive_ns;
              }
              return std::tie(a.name, a.party) < std::tie(b.name, b.party);
            });

  for (const auto& [round, accum] : rounds) {
    RoundCritical critical;
    critical.round = round;
    critical.wall_ms = Ms(accum.max_end_ns - accum.min_start_ns);
    critical.transfer_attempts = accum.transfer_attempts;
    critical.retries = accum.retries;
    int64_t best = -1;
    for (const auto& [phase, ns] : accum.excl_by_phase) {
      if (ns > best) {
        best = ns;
        critical.bounding_party = phase.first;
        critical.bounding_phase = phase.second;
        critical.bounding_ms = Ms(ns);
      }
    }
    report.rounds.push_back(std::move(critical));
  }
  return report;
}

}  // namespace obs
}  // namespace silofuse
