#ifndef SILOFUSE_TOOLS_LIB_SCRAPE_H_
#define SILOFUSE_TOOLS_LIB_SCRAPE_H_

// The client side of the introspection plane (obs/expose.h): fetch a route,
// parse and validate the /metrics payload, rebuild a snapshot from /varz.
// Only tools, tests and benches call these; a running server never does.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "lib/json.h"
#include "obs/metrics.h"

namespace silofuse {
namespace obs {

/// Rebuilds a MetricsSnapshot from the JSON schema written by
/// MetricsSnapshot::ToJson() — the payload served at /varz and written by
/// SILOFUSE_METRICS / --metrics-out. Tolerant reader: absent or non-numeric
/// members are skipped, derived members (mean/p50/p95/p99) are ignored.
MetricsSnapshot MetricsSnapshotFromJson(const json::Value& doc);

// ---------------------------------------------------------------------------
// Exposition-format parsing (sf_top, the CI payload checker, tests).
// ---------------------------------------------------------------------------

/// One sample line of an exposition payload.
struct ExpositionSeries {
  std::string name;  // full sample name, including _bucket/_sum/_count
  std::vector<std::pair<std::string, std::string>> labels;  // in parse order
  double value = 0.0;

  /// Label lookup; empty string when absent.
  std::string Label(const std::string& key) const;
};

struct ExpositionDoc {
  std::vector<ExpositionSeries> series;
  /// Family name -> declared type ("counter", "gauge", "histogram", ...).
  std::map<std::string, std::string> types;
};

/// Parses a text exposition payload. kInvalidArgument on the first
/// unparseable line (the error names the line number).
Result<ExpositionDoc> ParseExposition(const std::string& text);

/// Full payload validation for the CI scrape check: every line parses,
/// metric and label names match the Prometheus grammar, no series
/// (name + label set) appears twice, and no family declares two types.
Status ValidateExposition(const std::string& text);

// ---------------------------------------------------------------------------
// Minimal HTTP/1.0 plumbing.
// ---------------------------------------------------------------------------

/// Blocking HTTP/1.0 GET against a local introspection endpoint. `target`
/// is "host:port" or "http://host:port"; returns the response body on any
/// 200, kUnavailable when the connection fails, kDeadlineExceeded on
/// timeout, kInternal for non-200 statuses.
Result<std::string> HttpGet(const std::string& target, const std::string& path,
                            int timeout_ms = 2000);

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_TOOLS_LIB_SCRAPE_H_
