#ifndef SILOFUSE_TOOLS_LIB_RUN_REPORT_H_
#define SILOFUSE_TOOLS_LIB_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace silofuse {
namespace obs {

/// Neutral per-round communication row, decoupled from distributed/ types
/// so report rendering works both on a live Channel::RoundLog and on rows
/// parsed back from an exported report.
struct RoundStat {
  int64_t bytes = 0;
  int64_t messages = 0;
  int64_t retries = 0;
  int64_t redelivered_bytes = 0;
  double wall_ms = 0.0;
};

/// One merged human-readable run report: communication rounds, critical
/// path, hotspots, and headline metrics. Any section whose input is empty
/// is omitted.
std::string RenderRunReportMarkdown(const std::string& title,
                                    const ProfileReport& profile,
                                    const std::vector<RoundStat>& rounds,
                                    const MetricsSnapshot& metrics);

/// Same content as a machine-readable JSON object.
std::string RenderRunReportJson(const std::string& title,
                                const ProfileReport& profile,
                                const std::vector<RoundStat>& rounds,
                                const MetricsSnapshot& metrics);

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_TOOLS_LIB_RUN_REPORT_H_
