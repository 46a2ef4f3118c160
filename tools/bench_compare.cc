// bench_compare: the perf-regression gate. Diffs a checked-in baseline
// BENCH_*.json against one or more fresh runs of the same bench (min-of-N
// across the candidates) with noise-aware thresholds.
//
//   bench_compare --baseline bench/baselines/BENCH_runtime.json \
//                 BENCH_runtime.json [BENCH_runtime.2.json ...] \
//                 [--rel-slack 0.15] [--abs-slack-ms 0.5] \
//                 [--hard-factor 2.0] [--out report.md]
//
// Exit codes: 0 = pass, 1 = regression(s) beyond slack, 2 = hard
// regression(s) (ratio > hard-factor), 64 = usage, 65 = input error.
// Only time-like keys (suffix _ms/_us/_ns, possibly indexed) are gated;
// other numeric leaves are reported as informational rows.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lib/bench_compare.h"
#include "lib/json.h"

using namespace silofuse;

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --baseline FILE CURRENT [CURRENT...] [--rel-slack R] "
               "[--abs-slack-ms A] [--hard-factor F] [--out FILE]\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::vector<std::string> current_paths;
  std::string out_path;
  obs::CompareOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--baseline") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      baseline_path = v;
    } else if (flag == "--rel-slack") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      options.rel_slack = std::atof(v);
    } else if (flag == "--abs-slack-ms") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      options.abs_slack_ms = std::atof(v);
    } else if (flag == "--hard-factor") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      options.hard_factor = std::atof(v);
    } else if (flag == "--out") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      out_path = v;
    } else if (!flag.empty() && flag[0] == '-') {
      std::cerr << "unknown flag: " << flag << "\n";
      return Usage(argv[0]);
    } else {
      current_paths.push_back(flag);
    }
  }
  if (baseline_path.empty() || current_paths.empty()) return Usage(argv[0]);

  auto baseline = json::ParseFile(baseline_path);
  if (!baseline.ok()) {
    std::cerr << baseline.status().ToString() << "\n";
    return 65;
  }
  std::vector<json::Value> candidates;
  for (const std::string& path : current_paths) {
    auto doc = json::ParseFile(path);
    if (!doc.ok()) {
      std::cerr << doc.status().ToString() << "\n";
      return 65;
    }
    candidates.push_back(std::move(doc).Value());
  }

  const obs::CompareReport report =
      obs::CompareBenchJson(baseline.Value(), candidates, options);
  const std::string markdown = report.ToMarkdown();
  if (out_path.empty()) {
    std::cout << markdown;
  } else {
    std::ofstream out(out_path, std::ios::trunc);
    out << markdown;
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 65;
    }
    // Keep the verdict visible in CI logs even when the table goes to a file.
    std::cout << report.regressions << " regression(s), "
              << report.hard_regressions << " hard -> exit "
              << report.exit_code() << "\n";
  }
  return report.exit_code();
}
