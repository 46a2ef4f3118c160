#include "lib/bench_compare.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

namespace silofuse {
namespace obs {

namespace {

void Flatten(const json::Value& v, const std::string& prefix,
             std::vector<std::pair<std::string, double>>* out) {
  switch (v.kind()) {
    case json::Value::Kind::kNumber:
      out->emplace_back(prefix, v.AsNumber());
      break;
    case json::Value::Kind::kObject:
      for (const auto& [key, member] : v.AsObject()) {
        Flatten(member, prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    case json::Value::Kind::kArray: {
      const auto& array = v.AsArray();
      for (size_t i = 0; i < array.size(); ++i) {
        Flatten(array[i], prefix + "[" + std::to_string(i) + "]", out);
      }
      break;
    }
    default:
      break;  // bool/string/null leaves are not comparable metrics
  }
}

// Strips one *trailing* "[N]" index ("gemm_ms[3]" -> "gemm_ms"). A bracket
// in the middle of the key comes from an array of objects
// ("open_loop[0].p50_ms") and must not truncate the leaf name.
std::string StripTrailingIndex(const std::string& key) {
  if (key.empty() || key.back() != ']') return key;
  const size_t bracket = key.rfind('[');
  return bracket == std::string::npos ? key : key.substr(0, bracket);
}

bool TimeLikeKey(const std::string& key) {
  const std::string stem = StripTrailingIndex(key);
  auto ends_with = [&stem](const char* suffix) {
    const size_t n = std::char_traits<char>::length(suffix);
    return stem.size() >= n && stem.compare(stem.size() - n, n, suffix) == 0;
  };
  return ends_with("_ms") || ends_with("_us") || ends_with("_ns");
}

bool MemLikeKey(const std::string& key) {
  const std::string stem = StripTrailingIndex(key);
  constexpr const char* kSuffix = "_bytes";
  const size_t n = std::char_traits<char>::length(kSuffix);
  return stem.size() >= n && stem.compare(stem.size() - n, n, kSuffix) == 0;
}

bool PctLikeKey(const std::string& key) {
  const std::string stem = StripTrailingIndex(key);
  constexpr const char* kSuffix = "_pct";
  const size_t n = std::char_traits<char>::length(kSuffix);
  return stem.size() >= n && stem.compare(stem.size() - n, n, kSuffix) == 0;
}

// Higher-is-better parallel-scaling ratios: "gemm_speedup_vs_1t[2]",
// "coalesced_speedup". Matched on the stem so per-thread-count array
// elements gate individually.
bool SpeedupLikeKey(const std::string& key) {
  const std::string stem = StripTrailingIndex(key);
  constexpr const char* kSuffix = "_speedup";
  const size_t n = std::char_traits<char>::length(kSuffix);
  if (stem.size() >= n && stem.compare(stem.size() - n, n, kSuffix) == 0) {
    return true;
  }
  return stem.find("_speedup_vs_") != std::string::npos;
}

}  // namespace

std::vector<std::pair<std::string, double>> FlattenNumericLeaves(
    const json::Value& doc) {
  std::vector<std::pair<std::string, double>> out;
  Flatten(doc, "", &out);
  return out;
}

CompareReport CompareBenchJson(const json::Value& baseline,
                               const std::vector<json::Value>& candidates,
                               const CompareOptions& options) {
  CompareReport report;
  std::map<std::string, double> base_values;
  for (const auto& [key, value] : FlattenNumericLeaves(baseline)) {
    base_values[key] = value;
  }
  // Min-of-N over the candidate runs: the fastest repetition carries the
  // least scheduler noise. Speedup ratios merge max-of-N instead — for a
  // higher-is-better metric the best repetition is the least contended
  // estimate of the achievable scaling.
  std::map<std::string, double> current_values;
  for (const json::Value& candidate : candidates) {
    for (const auto& [key, value] : FlattenNumericLeaves(candidate)) {
      auto it = current_values.find(key);
      if (it == current_values.end()) {
        current_values[key] = value;
      } else if (SpeedupLikeKey(key) ? value > it->second
                                     : value < it->second) {
        it->second = value;
      }
    }
  }
  for (const auto& [key, base] : base_values) {
    const bool time_like = TimeLikeKey(key);
    const bool mem_like = !time_like && MemLikeKey(key);
    const bool pct_like = !time_like && !mem_like && PctLikeKey(key);
    const bool speedup_like =
        !time_like && !mem_like && !pct_like && SpeedupLikeKey(key);
    const bool gated = !options.gate_time_keys_only || time_like || mem_like ||
                       pct_like || speedup_like;
    auto it = current_values.find(key);
    if (it == current_values.end()) {
      if (gated) report.missing_in_current.push_back(key);
      continue;
    }
    CompareEntry entry;
    entry.key = key;
    entry.baseline = base;
    entry.current = it->second;
    entry.ratio = base == 0.0 ? 0.0 : entry.current / base;
    entry.gated = gated;
    if (gated) {
      if (mem_like) {
        entry.regressed = entry.current - base > options.abs_slack_bytes;
        entry.hard = entry.regressed && base > 0.0 &&
                     entry.ratio > options.hard_factor;
      } else if (pct_like) {
        // Percentage points, not ratios: a reject rate going 0% -> 3% is a
        // regression regardless of the undefined relative change.
        const double delta = entry.current - base;
        entry.regressed = delta > options.abs_slack_pct;
        entry.hard = delta > options.hard_factor * options.abs_slack_pct;
      } else if (speedup_like) {
        // Higher is better: regress when scaling DROPS both relatively and
        // absolutely; hard when most of the parallel win is gone.
        entry.regressed =
            base - entry.current > options.abs_slack_speedup &&
            entry.current < base * (1.0 - options.rel_slack);
        entry.hard = entry.regressed &&
                     entry.current * options.hard_factor < base;
      } else {
        const double rel_limit = base * (1.0 + options.rel_slack);
        entry.regressed = entry.current > rel_limit &&
                          entry.current - base > options.abs_slack_ms;
        entry.hard = entry.regressed && base > 0.0 &&
                     entry.ratio > options.hard_factor;
      }
    }
    if (entry.regressed) ++report.regressions;
    if (entry.hard) ++report.hard_regressions;
    report.entries.push_back(std::move(entry));
  }
  return report;
}

int CompareReport::exit_code() const {
  if (hard_regressions > 0) return 2;
  if (regressions > 0) return 1;
  return 0;
}

std::string CompareReport::ToMarkdown() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4);
  out << "# Benchmark comparison\n\n";
  if (regressions == 0) {
    out << "No regressions.\n\n";
  } else {
    out << regressions << " regression(s), " << hard_regressions
        << " hard.\n\n";
  }
  out << "| metric | baseline | current | ratio | verdict |\n"
      << "|--------|---------:|--------:|------:|---------|\n";
  for (const CompareEntry& e : entries) {
    const char* verdict = !e.gated         ? "info"
                          : e.hard         ? "HARD REGRESSION"
                          : e.regressed    ? "regression"
                                           : "ok";
    out << "| " << e.key << " | " << e.baseline << " | " << e.current << " | "
        << e.ratio << " | " << verdict << " |\n";
  }
  for (const std::string& key : missing_in_current) {
    out << "| " << key << " | (baseline only) | - | - | missing |\n";
  }
  return out.str();
}

}  // namespace obs
}  // namespace silofuse
