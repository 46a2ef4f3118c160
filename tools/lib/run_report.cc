#include "lib/run_report.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/reference_stats.h"

namespace silofuse {
namespace obs {

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void AppendRoundsMarkdown(std::ostringstream& out,
                          const std::vector<RoundStat>& rounds) {
  if (rounds.empty()) return;
  out << "## Communication rounds\n\n"
      << "| round | bytes | messages | retries | redelivered bytes | wall ms "
         "|\n"
      << "|------:|------:|---------:|--------:|------------------:|--------:"
         "|\n";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundStat& r = rounds[i];
    out << "| " << (i + 1) << " | " << r.bytes << " | " << r.messages << " | "
        << r.retries << " | " << r.redelivered_bytes << " | " << std::fixed
        << std::setprecision(3) << r.wall_ms << " |\n";
  }
  out << "\n";
}

void AppendCriticalMarkdown(std::ostringstream& out,
                            const ProfileReport& profile) {
  if (profile.rounds.empty()) return;
  out << "## Per-round critical path\n\n"
      << "| round | wall ms | bounding party | bounding phase | phase ms | "
         "transfer attempts | retries |\n"
      << "|------:|--------:|----------------|----------------|---------:|"
         "------------------:|--------:|\n";
  for (const RoundCritical& r : profile.rounds) {
    out << "| " << r.round << " | " << std::fixed << std::setprecision(3)
        << r.wall_ms << " | "
        << (r.bounding_party.empty() ? "(process)" : r.bounding_party) << " | "
        << r.bounding_phase << " | " << r.bounding_ms << " | "
        << r.transfer_attempts << " | " << r.retries << " |\n";
  }
  out << "\n";
}

void AppendHotspotsMarkdown(std::ostringstream& out,
                            const ProfileReport& profile) {
  if (profile.hotspots.empty()) return;
  constexpr size_t kTopN = 20;
  out << "## Hotspots (by exclusive time)\n\n"
      << "| span | party | count | inclusive ms | exclusive ms | min ms | "
         "max ms |\n"
      << "|------|-------|------:|-------------:|-------------:|-------:|"
         "-------:|\n";
  const size_t n = std::min(kTopN, profile.hotspots.size());
  for (size_t i = 0; i < n; ++i) {
    const HotspotRow& h = profile.hotspots[i];
    out << "| " << h.name << " | "
        << (h.party.empty() ? "(process)" : h.party) << " | " << h.count
        << " | " << std::fixed << std::setprecision(3) << Ms(h.inclusive_ns)
        << " | " << Ms(h.exclusive_ns) << " | " << Ms(h.min_ns) << " | "
        << Ms(h.max_ns) << " |\n";
  }
  if (profile.hotspots.size() > n) {
    out << "\n(" << (profile.hotspots.size() - n) << " more rows omitted)\n";
  }
  out << "\n";
}

// ---- Training health (health.* / quality.* gauges) ------------------------

double GaugeOr(const MetricsSnapshot& metrics, const std::string& key,
               double fallback) {
  auto it = metrics.gauges.find(key);
  return it == metrics.gauges.end() ? fallback : it->second;
}

struct HealthLayerRow {
  std::string trainer;  // "<prefix>[.silo<k>]"
  std::string layer;    // fully-qualified parameter name
  double grad_norm = 0.0;
  double value_norm = 0.0;
  double nonfinite = 0.0;  // grad + value non-finite element count
};

struct HealthWatchdogRow {
  std::string trainer;
  bool aborted = false;
  int64_t abort_step = 0;
};

/// The shared scorer's four scores, read back from `<base>.<score>` gauges.
QualityScores ScoresFromGauges(const MetricsSnapshot& metrics,
                               const std::string& base) {
  QualityScores scores;
  scores.marginal_distance = GaugeOr(metrics, base + ".marginal_distance", 0.0);
  scores.correlation_drift = GaugeOr(metrics, base + ".correlation_drift", 0.0);
  scores.utility_proxy = GaugeOr(metrics, base + ".utility_proxy", 0.0);
  scores.dcr_p5 = GaugeOr(metrics, base + ".dcr_p5", 0.0);
  return scores;
}

/// Markdown cells "marginal | drift | utility | DCR p5", formatted alike in
/// the training trajectory and the serving "Synthesis quality" table.
void AppendScoreCells(std::ostringstream& out, const QualityScores& scores) {
  out << std::fixed << std::setprecision(3) << scores.marginal_distance
      << " | " << scores.correlation_drift << " | " << std::setprecision(1)
      << scores.utility_proxy << " | " << std::setprecision(4)
      << scores.dcr_p5;
}

void AppendScoresJson(std::ostringstream& out, const QualityScores& scores) {
  out << "\"marginal_distance\": " << scores.marginal_distance
      << ", \"correlation_drift\": " << scores.correlation_drift
      << ", \"utility_proxy\": " << scores.utility_proxy
      << ", \"dcr_p5\": " << scores.dcr_p5;
}

struct QualityPoint {
  int64_t step = 0;
  QualityScores scores;
};

struct QualitySeriesRow {
  std::string scope;  // e.g. "coordinator", "latentdiff"
  std::vector<QualityPoint> points;
};

struct TrainingHealthSummary {
  std::vector<HealthWatchdogRow> watchdogs;
  std::vector<HealthLayerRow> worst_layers;  // sorted by grad_norm desc
  std::vector<QualitySeriesRow> quality;
  bool any() const {
    return !watchdogs.empty() || !worst_layers.empty() || !quality.empty();
  }
};

TrainingHealthSummary SummarizeTrainingHealth(const MetricsSnapshot& metrics) {
  TrainingHealthSummary summary;
  std::map<std::string, QualitySeriesRow> quality;
  // Every monitored trainer leaves a `.last_stats_step` or `.watchdog.ema.*`
  // gauge; trainers in this set with no `.watchdog.aborted` gauge get an
  // explicit "healthy" verdict row.
  std::set<std::string> monitored;
  for (const auto& [key, value] : metrics.gauges) {
    // health.<trainer>.layer.<param>.grad_norm anchors one layer row; its
    // sibling gauges are looked up by suffix swap.
    constexpr std::string_view kHealth = "health.";
    constexpr std::string_view kGradNorm = ".grad_norm";
    if (key.starts_with(kHealth) && key.ends_with(kGradNorm)) {
      const size_t layer_pos = key.find(".layer.");
      if (layer_pos == std::string::npos) continue;
      const std::string base = key.substr(0, key.size() - kGradNorm.size());
      HealthLayerRow row;
      row.trainer = key.substr(kHealth.size(), layer_pos - kHealth.size());
      row.layer = base.substr(layer_pos + std::strlen(".layer."));
      row.grad_norm = value;
      row.value_norm = GaugeOr(metrics, base + ".value_norm", 0.0);
      row.nonfinite = GaugeOr(metrics, base + ".grad_nonfinite", 0.0) +
                      GaugeOr(metrics, base + ".value_nonfinite", 0.0);
      summary.worst_layers.push_back(std::move(row));
      continue;
    }
    constexpr std::string_view kAborted = ".watchdog.aborted";
    if (key.starts_with(kHealth) && key.ends_with(kAborted)) {
      HealthWatchdogRow row;
      row.trainer = key.substr(
          kHealth.size(), key.size() - kHealth.size() - kAborted.size());
      row.aborted = value != 0.0;
      row.abort_step = static_cast<int64_t>(GaugeOr(
          metrics, "health." + row.trainer + ".watchdog.abort_step", 0.0));
      summary.watchdogs.push_back(std::move(row));
      continue;
    }
    constexpr std::string_view kLastStats = ".last_stats_step";
    if (key.starts_with(kHealth) && key.ends_with(kLastStats)) {
      monitored.insert(key.substr(
          kHealth.size(), key.size() - kHealth.size() - kLastStats.size()));
      continue;
    }
    if (const size_t ema_pos = key.find(".watchdog.ema.");
        key.starts_with(kHealth) && ema_pos != std::string::npos) {
      monitored.insert(key.substr(kHealth.size(), ema_pos - kHealth.size()));
      continue;
    }
    // quality.<scope>.series.<k>.step (+ the scores beside it) is one
    // scored probe of the trajectory.
    constexpr std::string_view kQuality = "quality.";
    constexpr std::string_view kStep = ".step";
    const size_t series_pos = key.find(".series.");
    if (key.starts_with(kQuality) && series_pos != std::string::npos &&
        key.ends_with(kStep)) {
      const std::string scope =
          key.substr(kQuality.size(), series_pos - kQuality.size());
      const std::string base = key.substr(0, key.size() - kStep.size());
      QualityPoint point;
      point.step = static_cast<int64_t>(value);
      point.scores = ScoresFromGauges(metrics, base);
      quality[scope].points.push_back(point);
    }
  }
  for (const HealthWatchdogRow& w : summary.watchdogs) {
    monitored.erase(w.trainer);
  }
  for (const std::string& trainer : monitored) {
    HealthWatchdogRow row;
    row.trainer = trainer;
    summary.watchdogs.push_back(std::move(row));
  }
  std::sort(summary.watchdogs.begin(), summary.watchdogs.end(),
            [](const HealthWatchdogRow& a, const HealthWatchdogRow& b) {
              return a.trainer < b.trainer;
            });
  std::sort(summary.worst_layers.begin(), summary.worst_layers.end(),
            [](const HealthLayerRow& a, const HealthLayerRow& b) {
              if (a.grad_norm != b.grad_norm) return a.grad_norm > b.grad_norm;
              return std::tie(a.trainer, a.layer) < std::tie(b.trainer, b.layer);
            });
  for (auto& [scope, row] : quality) {
    row.scope = scope;
    std::sort(row.points.begin(), row.points.end(),
              [](const QualityPoint& a, const QualityPoint& b) {
                return a.step < b.step;
              });
    summary.quality.push_back(std::move(row));
  }
  return summary;
}

void AppendTrainingHealthMarkdown(std::ostringstream& out,
                                  const MetricsSnapshot& metrics) {
  const TrainingHealthSummary health = SummarizeTrainingHealth(metrics);
  if (!health.any()) return;
  out << "## Training health\n\n";
  if (!health.watchdogs.empty()) {
    out << "| trainer | watchdog verdict | abort step |\n"
        << "|---------|------------------|-----------:|\n";
    for (const HealthWatchdogRow& w : health.watchdogs) {
      out << "| " << w.trainer << " | "
          << (w.aborted ? "ABORTED (divergence/NaN)" : "healthy") << " | ";
      if (w.aborted) {
        out << w.abort_step;
      } else {
        out << "-";
      }
      out << " |\n";
    }
    out << "\n";
  }
  if (!health.worst_layers.empty()) {
    constexpr size_t kTopN = 10;
    out << "### Worst layers (by gradient L2 norm)\n\n"
        << "| trainer | layer | grad norm | value norm | non-finite |\n"
        << "|---------|-------|----------:|-----------:|-----------:|\n";
    const size_t n = std::min(kTopN, health.worst_layers.size());
    for (size_t i = 0; i < n; ++i) {
      const HealthLayerRow& l = health.worst_layers[i];
      out << "| " << l.trainer << " | " << l.layer << " | " << std::scientific
          << std::setprecision(3) << l.grad_norm << " | " << l.value_norm
          << std::defaultfloat << " | " << static_cast<int64_t>(l.nonfinite)
          << " |\n";
    }
    if (health.worst_layers.size() > n) {
      out << "\n(" << (health.worst_layers.size() - n)
          << " more layers omitted)\n";
    }
    out << "\n";
  }
  if (!health.quality.empty()) {
    out << "### Mid-training quality trajectory\n\n"
        << "| probe scope | step | marginal dist | corr drift | utility | "
           "DCR p5 |\n"
        << "|-------------|-----:|--------------:|-----------:|--------:|"
           "-------:|\n";
    for (const QualitySeriesRow& q : health.quality) {
      for (const QualityPoint& p : q.points) {
        out << "| " << q.scope << " | " << p.step << " | ";
        AppendScoreCells(out, p.scores);
        out << " |\n";
      }
    }
    out << "\n";
  }
}

/// Serving-layer rollup (src/serve): request/queue counters, latency and
/// batch-shape histograms, model-cache stats. Present only when the process
/// actually served traffic (serve.requests > 0).
struct ServingSummary {
  int64_t requests = 0;
  int64_t rows = 0;
  int64_t rejected = 0;
  int64_t errors = 0;
  double queue_depth = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_reloads = 0;
  double cache_loaded = 0.0;
  const HistogramSnapshot* latency_ms = nullptr;
  const HistogramSnapshot* batch_requests = nullptr;
  const HistogramSnapshot* batch_rows = nullptr;
  /// Every non-empty serve.* histogram (global phases + per-deployment
  /// serve.deploy.<name>.* copies), name-sorted so deployments group.
  std::vector<std::pair<std::string, const HistogramSnapshot*>> histograms;
  /// SLO verdict from the serve.slo.* gauges (published by SloMonitor).
  bool slo_present = false;
  bool slo_breached = false;
  double slo_burn_short = 0.0;
  double slo_burn_long = 0.0;
  int64_t slo_breaches = 0;
  /// Flight-recorder dump counters.
  int64_t flight_dumps = 0;
  int64_t flight_dump_failures = 0;
  int64_t flight_dump_skipped = 0;

  /// Per-deployment synthesis-quality audit verdict, rebuilt from the
  /// audit.<deployment>.* metrics the QualityAuditor publishes.
  struct AuditRow {
    std::string deployment;
    bool has_reference = false;
    int64_t audits = 0;
    int64_t bad_audits = 0;
    int64_t degenerate = 0;
    QualityScores scores;  // of the last scored audit
    bool breached = false;
    int64_t breaches = 0;
    double burn_short = 0.0;
    double burn_long = 0.0;
    /// "BREACHED" / "ok" / "no reference" / "no audits".
    const char* verdict() const {
      if (!has_reference) return "no reference";
      if (breached) return "BREACHED";
      if (audits == 0) return "no audits";
      return "ok";
    }
  };
  std::vector<AuditRow> audit;

  bool any() const { return requests > 0; }
};

int64_t CounterOr(const MetricsSnapshot& metrics, const std::string& key,
                  int64_t fallback) {
  auto it = metrics.counters.find(key);
  return it == metrics.counters.end() ? fallback : it->second;
}

const HistogramSnapshot* HistogramOrNull(const MetricsSnapshot& metrics,
                                         const std::string& key) {
  auto it = metrics.histograms.find(key);
  return it == metrics.histograms.end() || it->second.count == 0
             ? nullptr
             : &it->second;
}

ServingSummary SummarizeServing(const MetricsSnapshot& metrics) {
  ServingSummary serving;
  serving.requests = CounterOr(metrics, "serve.requests", 0);
  serving.rows = CounterOr(metrics, "serve.rows", 0);
  serving.rejected = CounterOr(metrics, "serve.rejected", 0);
  serving.queue_depth = GaugeOr(metrics, "serve.queue_depth", 0.0);
  serving.cache_hits = CounterOr(metrics, "serve.cache.hits", 0);
  serving.cache_misses = CounterOr(metrics, "serve.cache.misses", 0);
  serving.cache_evictions = CounterOr(metrics, "serve.cache.evictions", 0);
  serving.cache_reloads = CounterOr(metrics, "serve.cache.reloads", 0);
  serving.cache_loaded = GaugeOr(metrics, "serve.cache.loaded", 0.0);
  serving.errors = CounterOr(metrics, "serve.errors", 0);
  serving.latency_ms = HistogramOrNull(metrics, "serve.request_latency_ms");
  serving.batch_requests = HistogramOrNull(metrics, "serve.batch.requests");
  serving.batch_rows = HistogramOrNull(metrics, "serve.batch.rows");
  for (const auto& [name, histogram] : metrics.histograms) {
    if (!name.starts_with("serve.") || histogram.count == 0) continue;
    serving.histograms.emplace_back(name, &histogram);
  }
  serving.slo_present =
      metrics.gauges.find("serve.slo.breached") != metrics.gauges.end();
  serving.slo_breached = GaugeOr(metrics, "serve.slo.breached", 0.0) != 0.0;
  serving.slo_burn_short = GaugeOr(metrics, "serve.slo.burn_short", 0.0);
  serving.slo_burn_long = GaugeOr(metrics, "serve.slo.burn_long", 0.0);
  serving.slo_breaches =
      static_cast<int64_t>(GaugeOr(metrics, "serve.slo.breaches", 0.0));
  serving.flight_dumps = CounterOr(metrics, "flight.dumps", 0);
  serving.flight_dump_failures = CounterOr(metrics, "flight.dump_failures", 0);
  serving.flight_dump_skipped = CounterOr(metrics, "flight.dump_skipped", 0);
  // Audited deployments are enumerated off the one gauge every deployment
  // publishes, even before its first scoring pass (deployment names may
  // themselves contain dots, so anchor on the fixed suffix).
  const std::string audit_prefix = "audit.";
  const std::string reference_suffix = ".has_reference";
  for (const auto& [name, value] : metrics.gauges) {
    if (name.size() <= audit_prefix.size() + reference_suffix.size() ||
        !name.starts_with(audit_prefix) || !name.ends_with(reference_suffix)) {
      continue;
    }
    ServingSummary::AuditRow row;
    row.deployment = name.substr(
        audit_prefix.size(),
        name.size() - audit_prefix.size() - reference_suffix.size());
    const std::string base = audit_prefix + row.deployment;
    row.has_reference = value != 0.0;
    row.audits = CounterOr(metrics, base + ".audits", 0);
    row.bad_audits = CounterOr(metrics, base + ".bad_audits", 0);
    row.degenerate = CounterOr(metrics, base + ".degenerate", 0);
    row.scores = ScoresFromGauges(metrics, base);
    row.breached = GaugeOr(metrics, base + ".breached", 0.0) != 0.0;
    row.breaches = CounterOr(metrics, base + ".breaches", 0);
    row.burn_short = GaugeOr(metrics, base + ".burn_short", 0.0);
    row.burn_long = GaugeOr(metrics, base + ".burn_long", 0.0);
    serving.audit.push_back(std::move(row));
  }
  return serving;
}

void AppendServingMarkdown(std::ostringstream& out,
                           const MetricsSnapshot& metrics) {
  const ServingSummary serving = SummarizeServing(metrics);
  if (!serving.any()) return;
  out << "## Serving\n\n"
      << "| metric | value |\n|--------|------:|\n"
      << "| requests | " << serving.requests << " |\n"
      << "| rows served | " << serving.rows << " |\n"
      << "| rejected (backpressure) | " << serving.rejected << " |\n"
      << "| errors | " << serving.errors << " |\n"
      << "| queue depth (last) | " << static_cast<int64_t>(serving.queue_depth)
      << " |\n"
      << "| cache hits / misses | " << serving.cache_hits << " / "
      << serving.cache_misses << " |\n"
      << "| cache reloads / evictions | " << serving.cache_reloads << " / "
      << serving.cache_evictions << " |\n"
      << "| models resident | " << static_cast<int64_t>(serving.cache_loaded)
      << " |\n\n";
  if (serving.slo_present) {
    out << "### SLO\n\n"
        << "Verdict: " << (serving.slo_breached ? "**BREACHED**" : "ok")
        << " — burn rate " << std::fixed << std::setprecision(2)
        << serving.slo_burn_short << " (short) / " << serving.slo_burn_long
        << " (long), " << serving.slo_breaches
        << " breach(es) this process.\n\n";
  }
  if (!serving.audit.empty()) {
    out << "### Synthesis quality\n\n"
        << "| deployment | verdict | audits | bad | degenerate | marginal "
           "dist | corr drift | utility | DCR p5 | burn s/l |\n"
        << "|------------|---------|-------:|----:|-----------:|----------"
           "----:|-----------:|--------:|-------:|---------:|\n";
    for (const ServingSummary::AuditRow& row : serving.audit) {
      out << "| " << row.deployment << " | "
          << (row.breached ? "**BREACHED**" : row.verdict()) << " | "
          << row.audits << " | " << row.bad_audits << " | " << row.degenerate
          << " | ";
      AppendScoreCells(out, row.scores);
      out << " | " << std::setprecision(2) << row.burn_short << "/"
          << row.burn_long << " |\n";
    }
    out << "\n";
  }
  if (serving.flight_dumps + serving.flight_dump_failures +
          serving.flight_dump_skipped >
      0) {
    out << "Flight-recorder dumps: " << serving.flight_dumps << " written, "
        << serving.flight_dump_failures << " failed, "
        << serving.flight_dump_skipped
        << " skipped (deduped or no dump dir).\n\n";
  }
  if (!serving.histograms.empty()) {
    // Every serve.* histogram with data, name-sorted (map order), so the
    // global phase decomposition comes first and the per-deployment
    // serve.deploy.<name>.* copies group by deployment below it.
    out << "### Latency quantiles (interpolated)\n\n"
        << "| histogram | count | mean | p50 | p95 | p99 |\n"
        << "|-----------|------:|-----:|----:|----:|----:|\n";
    for (const auto& [name, histogram] : serving.histograms) {
      const HistogramSnapshot& h = *histogram;
      out << "| " << name << " | " << h.count << " | " << std::fixed
          << std::setprecision(3)
          << (h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count))
          << " | " << h.Quantile(0.50) << " | " << h.Quantile(0.95) << " | "
          << h.Quantile(0.99) << " |\n";
    }
    out << "\n";
  }
  if (serving.batch_requests != nullptr) {
    const HistogramSnapshot& h = *serving.batch_requests;
    out << "### Batch size (requests per coalesced pass)\n\n"
        << "| bucket | batches |\n|--------|--------:|\n";
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (h.bucket_counts[i] == 0) continue;
      if (i < h.bounds.size()) {
        out << "| <= " << static_cast<int64_t>(h.bounds[i]);
      } else {
        out << "| > " << static_cast<int64_t>(h.bounds.back());
      }
      out << " | " << h.bucket_counts[i] << " |\n";
    }
    out << "\n";
  }
}

void AppendMetricsMarkdown(std::ostringstream& out,
                           const MetricsSnapshot& metrics) {
  if (metrics.counters.empty() && metrics.histograms.empty()) return;
  out << "## Metrics\n\n";
  if (!metrics.counters.empty()) {
    out << "| counter | value |\n|---------|------:|\n";
    for (const auto& [name, value] : metrics.counters) {
      if (value != 0) out << "| " << name << " | " << value << " |\n";
    }
    out << "\n";
  }
  if (!metrics.histograms.empty()) {
    out << "| histogram | count | mean | p50 | p95 | p99 |\n"
        << "|-----------|------:|-----:|----:|----:|----:|\n";
    for (const auto& [name, h] : metrics.histograms) {
      const double mean =
          h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
      out << "| " << name << " | " << h.count << " | " << std::fixed
          << std::setprecision(3) << mean << " | " << h.Quantile(0.50) << " | "
          << h.Quantile(0.95) << " | " << h.Quantile(0.99) << " |\n";
    }
    out << "\n";
  }
}

}  // namespace

std::string RenderRunReportMarkdown(const std::string& title,
                                    const ProfileReport& profile,
                                    const std::vector<RoundStat>& rounds,
                                    const MetricsSnapshot& metrics) {
  std::ostringstream out;
  out << "# " << title << "\n\n";
  out << "Spans: " << profile.total_spans
      << ", flow events: " << profile.total_flow_events << "\n\n";
  AppendRoundsMarkdown(out, rounds);
  AppendCriticalMarkdown(out, profile);
  AppendHotspotsMarkdown(out, profile);
  AppendTrainingHealthMarkdown(out, metrics);
  AppendServingMarkdown(out, metrics);
  AppendMetricsMarkdown(out, metrics);
  return out.str();
}

std::string RenderRunReportJson(const std::string& title,
                                const ProfileReport& profile,
                                const std::vector<RoundStat>& rounds,
                                const MetricsSnapshot& metrics) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(6);
  out << "{\n  \"title\": \"" << Escape(title) << "\",\n";
  out << "  \"total_spans\": " << profile.total_spans << ",\n";
  out << "  \"total_flow_events\": " << profile.total_flow_events << ",\n";
  out << "  \"rounds\": [";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundStat& r = rounds[i];
    out << (i ? "," : "") << "\n    {\"round\": " << (i + 1)
        << ", \"bytes\": " << r.bytes << ", \"messages\": " << r.messages
        << ", \"retries\": " << r.retries
        << ", \"redelivered_bytes\": " << r.redelivered_bytes
        << ", \"wall_ms\": " << r.wall_ms << "}";
  }
  out << (rounds.empty() ? "" : "\n  ") << "],\n";
  out << "  \"critical_path\": [";
  for (size_t i = 0; i < profile.rounds.size(); ++i) {
    const RoundCritical& r = profile.rounds[i];
    out << (i ? "," : "") << "\n    {\"round\": " << r.round
        << ", \"wall_ms\": " << r.wall_ms << ", \"bounding_party\": \""
        << Escape(r.bounding_party) << "\", \"bounding_phase\": \""
        << Escape(r.bounding_phase) << "\", \"bounding_ms\": " << r.bounding_ms
        << ", \"transfer_attempts\": " << r.transfer_attempts
        << ", \"retries\": " << r.retries << "}";
  }
  out << (profile.rounds.empty() ? "" : "\n  ") << "],\n";
  out << "  \"hotspots\": [";
  for (size_t i = 0; i < profile.hotspots.size(); ++i) {
    const HotspotRow& h = profile.hotspots[i];
    out << (i ? "," : "") << "\n    {\"name\": \"" << Escape(h.name)
        << "\", \"party\": \"" << Escape(h.party)
        << "\", \"count\": " << h.count
        << ", \"inclusive_ms\": " << Ms(h.inclusive_ns)
        << ", \"exclusive_ms\": " << Ms(h.exclusive_ns)
        << ", \"min_ms\": " << Ms(h.min_ns) << ", \"max_ms\": " << Ms(h.max_ns)
        << "}";
  }
  out << (profile.hotspots.empty() ? "" : "\n  ") << "],\n";
  const TrainingHealthSummary health = SummarizeTrainingHealth(metrics);
  out << "  \"training_health\": {\n    \"watchdogs\": [";
  for (size_t i = 0; i < health.watchdogs.size(); ++i) {
    const HealthWatchdogRow& w = health.watchdogs[i];
    out << (i ? "," : "") << "\n      {\"trainer\": \"" << Escape(w.trainer)
        << "\", \"aborted\": " << (w.aborted ? "true" : "false")
        << ", \"abort_step\": " << w.abort_step << "}";
  }
  out << (health.watchdogs.empty() ? "" : "\n    ") << "],\n";
  out << "    \"worst_layers\": [";
  constexpr size_t kJsonTopLayers = 20;
  const size_t n_layers = std::min(kJsonTopLayers, health.worst_layers.size());
  for (size_t i = 0; i < n_layers; ++i) {
    const HealthLayerRow& l = health.worst_layers[i];
    out << (i ? "," : "") << "\n      {\"trainer\": \"" << Escape(l.trainer)
        << "\", \"layer\": \"" << Escape(l.layer)
        << "\", \"grad_norm\": " << l.grad_norm
        << ", \"value_norm\": " << l.value_norm
        << ", \"nonfinite\": " << static_cast<int64_t>(l.nonfinite) << "}";
  }
  out << (n_layers == 0 ? "" : "\n    ") << "],\n";
  out << "    \"quality\": [";
  for (size_t i = 0; i < health.quality.size(); ++i) {
    const QualitySeriesRow& q = health.quality[i];
    out << (i ? "," : "") << "\n      {\"scope\": \"" << Escape(q.scope)
        << "\", \"series\": [";
    for (size_t j = 0; j < q.points.size(); ++j) {
      out << (j ? ", " : "") << "{\"step\": " << q.points[j].step << ", ";
      AppendScoresJson(out, q.points[j].scores);
      out << "}";
    }
    out << "]}";
  }
  out << (health.quality.empty() ? "" : "\n    ") << "]\n  },\n";
  const ServingSummary serving = SummarizeServing(metrics);
  const auto histogram_json = [&out](const HistogramSnapshot* h) {
    if (h == nullptr) {
      out << "null";
      return;
    }
    out << "{\"count\": " << h->count << ", \"mean\": "
        << (h->count == 0 ? 0.0 : h->sum / static_cast<double>(h->count))
        << ", \"p50\": " << h->Quantile(0.50)
        << ", \"p95\": " << h->Quantile(0.95)
        << ", \"p99\": " << h->Quantile(0.99) << ", \"buckets\": [";
    for (size_t i = 0; i < h->bucket_counts.size(); ++i) {
      out << (i ? ", " : "") << "{\"le\": ";
      if (i < h->bounds.size()) {
        out << h->bounds[i];
      } else {
        out << "\"inf\"";
      }
      out << ", \"count\": " << h->bucket_counts[i] << "}";
    }
    out << "]}";
  };
  out << "  \"serving\": {\n"
      << "    \"requests\": " << serving.requests << ",\n"
      << "    \"rows\": " << serving.rows << ",\n"
      << "    \"rejected\": " << serving.rejected << ",\n"
      << "    \"errors\": " << serving.errors << ",\n"
      << "    \"queue_depth\": " << serving.queue_depth << ",\n"
      << "    \"cache\": {\"hits\": " << serving.cache_hits
      << ", \"misses\": " << serving.cache_misses
      << ", \"reloads\": " << serving.cache_reloads
      << ", \"evictions\": " << serving.cache_evictions
      << ", \"loaded\": " << serving.cache_loaded << "},\n"
      << "    \"slo\": ";
  if (serving.slo_present) {
    out << "{\"breached\": " << (serving.slo_breached ? "true" : "false")
        << ", \"burn_short\": " << serving.slo_burn_short
        << ", \"burn_long\": " << serving.slo_burn_long
        << ", \"breaches\": " << serving.slo_breaches << "}";
  } else {
    out << "null";
  }
  out << ",\n    \"audit\": [";
  for (size_t i = 0; i < serving.audit.size(); ++i) {
    const ServingSummary::AuditRow& row = serving.audit[i];
    out << (i ? "," : "") << "\n      {\"deployment\": \""
        << Escape(row.deployment) << "\", \"verdict\": \"" << row.verdict()
        << "\", \"has_reference\": " << (row.has_reference ? "true" : "false")
        << ", \"audits\": " << row.audits
        << ", \"bad_audits\": " << row.bad_audits
        << ", \"degenerate\": " << row.degenerate << ", ";
    AppendScoresJson(out, row.scores);
    out << ", \"breached\": " << (row.breached ? "true" : "false")
        << ", \"breaches\": " << row.breaches
        << ", \"burn_short\": " << row.burn_short
        << ", \"burn_long\": " << row.burn_long << "}";
  }
  out << (serving.audit.empty() ? "" : "\n    ") << "]";
  out << ",\n    \"flight\": {\"dumps\": " << serving.flight_dumps
      << ", \"dump_failures\": " << serving.flight_dump_failures
      << ", \"dump_skipped\": " << serving.flight_dump_skipped << "},\n"
      << "    \"request_latency_ms\": ";
  histogram_json(serving.latency_ms);
  out << ",\n    \"batch_requests\": ";
  histogram_json(serving.batch_requests);
  out << ",\n    \"batch_rows\": ";
  histogram_json(serving.batch_rows);
  out << ",\n    \"quantiles\": {";
  for (size_t i = 0; i < serving.histograms.size(); ++i) {
    const auto& [name, histogram] = serving.histograms[i];
    out << (i ? "," : "") << "\n      \"" << Escape(name) << "\": ";
    histogram_json(histogram);
  }
  out << (serving.histograms.empty() ? "" : "\n    ") << "}\n  },\n";
  out << "  \"metrics\": " << metrics.ToJson() << "}\n";
  return out.str();
}

}  // namespace obs
}  // namespace silofuse
