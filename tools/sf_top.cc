// sf_top: live terminal dashboard over a SiloFuse introspection endpoint.
//
// Usage:
//   sf_top --target 127.0.0.1:9190 [--interval-ms 1000] [--frames N]
//          [--once] [--plain] [--no-statusz]
//
// Polls /metrics (Prometheus text exposition) and /statusz, and renders
// per-deployment QPS, windowed request-latency quantiles, per-phase mean
// latencies, queue depth, cache and SLO state, and the online audit scores.
// Rates and quantiles are computed from the DELTA between the two most
// recent scrapes, so the numbers describe the last interval, not the
// process lifetime. --once takes two scrapes one interval apart, renders a
// single frame, and exits (demo/CI mode); --plain never clears the screen.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lib/scrape.h"
#include "obs/metrics.h"

namespace silofuse {
namespace {

struct Args {
  std::string target;
  int interval_ms = 1000;
  int frames = 0;  // 0 = until interrupted
  bool once = false;
  bool plain = false;
  bool statusz = true;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "sf_top: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--target") {
      const char* v = value("--target");
      if (v == nullptr) return false;
      args->target = v;
    } else if (arg == "--interval-ms") {
      const char* v = value("--interval-ms");
      if (v == nullptr) return false;
      args->interval_ms = std::atoi(v);
    } else if (arg == "--frames") {
      const char* v = value("--frames");
      if (v == nullptr) return false;
      args->frames = std::atoi(v);
    } else if (arg == "--once") {
      args->once = true;
    } else if (arg == "--plain") {
      args->plain = true;
    } else if (arg == "--no-statusz") {
      args->statusz = false;
    } else {
      std::cerr << "sf_top: unknown flag " << arg << "\n";
      return false;
    }
  }
  if (args->target.empty()) {
    std::cerr << "usage: sf_top --target host:port [--interval-ms N] "
                 "[--frames N] [--once] [--plain] [--no-statusz]\n";
    return false;
  }
  if (args->interval_ms < 50) args->interval_ms = 50;
  if (args->once) args->frames = 1;
  return true;
}

/// One scrape digested for delta math: plain samples keyed by
/// "name|deployment", histogram buckets as (le, cumulative) lists keyed by
/// "family|deployment" (family = sample name minus "_bucket").
struct Scrape {
  int64_t t_ns = 0;
  std::map<std::string, double> values;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::set<std::string> deployments;
};

Scrape Digest(const obs::ExpositionDoc& doc, int64_t t_ns) {
  Scrape scrape;
  scrape.t_ns = t_ns;
  for (const obs::ExpositionSeries& series : doc.series) {
    const std::string deployment = series.Label("deployment");
    if (!deployment.empty()) scrape.deployments.insert(deployment);
    const std::string suffix = "_bucket";
    if (series.name.size() > suffix.size() &&
        series.name.compare(series.name.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
      const std::string family =
          series.name.substr(0, series.name.size() - suffix.size());
      const std::string le = series.Label("le");
      const double bound =
          le == "+Inf" ? std::numeric_limits<double>::infinity()
                       : std::strtod(le.c_str(), nullptr);
      scrape.buckets[family + "|" + deployment].emplace_back(bound,
                                                             series.value);
    } else {
      scrape.values[series.name + "|" + deployment] = series.value;
    }
  }
  for (auto& [key, list] : scrape.buckets) {
    std::sort(list.begin(), list.end());
  }
  return scrape;
}

double ValueOf(const Scrape& scrape, const std::string& name,
               const std::string& deployment) {
  auto it = scrape.values.find(name + "|" + deployment);
  return it == scrape.values.end() ? 0.0 : it->second;
}

double Delta(const Scrape& now, const Scrape& before, const std::string& name,
             const std::string& deployment) {
  return std::max(0.0, ValueOf(now, name, deployment) -
                           ValueOf(before, name, deployment));
}

/// Histogram activity between two scrapes, rebuilt from cumulative
/// `_bucket` series into the per-bucket form HistogramSnapshot::Quantile
/// expects. Counts are clamped at 0 so a server restart degrades to an
/// empty window instead of nonsense.
obs::HistogramSnapshot DeltaHistogram(const Scrape& now, const Scrape& before,
                                      const std::string& family,
                                      const std::string& deployment) {
  obs::HistogramSnapshot delta;
  auto it = now.buckets.find(family + "|" + deployment);
  if (it == now.buckets.end()) return delta;
  const auto& current = it->second;
  auto before_it = before.buckets.find(family + "|" + deployment);
  std::vector<double> cumulative;
  cumulative.reserve(current.size());
  for (const auto& [bound, value] : current) {
    double prev = 0.0;
    if (before_it != before.buckets.end()) {
      for (const auto& [b, v] : before_it->second) {
        if (b == bound) {
          prev = v;
          break;
        }
      }
    }
    if (std::isfinite(bound)) delta.bounds.push_back(bound);
    cumulative.push_back(std::max(0.0, value - prev));
  }
  double below = 0.0;
  for (double c : cumulative) {
    delta.bucket_counts.push_back(
        static_cast<int64_t>(std::max(0.0, c - below) + 0.5));
    below = c;
  }
  // A payload without the +Inf series still needs the overflow bucket.
  while (delta.bucket_counts.size() < delta.bounds.size() + 1) {
    delta.bucket_counts.push_back(0);
  }
  for (int64_t c : delta.bucket_counts) delta.count += c;
  delta.sum = Delta(now, before, family + "_sum", deployment);
  if (delta.count == 0) delta.sum = 0.0;
  return delta;
}

std::string Fixed(double v, int width, int places) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%*.*f", width, places, v);
  return buffer;
}

/// Mean of a phase histogram over the interval, in the histogram's unit.
double PhaseMean(const Scrape& now, const Scrape& before,
                 const std::string& family, const std::string& deployment) {
  const double count = Delta(now, before, family + "_count", deployment);
  const double sum = Delta(now, before, family + "_sum", deployment);
  return count > 0.0 ? sum / count : 0.0;
}

void RenderFrame(const Args& args, const Scrape& now, const Scrape& before,
                 const std::string& statusz, std::ostream& out) {
  const double dt =
      std::max(1e-9, static_cast<double>(now.t_ns - before.t_ns) / 1e9);
  const double qps = Delta(now, before, "serve_requests_total", "") / dt;
  const double rows = Delta(now, before, "serve_rows_total", "") / dt;
  const double requests = Delta(now, before, "serve_requests_total", "");
  const double errors = Delta(now, before, "serve_errors_total", "");
  const double rejected = Delta(now, before, "serve_rejected_total", "");
  const double error_pct =
      requests > 0.0 ? 100.0 * errors / requests : 0.0;

  out << "sf_top — " << args.target << " — interval " << Fixed(dt, 0, 1)
      << "s\n\n";
  out << "serve   " << Fixed(qps, 8, 1) << " qps  " << Fixed(rows, 9, 1)
      << " rows/s  errors " << Fixed(error_pct, 5, 1) << "%  rejected "
      << Fixed(rejected, 0, 0) << "  queue "
      << Fixed(ValueOf(now, "serve_queue_depth", ""), 0, 0) << "\n";
  out << "slo     breached " << Fixed(ValueOf(now, "serve_slo_breached", ""), 0, 0)
      << "  burn short/long " << Fixed(ValueOf(now, "serve_slo_burn_short", ""), 0, 2)
      << "/" << Fixed(ValueOf(now, "serve_slo_burn_long", ""), 0, 2) << "\n";
  const double cache_hits = Delta(now, before, "serve_cache_hits_total", "");
  const double cache_misses =
      Delta(now, before, "serve_cache_misses_total", "");
  if (cache_hits + cache_misses > 0.0) {
    out << "cache   hits " << Fixed(cache_hits, 0, 0) << "  misses "
        << Fixed(cache_misses, 0, 0) << "  hit rate "
        << Fixed(100.0 * cache_hits / (cache_hits + cache_misses), 5, 1)
        << "%\n";
  }
  const double flight_dumps = Delta(now, before, "flight_dumps_total", "");
  if (flight_dumps > 0.0) {
    out << "flight  " << Fixed(flight_dumps, 0, 0)
        << " dump(s) this interval\n";
  }

  out << "\ndeployment            qps    p50ms    p95ms   sample   decode"
         "   stream\n";
  auto row = [&](const std::string& label, const std::string& deployment) {
    const obs::HistogramSnapshot latency =
        DeltaHistogram(now, before, "serve_request_latency_ms", deployment);
    out << label;
    if (label.size() < 18) out << std::string(18 - label.size(), ' ');
    out << Fixed(static_cast<double>(latency.count) / dt, 8, 1)
        << Fixed(latency.Quantile(0.5), 9, 2)
        << Fixed(latency.Quantile(0.95), 9, 2)
        << Fixed(PhaseMean(now, before, "serve_sample_ms", deployment), 9, 2)
        << Fixed(PhaseMean(now, before, "serve_decode_ms", deployment), 9, 2)
        << Fixed(PhaseMean(now, before, "serve_stream_ms", deployment), 9, 2)
        << "\n";
  };
  row("(all)", "");
  for (const std::string& deployment : now.deployments) {
    row(deployment, deployment);
  }

  for (const std::string& deployment : now.deployments) {
    const double audits = ValueOf(now, "audit_audits_total", deployment);
    if (audits <= 0.0) continue;
    out << "\naudit[" << deployment << "]  marginal "
        << Fixed(ValueOf(now, "audit_marginal_distance", deployment), 0, 3)
        << "  corr "
        << Fixed(ValueOf(now, "audit_correlation_drift", deployment), 0, 3)
        << "  utility "
        << Fixed(ValueOf(now, "audit_utility_proxy", deployment), 0, 3)
        << "  dcr_p5 "
        << Fixed(ValueOf(now, "audit_dcr_p5", deployment), 0, 3) << "  bad "
        << Fixed(ValueOf(now, "audit_bad_audits_total", deployment), 0, 0)
        << "/" << Fixed(audits, 0, 0) << "\n";
  }

  if (!statusz.empty()) {
    out << "\n--- statusz ---\n" << statusz;
    if (statusz.back() != '\n') out << "\n";
  }
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  auto scrape_now = [&]() -> Result<Scrape> {
    auto body = obs::HttpGet(args.target, "/metrics");
    if (!body.ok()) return body.status();
    auto doc = obs::ParseExposition(body.Value());
    if (!doc.ok()) return doc.status();
    const int64_t t_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
    return Digest(doc.Value(), t_ns);
  };

  Result<Scrape> first = scrape_now();
  if (!first.ok()) {
    std::cerr << "sf_top: cannot scrape " << args.target << ": "
              << first.status().ToString() << "\n";
    return 1;
  }
  Scrape previous = std::move(first.Value());

  int rendered = 0;
  while (args.frames == 0 || rendered < args.frames) {
    std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
    Result<Scrape> next = scrape_now();
    if (!next.ok()) {
      std::cerr << "sf_top: scrape failed: " << next.status().ToString()
                << "\n";
      return 1;
    }
    std::string statusz;
    if (args.statusz) {
      auto body = obs::HttpGet(args.target, "/statusz");
      if (body.ok()) statusz = body.Value();
    }
    std::ostringstream frame;
    RenderFrame(args, next.Value(), previous, statusz, frame);
    if (!args.plain) std::cout << "\x1b[2J\x1b[H";
    std::cout << frame.str();
    if (args.plain) std::cout << "----------------------------------------\n";
    std::cout.flush();
    previous = std::move(next.Value());
    ++rendered;
  }
  return 0;
}

}  // namespace
}  // namespace silofuse

int main(int argc, char** argv) { return silofuse::Run(argc, argv); }
