#include "suite.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/rng.h"
#include "metrics/resemblance.h"
#include "metrics/utility.h"
#include "obs/profile.h"
#include "privacy/attacks.h"
#include "tensor/gemm.h"
#include "tensor/mem_stats.h"

namespace sfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports each of them, and
// BENCHMARK.json's end_to_end lists the same names and units.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},           {"rows_per_s", "rows/s"},
    {"resemblance", "score"},
};

// Per-layer metrics: a traced run of every workload measures each of them,
// and BENCHMARK.json's per_layer lists the same names and units.
constexpr MetricDef kPerLayer[] = {
    {"self_ms.core", "ms"},
    {"self_ms.distributed.client", "ms"},
    {"self_ms.distributed.channel", "ms"},
    {"self_ms.distributed.coordinator", "ms"},
    {"self_ms.runtime", "ms"},
    {"self_ms.eval", "ms"},
    {"core.fit_ms", "ms"},
    {"core.fit_other_ms", "ms"},
    {"client.ae_train_ms.sum", "ms"},
    {"client.ae_train_ms.max", "ms"},
    {"coordinator.train_ms", "ms"},
    {"coordinator.train_step_us", "us"},
    {"coordinator.sample_ms", "ms"},
    {"client.decode_ms", "ms"},
    {"channel.bytes", "bytes"},
    {"channel.messages", "count"},
    {"channel.rounds", "count"},
    {"eval.resemblance_ms", "ms"},
    {"eval.utility_ms", "ms"},
    {"eval.privacy_ms", "ms"},
    {"eval.utility", "score"},
    {"eval.privacy", "score"},
    {"gemm.gflops.m4.in", "GFLOP/s"},
    {"gemm.gflops.m4.hidden", "GFLOP/s"},
    {"gemm.gflops.m4.out", "GFLOP/s"},
    {"gemm.gflops.m4.skip", "GFLOP/s"},
    {"gemm.gflops.m64.in", "GFLOP/s"},
    {"gemm.gflops.m64.hidden", "GFLOP/s"},
    {"gemm.gflops.m64.out", "GFLOP/s"},
    {"gemm.gflops.m64.skip", "GFLOP/s"},
    {"gemm.gflops.m4096.in", "GFLOP/s"},
    {"gemm.gflops.m4096.hidden", "GFLOP/s"},
    {"gemm.gflops.m4096.out", "GFLOP/s"},
    {"gemm.gflops.m4096.skip", "GFLOP/s"},
    {"runtime.pool.tasks", "count"},
    {"runtime.pool.task_us.p50", "us"},
    {"matrix.peak_mb", "MB"},
    {"trace_overhead_pct.p50_ms", "%"},
    {"trace_overhead_pct.rows_per_s", "%"},
};

// Informational metrics, printed but in no result object: the ones only
// some workloads reach (serving phases and counters on the serving
// workloads) and p99_ms, whose run-to-run spread is wider than any bound
// the benchmark could hold it to.
constexpr MetricDef kInfo[] = {
    {"p99_ms", "ms"},
    {"gen.late_ms.p99", "ms"},
    {"self_ms.serve.server", "ms"},
    {"self_ms.serve.batcher", "ms"},
    {"self_ms.serve.model_cache", "ms"},
    {"serve.sample_ms.p50", "ms"},
    {"serve.sample_ms.p99", "ms"},
    {"serve.decode_ms.p50", "ms"},
    {"serve.stream_ms.p50", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.linger_ms.p50", "ms"},
    {"serve.linger_ms.p99", "ms"},
    {"serve.cache_load_ms.p50", "ms"},
    {"serve.batch.requests.mean", "count"},
    {"serve.batch.rows.mean", "rows"},
    {"serve.rejected", "count"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.loads", "count"},
    {"serve.cache.evictions", "count"},
    {"core.load_checkpoint_ms", "ms"},
    {"core.coalesced_ms", "ms"},
};

std::string FormatValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// The layer a library span belongs to, by its name; nullptr for spans of
// modules the benchmark does not break down.
const char* LayerOf(const std::string& span) {
  static constexpr std::pair<const char*, const char*> kPrefixes[] = {
      {"silofuse.", "core"},
      {"client.", "distributed.client"},
      {"ae.", "distributed.client"},
      {"channel.", "distributed.channel"},
      {"transfer.", "distributed.channel"},
      {"coordinator.", "distributed.coordinator"},
      {"ddpm.", "distributed.coordinator"},
      {"serve.cache_load", "serve.model_cache"},
      {"serve.dispatch", "serve.batcher"},
      {"serve.", "serve.server"},
      {"runtime.", "runtime"},
      {"pool.", "runtime"},
      {"eval.", "eval"},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (span.rfind(prefix, 0) == 0) return layer;
  }
  return nullptr;
}

struct SpanTotals {
  int64_t count = 0;
  double inclusive_ms = 0.0;
  double exclusive_ms = 0.0;
  double max_ms = 0.0;
};

// The spans called `name`, over every party or only unattributed ones.
SpanTotals Totals(const silofuse::obs::ProfileReport& profile,
                  const std::string& name, bool unattributed_only = false) {
  SpanTotals t;
  for (const silofuse::obs::HotspotRow& row : profile.hotspots) {
    if (row.name != name || (unattributed_only && !row.party.empty())) continue;
    t.count += row.count;
    t.inclusive_ms += static_cast<double>(row.inclusive_ns) / 1e6;
    t.exclusive_ms += static_cast<double>(row.exclusive_ns) / 1e6;
    t.max_ms = std::max(t.max_ms, static_cast<double>(row.max_ns) / 1e6);
  }
  return t;
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - lo);
}

uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b) {
  // splitmix64 over the three words.
  uint64_t x = seed;
  for (uint64_t word : {a, b}) {
    x += 0x9e3779b97f4a7c15ULL + word;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
  }
  return x;
}

uint64_t TableDigest(const Table& table) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  };
  const int shape[2] = {table.num_rows(), table.num_columns()};
  mix(shape, sizeof(shape));
  for (int c = 0; c < table.num_columns(); ++c) {
    const std::vector<double>& column = table.column_values(c);
    mix(column.data(), column.size() * sizeof(double));
  }
  return h;
}

// --- Sheet -----------------------------------------------------------------

Sheet::Sheet() {
  auto add = [this](const char* name, const char* unit, Kind kind) {
    order_.push_back(name);
    entries_[name] = Entry{unit, kind};
  };
  for (const MetricDef& m : kEndToEnd) add(m.name, m.unit, Kind::kEndToEnd);
  for (const MetricDef& m : kPerLayer) add(m.name, m.unit, Kind::kPerLayer);
  for (const MetricDef& m : kInfo) add(m.name, m.unit, Kind::kInfo);
}

void Sheet::Set(const std::string& name, double value, int64_t samples) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::cerr << "sf_bench: unknown metric '" << name << "'\n";
    std::abort();
  }
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  it->second.set = true;
  it->second.value = value;
  it->second.samples = samples;
}

void Sheet::Fail(const std::string& what) {
  ++failed_;
  std::cerr << "sf_bench: FAILED: " << what << "\n";
}

bool Sheet::Print(const std::string& workload, bool trace) const {
  const Kind reported = trace ? Kind::kPerLayer : Kind::kEndToEnd;
  bool complete = true;
  std::string json;
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    const bool required = e.kind == Kind::kEndToEnd || e.kind == reported;
    if (required && !e.set) {
      std::cerr << "sf_bench: metric " << name << " not measured\n";
      complete = false;
    }
    if (!e.set) continue;
    char line[256];
    std::snprintf(line, sizeof(line), "%s %s %.6g %s", name.c_str(),
                  workload.c_str(), e.value, e.unit.c_str());
    std::cout << line;
    if (e.samples > 0) std::cout << " n=" << e.samples;
    std::cout << "\n";
    if (e.kind != reported) continue;
    json += (json.empty() ? "" : ", ");
    json += "\"" + name + "\": {\"value\": " + FormatValue(e.value) +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  const bool correct = complete && failed_ == 0 && attempted_ > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {" << json << "}}" << std::endl;
  return correct;
}

// --- RegistryWindow ----------------------------------------------------------

void RegistryWindow::Open() {
  before_ = silofuse::obs::MetricsRegistry::Global().Snapshot();
  after_ = before_;
}

void RegistryWindow::Close() {
  after_ = silofuse::obs::MetricsRegistry::Global().Snapshot();
}

int64_t RegistryWindow::Counter(const std::string& name) const {
  auto value = [&name](const silofuse::obs::MetricsSnapshot& s) -> int64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return value(after_) - value(before_);
}

silofuse::obs::HistogramSnapshot RegistryWindow::Histogram(
    const std::string& name) const {
  silofuse::obs::HistogramSnapshot out;
  auto after = after_.histograms.find(name);
  if (after == after_.histograms.end()) return out;
  out = after->second;
  auto before = before_.histograms.find(name);
  if (before == before_.histograms.end()) return out;
  out.count -= before->second.count;
  out.sum -= before->second.sum;
  for (size_t i = 0; i < out.bucket_counts.size() &&
                     i < before->second.bucket_counts.size();
       ++i) {
    out.bucket_counts[i] -= before->second.bucket_counts[i];
  }
  return out;
}

double RegistryWindow::HistogramQuantile(const std::string& name,
                                         double q) const {
  return Histogram(name).Quantile(q);
}

double RegistryWindow::HistogramMean(const std::string& name) const {
  const silofuse::obs::HistogramSnapshot h = Histogram(name);
  return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

// --- Trace metrics -------------------------------------------------------------

std::map<std::string, double> TraceMetrics(
    const std::vector<silofuse::obs::TraceEvent>& events) {
  const silofuse::obs::ProfileReport profile =
      silofuse::obs::BuildProfile(events);
  std::map<std::string, double> out;
  for (const silofuse::obs::HotspotRow& row : profile.hotspots) {
    if (const char* layer = LayerOf(row.name)) {
      out[std::string("self_ms.") + layer] +=
          static_cast<double>(row.exclusive_ns) / 1e6;
    }
  }
  auto per_call = [&out](const char* metric, double total, int64_t calls) {
    if (calls > 0) out[metric] = total / static_cast<double>(calls);
  };
  const SpanTotals fit = Totals(profile, "silofuse.fit");
  const SpanTotals ae = Totals(profile, "client.train_autoencoder");
  per_call("core.fit_ms", fit.inclusive_ms, fit.count);
  per_call("core.fit_other_ms", fit.exclusive_ms, fit.count);
  per_call("client.ae_train_ms.sum", ae.inclusive_ms, fit.count);
  if (ae.count > 0) out["client.ae_train_ms.max"] = ae.max_ms;
  per_call("coordinator.train_ms",
           Totals(profile, "coordinator.train_ddpm").inclusive_ms, fit.count);
  const SpanTotals step = Totals(profile, "ddpm.train_step");
  per_call("coordinator.train_step_us", step.inclusive_ms * 1000.0, step.count);
  // The coordinator's own span around each pass; the facade wraps the
  // per-request one in a second, party-attributed span of the same name.
  const SpanTotals sample =
      Totals(profile, "coordinator.sample_latents", /*unattributed_only=*/true);
  per_call("coordinator.sample_ms", sample.inclusive_ms, sample.count);
  const SpanTotals solo = Totals(profile, "silofuse.synthesize");
  const SpanTotals coalesced = Totals(profile, "silofuse.synthesize_coalesced");
  per_call("client.decode_ms", solo.exclusive_ms + coalesced.exclusive_ms,
           solo.count + coalesced.count);
  for (const char* axis : {"resemblance", "utility", "privacy"}) {
    const SpanTotals t = Totals(profile, std::string("eval.") + axis);
    if (t.count > 0) {
      out[std::string("eval.") + axis + "_ms"] = t.inclusive_ms / t.count;
    }
  }
  return out;
}

// --- Shared helpers ------------------------------------------------------------

Result<Scores> Evaluate(const Table& train, const Table& test,
                        const Table& synth,
                        const silofuse::DatasetTask& task, uint64_t seed) {
  Scores scores;
  silofuse::Rng rng(seed);
  {
    SF_TRACE_SPAN("eval.resemblance");
    SF_ASSIGN_OR_RETURN(auto r,
                        silofuse::ComputeResemblance(train, synth, &rng));
    scores.resemblance = r.overall;
  }
  {
    SF_TRACE_SPAN("eval.utility");
    SF_ASSIGN_OR_RETURN(
        auto u, silofuse::ComputeUtility(train, test, synth, task, &rng));
    scores.utility = u.utility;
  }
  {
    SF_TRACE_SPAN("eval.privacy");
    SF_ASSIGN_OR_RETURN(auto p, silofuse::ComputePrivacy(
                                    train, synth, silofuse::PrivacyConfig{},
                                    &rng));
    scores.privacy = p.overall;
  }
  return scores;
}

void GemmPass(silofuse::GaussianDdpm* ddpm, Sheet* sheet) {
  // Parameters() lists the input projection, the hidden blocks, the output
  // projection and the skip path, each weight (in x out) followed by its
  // 1 x out bias.
  std::vector<const silofuse::Matrix*> weights;
  for (const silofuse::Parameter* p : ddpm->Parameters()) {
    if (p->value.rows() > 1) weights.push_back(&p->value);
  }
  if (weights.size() < 4) return;
  const std::pair<const char*, const silofuse::Matrix*> roles[] = {
      {"in", weights.front()},
      {"hidden", weights[1]},
      {"out", weights[weights.size() - 2]},
      {"skip", weights.back()},
  };
  silofuse::Rng rng(7);
  for (int m : {4, 64, 4096}) {
    for (const auto& [role, w] : roles) {
      const int k = w->rows();
      const int n = w->cols();
      const silofuse::Matrix a = silofuse::Matrix::RandomNormal(m, k, &rng);
      silofuse::Matrix c(m, n);
      // Repeat until 20 ms have run so small shapes get a stable rate.
      int calls = 0;
      const Clock::time_point start = Clock::now();
      do {
        silofuse::Gemm(false, false, m, n, k, 1.0f, a.data(), k, w->data(), n,
                       0.0f, c.data(), n);
        ++calls;
      } while (SecondsSince(start) < 0.02);
      const double flops = 2.0 * m * n * k * calls;
      sheet->Set(std::string("gemm.gflops.m") + std::to_string(m) + "." + role,
                 flops / SecondsSince(start) / 1e9);
    }
  }
}

void BeginMatrixAccounting() { silofuse::memstats::SetEnabled(true); }

double EndMatrixAccountingMb() {
  const double peak =
      static_cast<double>(silofuse::memstats::PeakBytes()) / (1024.0 * 1024.0);
  silofuse::memstats::SetEnabled(false);
  return peak;
}

Status ResetPeakRss() {
  // Memory set-up freed goes back to the kernel first, so the window starts
  // from what is live, not from what set-up left in malloc's free lists.
  malloc_trim(0);
  // "5" resets the high-water mark that ru_maxrss reports (Linux >= 4.0).
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) {
    return Status::IOError("cannot reset the peak RSS via /proc/self/clear_refs");
  }
  return Status::OK();
}

void SetPeakRss(Sheet* sheet) {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  sheet->Set("peak_rss_mb", usage.ru_maxrss / 1024.0);  // ru_maxrss is in KiB
}

double OverheadPct(double traced, double untraced) {
  return untraced != 0.0 ? 100.0 * (traced / untraced - 1.0) : 0.0;
}

}  // namespace sfbench
