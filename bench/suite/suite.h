// Shared pieces of sf_bench: run options, the metric sheet, sample
// statistics, registry windows, the reading of the library's own trace
// spans, and the evaluation/GEMM helpers both workload families use.

#ifndef SILOFUSE_BENCH_SUITE_SUITE_H_
#define SILOFUSE_BENCH_SUITE_SUITE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/generators/paper_datasets.h"
#include "data/table.h"
#include "diffusion/gaussian_ddpm.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sfbench {

using silofuse::Result;
using silofuse::Status;
using silofuse::Table;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;      // per-layer run: library spans on, component passes
  std::string work_dir;    // checkpoints of this run live under it
};

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}

/// q-quantile of raw samples by linear interpolation between order
/// statistics; 0 for no samples.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Seed of item (a, b) of a run: every input the workloads generate is a
/// pure function of the run seed through this.
uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// 64-bit FNV-1a over a table's shape and the bytes of every column.
uint64_t TableDigest(const Table& table);

/// Metric values of one run. Every name must appear in the catalogue
/// (suite.cc), which fixes its unit and kind: end-to-end (BENCHMARK.json's
/// end_to_end), per-layer (its per_layer) or informational (printed, never
/// in the result object).
class Sheet {
 public:
  Sheet();

  /// Sets a metric; `samples` > 0 is printed as the sample count behind a
  /// percentile or median.
  void Set(const std::string& name, double value, int64_t samples = 0);

  /// One operation of the timed window (a request or a pipeline rep).
  void Attempt(int64_t n = 1) { attempted_ += n; }
  /// A failed operation or correctness check; `what` goes to stderr.
  void Fail(const std::string& what);

  /// Human lines "name workload value unit [n=count]" for every metric set,
  /// then the contract's last line: the JSON result with the end-to-end
  /// metrics (trace = false) or the per-layer ones (trace = true). The
  /// result is correct only if every metric it must hold was measured.
  bool Print(const std::string& workload, bool trace) const;

 private:
  enum class Kind { kEndToEnd, kPerLayer, kInfo };
  struct Entry {
    std::string unit;
    Kind kind = Kind::kInfo;
    bool set = false;
    double value = 0.0;
    int64_t samples = 0;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Difference of two MetricsRegistry snapshots: what the program's own
/// counters and histograms recorded between Open and Close.
class RegistryWindow {
 public:
  RegistryWindow() { Open(); }
  void Open();
  void Close();

  int64_t Counter(const std::string& name) const;
  /// Bucket-interpolated quantile and exact mean of a histogram's window.
  double HistogramQuantile(const std::string& name, double q) const;
  double HistogramMean(const std::string& name) const;

 private:
  silofuse::obs::HistogramSnapshot Histogram(const std::string& name) const;

  silofuse::obs::MetricsSnapshot before_;
  silofuse::obs::MetricsSnapshot after_;
};

/// Per-layer metrics from the library's own spans (obs::EnableTracing):
/// self time per layer, "self_ms.<layer>", where a span's self time is its
/// duration minus its children's on the same thread (obs::BuildProfile),
/// and the Fit/synthesis/evaluation breakdown below, averaged per call.
/// A metric whose spans were not recorded is left out.
///
///   core.fit_ms, core.fit_other_ms   silofuse.fit, and its self time
///   client.ae_train_ms.sum, .max     client.train_autoencoder per Fit, and
///                                    the longest single silo
///   coordinator.train_ms             coordinator.train_ddpm
///   coordinator.train_step_us        ddpm.train_step
///   coordinator.sample_ms            one DDPM sampling pass
///   client.decode_ms                 self time of silofuse.synthesize*: the
///                                    silos' decode, per pass
///   eval.{resemblance,utility,privacy}_ms   the benchmark's eval.* spans
std::map<std::string, double> TraceMetrics(
    const std::vector<silofuse::obs::TraceEvent>& events);

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.

/// Quality of a synthetic table on the paper's three axes, each call inside
/// an eval.* span.
struct Scores {
  double resemblance = 0.0;
  double utility = 0.0;
  double privacy = 0.0;
  bool operator==(const Scores& o) const {
    return resemblance == o.resemblance && utility == o.utility &&
           privacy == o.privacy;
  }
};
Result<Scores> Evaluate(const Table& train, const Table& test,
                        const Table& synth,
                        const silofuse::DatasetTask& task, uint64_t seed);

/// Achieved GFLOP/s of Gemm at m = 4, 64 and 4096 rows for the input,
/// hidden, output and skip weight shapes of `ddpm`'s denoiser, into
/// gemm.gflops.m<m>.<role>. FLOPs are 2*m*n*k from the shapes.
void GemmPass(silofuse::GaussianDdpm* ddpm, Sheet* sheet);

/// Enables Matrix allocation accounting and returns the high-water mark in
/// MB of everything allocated between the two calls.
void BeginMatrixAccounting();
double EndMatrixAccountingMb();

/// Peak resident memory of the timed window: ResetPeakRss lowers the
/// kernel's high-water mark to the current RSS when the window opens, and
/// SetPeakRss reads it (getrusage ru_maxrss) into peak_rss_mb when the
/// window closes, so set-up and the checks afterwards do not count.
Status ResetPeakRss();
void SetPeakRss(Sheet* sheet);

/// 100 * (traced / untraced - 1); 0 when the untraced side is 0.
double OverheadPct(double traced, double untraced);

// Workloads.
Status RunPipeline(const RunOptions& options, Sheet* sheet);
Status RunServeSmall(const RunOptions& options, Sheet* sheet);
Status RunServeBulk(const RunOptions& options, Sheet* sheet);
Status RunServeMultitenant(const RunOptions& options, Sheet* sheet);

}  // namespace sfbench

#endif  // SILOFUSE_BENCH_SUITE_SUITE_H_
