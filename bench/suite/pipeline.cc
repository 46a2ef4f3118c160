// pipeline: the paper's flow on one caller thread. Each rep trains SiloFuse
// on a generated `adult` table across four silos (Algorithm 1), synthesizes
// from it (Algorithm 2) and scores the result. Training dominates: nn
// backward passes, Adam, the silo autoencoders and the latent DDPM; the
// serving layers are idle.
//
// A traced run alternates untraced reps with reps recorded by the library's
// own spans (obs::EnableTracing). Tracing must not change the output, so
// every rep, traced or not, must give the same table and scores.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/silofuse.h"
#include "data/split.h"
#include "suite.h"

namespace sfbench {
namespace {

using silofuse::Rng;
using silofuse::SiloFuse;
using silofuse::SiloFuseOptions;

constexpr char kDataset[] = "adult";
constexpr int kRows = 2000;
constexpr int kSynthRows = 10000;
// Set-up is short here, so more of them are cheap and steady its median.
constexpr int kSetups = 7;

// bench_common's paper profile (4 silos, batch 128, width 128, 25 sampling
// steps) at half its step budgets, so several reps fit one run.
SiloFuseOptions PipelineOptions() {
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 128;
  options.base.autoencoder_steps = 200;
  options.base.diffusion_train_steps = 500;
  options.base.batch_size = 128;
  options.base.inference_steps = 25;
  options.base.diffusion.hidden_dim = 128;
  options.partition.num_clients = 4;
  return options;
}

struct Inputs {
  silofuse::TrainTestSplit split;
  silofuse::DatasetTask task;
};

// Set-up: the inputs (the table and its held-out split), then a two-step
// Fit and a one-step Synthesize of a rep's row count, so the thread pool,
// the allocator and every matrix shape of a rep are warm before the first
// timed one.
Result<Inputs> SetUp(const SiloFuseOptions& options, uint64_t seed) {
  SF_ASSIGN_OR_RETURN(Table data, silofuse::GeneratePaperDataset(
                                      kDataset, kRows, SubSeed(seed, 1)));
  SF_ASSIGN_OR_RETURN(auto info, silofuse::GetPaperDatasetInfo(kDataset));
  Rng split_rng(SubSeed(seed, 2));
  Inputs inputs{silofuse::SplitTrainTest(data, 0.25, &split_rng), info.task};
  SiloFuseOptions warm_options = options;
  warm_options.base.autoencoder_steps = 2;
  warm_options.base.diffusion_train_steps = 2;
  SiloFuse warm(warm_options);
  Rng rng(seed);
  SF_RETURN_NOT_OK(warm.Fit(inputs.split.train, &rng));
  SF_RETURN_NOT_OK(
      warm.Synthesize(kSynthRows, &rng, silofuse::SamplingParams{1, 0.0})
          .status());
  return inputs;
}

struct Rep {
  std::unique_ptr<SiloFuse> model;
  Table table;
  double fit_s = 0.0;
  double synth_s = 0.0;
};

Result<Rep> FitAndSynthesize(const SiloFuseOptions& options, const Table& train,
                             uint64_t seed) {
  Rep rep;
  rep.model = std::make_unique<SiloFuse>(options);
  Rng rng(seed);
  const Clock::time_point start = Clock::now();
  SF_RETURN_NOT_OK(rep.model->Fit(train, &rng));
  const Clock::time_point fitted = Clock::now();
  SF_ASSIGN_OR_RETURN(rep.table, rep.model->Synthesize(kSynthRows, &rng));
  rep.fit_s = SecondsBetween(start, fitted);
  rep.synth_s = SecondsSince(fitted);
  return rep;
}

}  // namespace

Status RunPipeline(const RunOptions& options, Sheet* sheet) {
  const SiloFuseOptions model_options = PipelineOptions();
  std::vector<double> setup_s;
  Inputs inputs;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    SF_ASSIGN_OR_RETURN(inputs, SetUp(model_options, options.seed));
    setup_s.push_back(SecondsSince(start));
  }
  sheet->Set("setup_s", Median(setup_s), kSetups);

  const Table& train = inputs.split.train;
  const uint64_t fit_seed = SubSeed(options.seed, 3);
  const uint64_t eval_seed = SubSeed(options.seed, 4);

  // Per side (0 = untraced, 1 = traced): Fit + Synthesize time, and the
  // synthesis rate. Evaluation is timed per layer only: its cost depends on
  // the generated data, so it would make p50_ms vary with the seed.
  std::vector<double> rep_ms[2], rows_per_s[2];
  uint64_t digest = 0;
  Scores scores;
  // Traced reps: every per-layer value, a median over the reps at the end.
  std::map<std::string, std::vector<double>> per_rep;
  std::unique_ptr<SiloFuse> traced_model;
  double matrix_peak_mb = 0.0;

  SF_RETURN_NOT_OK(ResetPeakRss());
  // Reps run while the next one, as long as the last, still fits the window.
  const int min_reps = options.trace ? 4 : 3;
  const Clock::time_point window = Clock::now();
  double last_rep_s = 0.0;
  for (int rep = 0;
       rep < min_reps || SecondsSince(window) + last_rep_s <= options.seconds;
       ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    sheet->Attempt();
    RegistryWindow registry;
    if (traced) {
      silofuse::obs::ClearTraceEvents();
      silofuse::obs::EnableTracing("");
      BeginMatrixAccounting();
      registry.Open();
    }
    const Clock::time_point start = Clock::now();
    Result<Rep> result = FitAndSynthesize(model_options, train, fit_seed);
    Result<Scores> rep_scores =
        result.ok() ? Evaluate(train, inputs.split.test, result.Value().table,
                               inputs.task, eval_seed)
                    : Result<Scores>(result.status());
    last_rep_s = SecondsSince(start);
    if (traced) {
      silofuse::obs::DisableTracing();
      registry.Close();
      matrix_peak_mb = std::max(matrix_peak_mb, EndMatrixAccountingMb());
    }
    if (!rep_scores.ok()) {
      sheet->Fail("rep " + std::to_string(rep) + ": " +
                  rep_scores.status().ToString());
      continue;
    }
    Rep r = std::move(result).Value();
    // Every rep runs the same inputs and seeds, traced or not.
    const uint64_t rep_digest = TableDigest(r.table);
    if (rep_ms[0].empty() && rep_ms[1].empty()) {
      digest = rep_digest;
      scores = rep_scores.Value();
    } else if (rep_digest != digest || !(rep_scores.Value() == scores)) {
      sheet->Fail("rep " + std::to_string(rep) + (traced ? " (traced)" : "") +
                  " differs from the first rep's table or scores");
      continue;
    }
    rep_ms[traced].push_back((r.fit_s + r.synth_s) * 1000.0);
    rows_per_s[traced].push_back(kSynthRows / r.synth_s);
    if (!traced) continue;
    for (const auto& [metric, value] :
         TraceMetrics(silofuse::obs::SnapshotTraceEvents())) {
      per_rep[metric].push_back(value);
    }
    per_rep["runtime.pool.tasks"].push_back(
        static_cast<double>(registry.Counter("runtime.pool.tasks")));
    per_rep["runtime.pool.task_us.p50"].push_back(
        registry.HistogramQuantile("runtime.pool.task_us", 0.5));
    traced_model = std::move(r.model);
  }

  SetPeakRss(sheet);
  sheet->Set("p50_ms", Median(rep_ms[0]), rep_ms[0].size());
  sheet->Set("rows_per_s", Median(rows_per_s[0]), rows_per_s[0].size());
  sheet->Set("resemblance", scores.resemblance);
  sheet->Set("eval.utility", scores.utility);
  sheet->Set("eval.privacy", scores.privacy);
  if (traced_model == nullptr) return Status::OK();

  for (const auto& [metric, values] : per_rep) {
    sheet->Set(metric, Median(values), values.size());
  }
  const silofuse::Channel& wire = traced_model->channel();
  sheet->Set("channel.bytes", static_cast<double>(wire.total_bytes()));
  sheet->Set("channel.messages", static_cast<double>(wire.message_count()));
  sheet->Set("channel.rounds", static_cast<double>(wire.rounds()));
  sheet->Set("matrix.peak_mb", matrix_peak_mb);
  sheet->Set("trace_overhead_pct.p50_ms",
             OverheadPct(Median(rep_ms[1]), Median(rep_ms[0])));
  // rows_per_s is higher-is-better: overhead is the rate lost.
  sheet->Set("trace_overhead_pct.rows_per_s",
             OverheadPct(Median(rows_per_s[0]), Median(rows_per_s[1])));
  GemmPass(traced_model->coordinator()->ddpm(), sheet);
  return Status::OK();
}

}  // namespace sfbench
