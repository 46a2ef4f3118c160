// Serving workloads: load generated in this process, with at most nproc
// load-generator threads, against src/serve's SynthesisServer hosting
// checkpoints trained during set-up.
//
//   serve_small        bench_serving's request shape and nominal rate:
//                      open loop, Poisson arrivals of 4-row requests at
//                      50 rps against one deployment, four senders; then a
//                      saturating step, four closed-loop clients sending
//                      the same requests back to back.
//   serve_bulk         closed loop: two clients stream 4096-row requests.
//   serve_multitenant  a synthetic stress point, not a traffic estimate,
//                      and not in BENCHMARK.json: three deployments behind
//                      a two-model cache at 60 rps split 60/30/10, while a
//                      writer republishes the busiest one every 3 s.
//
// Every correctness check runs after the timed window, against solo
// syntheses on separately loaded copies of the checkpoints.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/silofuse.h"
#include "data/split.h"
#include "obs/flight_recorder.h"
#include "serve/server.h"
#include "suite.h"

namespace sfbench {
namespace {

using silofuse::CoalescedRequest;
using silofuse::Rng;
using silofuse::SiloFuse;
using silofuse::SiloFuseOptions;
using silofuse::serve::ServeOptions;
using silofuse::serve::ServeRequest;
using silofuse::serve::SynthesisServer;

constexpr int kSetups = 5;
constexpr int kDatasetRows = 1000;
constexpr int kCheckEvery = 10;
constexpr int kEvalRows = 1000;
// Share of the window an open-loop workload spends at its nominal rate; the
// rest is its saturating step.
constexpr double kOpenShare = 0.75;
// The serving contract: 25-step deterministic DDIM (ServeOptions defaults).
const silofuse::SamplingParams kServingParams{25, 0.0};

// bench_serving's deployment: two silos and a production-width 8x256
// denoiser, trained briefly — the window measures sampling, not fit.
SiloFuseOptions ServedModelOptions() {
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 80;
  options.base.diffusion_train_steps = 150;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 256;
  options.base.diffusion.num_layers = 8;
  options.partition.num_clients = 2;
  return options;
}

// One deployment per dataset, registered under the dataset's name.
struct DeploymentSpec {
  const char* dataset;
  int versions;  // trained checkpoints; the writer alternates between them
  double share;  // share of requests
};

struct Workload {
  std::vector<DeploymentSpec> deployments;
  SiloFuseOptions model = ServedModelOptions();
  ServeOptions serve;
  double rps = 0.0;     // > 0: an open-loop phase at this rate comes first
  int threads = 0;      // open-loop senders, and closed-loop clients
  int rows = 0;         // rows per request
  bool stream = false;  // closed-loop clients use SynthesizeStream
  int eval_deployment = 0;
  double republish_s = 0.0;  // > 0: writer period
};

struct Deployment {
  std::string name;
  silofuse::DatasetTask task;
  Table train;
  Table test;
  std::string path;                   // the registered checkpoint
  std::vector<std::string> versions;  // versions[0] is registered first
};

struct Stack {
  std::vector<Deployment> deployments;
  std::unique_ptr<SynthesisServer> server;
  // Wire totals of the first checkpoint's Fit, from its model's channel.
  int64_t channel_bytes = 0;
  int64_t channel_messages = 0;
  int64_t channel_rounds = 0;
};

// Atomically replaces `target` with a copy of `source`: write a temp file
// beside it, then rename it over the registered path.
Status Publish(const std::string& source, const std::string& target) {
  std::error_code ec;
  const std::string tmp = target + ".tmp";
  std::filesystem::copy_file(
      source, tmp, std::filesystem::copy_options::overwrite_existing, ec);
  if (!ec) std::filesystem::rename(tmp, target, ec);
  if (ec) return Status::IOError("publishing " + target + ": " + ec.message());
  return Status::OK();
}

// Generates and splits each deployment's table, trains and saves its
// checkpoint(s), registers it and sends it one warm request.
Result<Stack> SetUp(const Workload& w, const std::string& dir, uint64_t seed) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("creating " + dir + ": " + ec.message());
  Stack stack;
  for (size_t d = 0; d < w.deployments.size(); ++d) {
    const DeploymentSpec& spec = w.deployments[d];
    Deployment dep;
    dep.name = spec.dataset;
    SF_ASSIGN_OR_RETURN(Table data, silofuse::GeneratePaperDataset(
                                        spec.dataset, kDatasetRows,
                                        SubSeed(seed, 10, d)));
    SF_ASSIGN_OR_RETURN(auto info, silofuse::GetPaperDatasetInfo(spec.dataset));
    dep.task = info.task;
    Rng split_rng(SubSeed(seed, 11, d));
    silofuse::TrainTestSplit split = silofuse::SplitTrainTest(data, 0.25, &split_rng);
    dep.train = std::move(split.train);
    dep.test = std::move(split.test);
    for (int v = 0; v < spec.versions; ++v) {
      SiloFuse model(w.model);
      Rng rng(SubSeed(seed, 12, d * 16 + v));
      SF_RETURN_NOT_OK(model.Fit(dep.train, &rng));
      if (d == 0 && v == 0) {
        stack.channel_bytes = model.channel().total_bytes();
        stack.channel_messages = model.channel().message_count();
        stack.channel_rounds = model.channel().rounds();
      }
      const std::string path =
          dir + "/" + dep.name + ".v" + std::to_string(v) + ".ckpt";
      SF_RETURN_NOT_OK(model.SaveCheckpoint(path));
      dep.versions.push_back(path);
    }
    dep.path = dir + "/" + dep.name + ".ckpt";
    SF_RETURN_NOT_OK(Publish(dep.versions[0], dep.path));
    stack.deployments.push_back(std::move(dep));
  }
  stack.server = std::make_unique<SynthesisServer>(w.serve);
  for (const Deployment& dep : stack.deployments) {
    SF_RETURN_NOT_OK(stack.server->RegisterDeployment(dep.name, dep.path));
  }
  for (size_t d = 0; d < stack.deployments.size(); ++d) {
    ServeRequest warm;
    warm.deployment = stack.deployments[d].name;
    warm.rows = 4;
    warm.seed = SubSeed(seed, 13, d);
    SF_RETURN_NOT_OK(stack.server->Synthesize(warm).status());
  }
  return stack;
}

// Republishes one deployment every `period_s`, alternating its trained
// versions, so the cache hot-reloads it while requests are in flight.
class Republisher {
 public:
  Republisher(const Deployment* deployment, double period_s)
      : deployment_(deployment),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(period_s))),
        thread_([this] { Loop(); }) {}
  ~Republisher() { Stop(); }
  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  int publishes() const { return publishes_; }  // after Stop
  const Status& status() const { return status_; }  // after Stop

 private:
  void Loop() {
    size_t version = 0;
    Clock::time_point next = Clock::now() + period_;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_until(lock, next, [this] { return stop_; })) {
      version = (version + 1) % deployment_->versions.size();
      const Status published =
          Publish(deployment_->versions[version], deployment_->path);
      if (!published.ok() && status_.ok()) status_ = published;
      ++publishes_;
      next += period_;
    }
  }

  const Deployment* deployment_;
  const Clock::duration period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  int publishes_ = 0;
  Status status_;
  std::thread thread_;  // last: started after the members it uses
};

struct Outcome {
  int deployment = 0;
  uint64_t seed = 0;
  int rows = 0;
  bool ok = false;
  std::string error;
  double latency_ms = 0.0;  // open loop: from the due time
  double late_ms = 0.0;     // open loop: how late the sender sent it
  double done_s = 0.0;      // completion, from the phase start
  uint64_t digest = 0;
  Table table;  // kept where its rows are scored
};

std::vector<double> Shares(const Workload& w) {
  std::vector<double> shares;
  for (const DeploymentSpec& spec : w.deployments) shares.push_back(spec.share);
  return shares;
}

struct Arrival {
  double due_s = 0.0;
  int deployment = 0;
};

// A Poisson process holding n arrivals in [0, seconds) places them as n
// sorted uniform points; fixing n = rps * seconds keeps the offered load the
// same on every seed.
std::vector<Arrival> Arrivals(const Workload& w, double seconds, Rng* rng) {
  const std::vector<double> shares = Shares(w);
  std::vector<Arrival> arrivals(static_cast<size_t>(std::lround(w.rps * seconds)));
  for (Arrival& a : arrivals) {
    a.due_s = rng->Uniform(0.0, seconds);
    a.deployment = shares.size() > 1 ? rng->Categorical(shares) : 0;
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.due_s < b.due_s; });
  return arrivals;
}

// Open loop: the senders take arrivals in due order and sleep until each is
// due. Latency runs from the due time, so a stall counts against every
// request queued behind it.
std::vector<Outcome> RunOpenLoop(const Workload& w, const Stack& stack,
                                 double seconds, uint64_t seed,
                                 uint64_t request_base) {
  Rng rng(SubSeed(seed, 20, request_base));
  const std::vector<Arrival> arrivals = Arrivals(w, seconds, &rng);
  std::vector<Outcome> outcomes(arrivals.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  auto sender = [&] {
    for (size_t i = next.fetch_add(1); i < arrivals.size();
         i = next.fetch_add(1)) {
      Outcome& o = outcomes[i];
      o.deployment = arrivals[i].deployment;
      o.seed = SubSeed(seed, 21, request_base + i);
      o.rows = w.rows;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrivals[i].due_s));
      std::this_thread::sleep_until(due);
      o.late_ms = SecondsSince(due) * 1000.0;
      ServeRequest request;
      request.deployment = stack.deployments[o.deployment].name;
      request.rows = o.rows;
      request.seed = o.seed;
      Result<Table> response = stack.server->Synthesize(request);
      const Clock::time_point done = Clock::now();
      o.latency_ms = SecondsBetween(due, done) * 1000.0;
      o.done_s = SecondsBetween(start, done);
      o.ok = response.ok();
      if (!o.ok) {
        o.error = response.status().ToString();
        continue;
      }
      o.table = std::move(response).Value();
      o.digest = TableDigest(o.table);
    }
  };
  std::vector<std::thread> senders;
  for (int t = 0; t < w.threads; ++t) senders.emplace_back(sender);
  for (std::thread& t : senders) t.join();
  return outcomes;
}

// Closed loop: each client sends its next request as soon as the last one
// has been delivered, until `seconds` have passed.
std::vector<Outcome> RunClosedLoop(const Workload& w, const Stack& stack,
                                   double seconds, uint64_t seed,
                                   uint64_t request_base) {
  const std::vector<double> shares = Shares(w);
  std::vector<std::vector<Outcome>> per_client(w.threads);
  const Clock::time_point start = Clock::now();
  auto client = [&](int c) {
    Rng pick(SubSeed(seed, 29, request_base + c));
    for (uint64_t k = 0; SecondsSince(start) < seconds; ++k) {
      Outcome o;
      o.deployment = shares.size() > 1 ? pick.Categorical(shares) : 0;
      o.seed = SubSeed(seed, 30 + c, request_base + k);
      o.rows = w.rows;
      ServeRequest request;
      request.deployment = stack.deployments[o.deployment].name;
      request.rows = o.rows;
      request.seed = o.seed;
      auto send = [&]() -> Result<Table> {
        if (!w.stream) return stack.server->Synthesize(request);
        std::vector<Table> chunks;
        SF_RETURN_NOT_OK(stack.server->SynthesizeStream(
            request, [&chunks](const Table& chunk) {
              chunks.push_back(chunk);
              return Status::OK();
            }));
        return Table::ConcatRows(chunks);
      };
      const Clock::time_point sent = Clock::now();
      Result<Table> table = send();
      const Clock::time_point done = Clock::now();
      o.latency_ms = SecondsBetween(sent, done) * 1000.0;
      o.done_s = SecondsBetween(start, done);
      o.ok = table.ok();
      if (!o.ok) {
        o.error = table.status().ToString();
      } else {
        o.digest = TableDigest(table.Value());
        if (c == 0 && k == 0) o.table = std::move(table).Value();
      }
      per_client[c].push_back(std::move(o));
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < w.threads; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  std::vector<Outcome> outcomes;
  for (auto& list : per_client) {
    for (Outcome& o : list) outcomes.push_back(std::move(o));
  }
  return outcomes;
}

// One timed window: the open-loop phase, if the workload has one, then the
// closed-loop one.
struct Window {
  std::vector<Outcome> open;
  std::vector<Outcome> closed;
};

Window RunWindow(const Workload& w, const Stack& stack, double seconds,
                 uint64_t seed, uint64_t request_base) {
  Window window;
  double closed_s = seconds;
  if (w.rps > 0.0) {
    window.open =
        RunOpenLoop(w, stack, kOpenShare * seconds, seed, request_base);
    closed_s -= kOpenShare * seconds;
  }
  window.closed = RunClosedLoop(w, stack, closed_s, seed, request_base);
  return window;
}

// Latency samples of a window's nominal phase: the open loop where there is
// one, else the closed loop.
std::vector<double> LatenciesMs(const Window& window) {
  std::vector<double> latency_ms;
  for (const Outcome& o : window.open.empty() ? window.closed : window.open) {
    if (o.ok) latency_ms.push_back(o.latency_ms);
  }
  return latency_ms;
}

// Rows the closed-loop phase delivered per second, up to its last reply:
// the rate the server sustains with every client waiting on it.
double RowsPerSecond(const Window& window) {
  double rows = 0.0;
  double end_s = 0.0;
  for (const Outcome& o : window.closed) {
    if (!o.ok) continue;
    rows += o.rows;
    end_s = std::max(end_s, o.done_s);
  }
  return end_s > 0.0 ? rows / end_s : 0.0;
}

// Every kCheckEvery-th response must equal a solo synthesis with the same
// seed on a separately loaded copy of one of its deployment's versions.
void CheckResponses(const std::vector<Outcome>& outcomes, const Stack& stack,
                    Sheet* sheet) {
  std::vector<std::vector<std::unique_ptr<SiloFuse>>> models;
  for (const Deployment& dep : stack.deployments) {
    models.emplace_back();
    for (const std::string& path : dep.versions) {
      Result<std::unique_ptr<SiloFuse>> model = SiloFuse::LoadCheckpoint(path);
      if (!model.ok()) {
        sheet->Fail("loading " + path + ": " + model.status().ToString());
        continue;
      }
      models.back().push_back(std::move(model).Value());
    }
  }
  for (size_t i = 0; i < outcomes.size(); i += kCheckEvery) {
    const Outcome& o = outcomes[i];
    if (!o.ok) continue;  // already counted as failed
    bool match = false;
    for (auto& model : models[o.deployment]) {
      Rng rng(o.seed);
      Result<Table> solo = model->Synthesize(o.rows, &rng, kServingParams);
      if (solo.ok() && TableDigest(solo.Value()) == o.digest) {
        match = true;
        break;
      }
    }
    if (!match) {
      sheet->Fail("response " + std::to_string(i) + " (" +
                  stack.deployments[o.deployment].name +
                  ") differs from its solo synthesis");
    }
  }
}

// Counts every request of a window against `attempted`, its errors against
// `failed`, and byte-checks its responses.
void CheckWindow(const Window& window, const Stack& stack, Sheet* sheet) {
  for (const std::vector<Outcome>* phase : {&window.open, &window.closed}) {
    sheet->Attempt(phase->size());
    for (size_t i = 0; i < phase->size(); ++i) {
      if (!(*phase)[i].ok) {
        sheet->Fail("request " + std::to_string(i) + ": " + (*phase)[i].error);
      }
    }
    CheckResponses(*phase, stack, sheet);
  }
}

// The first kEvalRows rows served for deployment `d`, in request order.
Result<Table> ServedRows(const Window& window, int d) {
  std::vector<Table> parts;
  int rows = 0;
  for (const std::vector<Outcome>* phase : {&window.open, &window.closed}) {
    for (const Outcome& o : *phase) {
      if (rows >= kEvalRows) break;
      if (!o.ok || o.deployment != d || o.table.num_rows() == 0) continue;
      parts.push_back(o.table);
      rows += o.table.num_rows();
    }
  }
  if (parts.empty()) return Status::Unavailable("no served rows to score");
  SF_ASSIGN_OR_RETURN(Table all, Table::ConcatRows(parts));
  return all.SliceRows(0, std::min(kEvalRows, all.num_rows()));
}

// The server's phases over the traced half, as raw per-request durations
// from its always-on flight recorder (whose per-thread rings hold the last
// 4096 events, more than a traced half records), and its counters from the
// metrics registry.
void SetServerMetrics(const RegistryWindow& r, int64_t since_ns,
                      Sheet* sheet) {
  using silofuse::obs::FlightPhase;
  std::map<FlightPhase, std::vector<double>> phase_ms;
  for (const auto& e : silofuse::obs::FlightRecorder::Global().Snapshot()) {
    if (e.start_ns >= since_ns) {
      phase_ms[e.phase].push_back(static_cast<double>(e.end_ns - e.start_ns) / 1e6);
    }
  }
  const struct {
    const char* metric;
    FlightPhase phase;
    double q;
  } kPhases[] = {
      {"serve.sample_ms.p50", FlightPhase::kSample, 0.5},
      {"serve.sample_ms.p99", FlightPhase::kSample, 0.99},
      {"serve.decode_ms.p50", FlightPhase::kDecode, 0.5},
      {"serve.stream_ms.p50", FlightPhase::kStream, 0.5},
      {"serve.queue_ms.p50", FlightPhase::kQueue, 0.5},
      {"serve.queue_ms.p99", FlightPhase::kQueue, 0.99},
      {"serve.linger_ms.p50", FlightPhase::kLinger, 0.5},
      {"serve.linger_ms.p99", FlightPhase::kLinger, 0.99},
      {"serve.cache_load_ms.p50", FlightPhase::kCacheLoad, 0.5},
  };
  for (const auto& p : kPhases) {
    const std::vector<double>& samples = phase_ms[p.phase];
    sheet->Set(p.metric, Quantile(samples, p.q), samples.size());
  }
  sheet->Set("serve.batch.requests.mean", r.HistogramMean("serve.batch.requests"));
  sheet->Set("serve.batch.rows.mean", r.HistogramMean("serve.batch.rows"));
  sheet->Set("serve.rejected", r.Counter("serve.rejected"));
  const double hits = r.Counter("serve.cache.hits");
  const double loads =
      r.Counter("serve.cache.misses") + r.Counter("serve.cache.reloads");
  sheet->Set("serve.cache.hit_ratio",
             hits + loads > 0.0 ? hits / (hits + loads) : 0.0);
  sheet->Set("serve.cache.loads", loads);
  sheet->Set("serve.cache.evictions", r.Counter("serve.cache.evictions"));
}

// After the traced window: checkpoint load, one coalesced pass at the
// observed mean batch shape, and the GEMM shapes of the served backbone.
Status ComponentPass(const Deployment& dep, const RegistryWindow& r,
                     Sheet* sheet) {
  std::unique_ptr<SiloFuse> model;
  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    SF_ASSIGN_OR_RETURN(model, SiloFuse::LoadCheckpoint(dep.path));
    load_ms.push_back(SecondsSince(start) * 1000.0);
  }
  sheet->Set("core.load_checkpoint_ms", Median(load_ms), load_ms.size());

  const int requests = std::max(
      1, static_cast<int>(std::lround(r.HistogramMean("serve.batch.requests"))));
  const int rows = std::max(1, static_cast<int>(std::lround(
                                   r.HistogramMean("serve.batch.rows") / requests)));
  std::vector<double> pass_ms;
  for (int i = 0; i < 3; ++i) {
    std::deque<Rng> rngs;
    std::vector<CoalescedRequest> batch;
    for (int j = 0; j < requests; ++j) {
      rngs.emplace_back(j + 1);
      batch.push_back({rows, &rngs.back()});
    }
    const Clock::time_point start = Clock::now();
    SF_RETURN_NOT_OK(model->SynthesizeCoalesced(batch, kServingParams).status());
    pass_ms.push_back(SecondsSince(start) * 1000.0);
  }
  sheet->Set("core.coalesced_ms", Median(pass_ms), pass_ms.size());
  GemmPass(model->coordinator()->ddpm(), sheet);
  return Status::OK();
}

Status RunServe(const Workload& w, const RunOptions& options, Sheet* sheet) {
  // Set-up several times; the last stack serves the timed window. A traced
  // run traces the last set-up, whose Fit the per-layer training metrics
  // break down.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    const bool traced = options.trace && k == kSetups - 1;
    if (traced) silofuse::obs::EnableTracing("");
    const Clock::time_point start = Clock::now();
    Result<Stack> built = SetUp(
        w, options.work_dir + "/setup" + std::to_string(k), options.seed);
    if (traced) silofuse::obs::DisableTracing();
    if (!built.ok()) return built.status();
    setup_s.push_back(SecondsSince(start));
    stack = std::make_unique<Stack>(std::move(built).Value());
  }
  sheet->Set("setup_s", Median(setup_s), kSetups);

  // The timed window; a traced run spends its second half traced.
  SF_RETURN_NOT_OK(ResetPeakRss());
  std::unique_ptr<Republisher> republisher;
  if (w.republish_s > 0.0) {
    republisher = std::make_unique<Republisher>(&stack->deployments[0],
                                                w.republish_s);
  }
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const Window untraced = RunWindow(w, *stack, untraced_s, options.seed, 0);
  Window traced;
  RegistryWindow registry;
  double matrix_mb = 0.0;
  const int64_t traced_since_ns = silofuse::obs::TraceNowNs();
  if (options.trace) {
    silofuse::obs::EnableTracing("");
    BeginMatrixAccounting();
    registry.Open();
    traced = RunWindow(w, *stack, options.seconds - untraced_s, options.seed,
                       1u << 30);
    registry.Close();
    matrix_mb = EndMatrixAccountingMb();
    silofuse::obs::DisableTracing();
  }
  SetPeakRss(sheet);
  if (republisher != nullptr) {
    republisher->Stop();
    sheet->Attempt(republisher->publishes());
    if (!republisher->status().ok()) {
      sheet->Fail(republisher->status().ToString());
    }
  }

  // After the window: failures, byte checks and scores.
  CheckWindow(untraced, *stack, sheet);
  CheckWindow(traced, *stack, sheet);
  const std::vector<double> latency_ms = LatenciesMs(untraced);
  sheet->Set("p50_ms", Median(latency_ms), latency_ms.size());
  // p99 only where at least ten samples lie beyond it.
  if (latency_ms.size() >= 1000) {
    sheet->Set("p99_ms", Quantile(latency_ms, 0.99), latency_ms.size());
  }
  sheet->Set("rows_per_s", RowsPerSecond(untraced), untraced.closed.size());
  if (!untraced.open.empty()) {
    std::vector<double> late_ms;
    for (const Outcome& o : untraced.open) late_ms.push_back(o.late_ms);
    sheet->Set("gen.late_ms.p99", Quantile(late_ms, 0.99), late_ms.size());
  }

  const Deployment& scored = stack->deployments[w.eval_deployment];
  SF_ASSIGN_OR_RETURN(const Table rows, ServedRows(untraced, w.eval_deployment));
  if (options.trace) silofuse::obs::EnableTracing("");
  Result<Scores> scores = Evaluate(scored.train, scored.test, rows, scored.task,
                                   SubSeed(options.seed, 40));
  silofuse::obs::DisableTracing();
  SF_RETURN_NOT_OK(scores.status());
  sheet->Set("resemblance", scores.Value().resemblance);
  sheet->Set("eval.utility", scores.Value().utility);
  sheet->Set("eval.privacy", scores.Value().privacy);
  if (!options.trace) return Status::OK();

  // Per-layer numbers: spans of the traced set-up, half and scoring;
  // counters of the traced half.
  for (const auto& [metric, value] :
       TraceMetrics(silofuse::obs::SnapshotTraceEvents())) {
    sheet->Set(metric, value);
  }
  sheet->Set("channel.bytes", static_cast<double>(stack->channel_bytes));
  sheet->Set("channel.messages", static_cast<double>(stack->channel_messages));
  sheet->Set("channel.rounds", static_cast<double>(stack->channel_rounds));
  sheet->Set("runtime.pool.tasks",
             static_cast<double>(registry.Counter("runtime.pool.tasks")));
  sheet->Set("runtime.pool.task_us.p50",
             registry.HistogramQuantile("runtime.pool.task_us", 0.5));
  sheet->Set("matrix.peak_mb", matrix_mb);
  SetServerMetrics(registry, traced_since_ns, sheet);
  SF_RETURN_NOT_OK(ComponentPass(stack->deployments[0], registry, sheet));

  const std::vector<double> traced_latency_ms = LatenciesMs(traced);
  sheet->Set("trace_overhead_pct.p50_ms",
             OverheadPct(Median(traced_latency_ms), Median(latency_ms)));
  // rows_per_s is higher-is-better: overhead is the rate lost.
  sheet->Set("trace_overhead_pct.rows_per_s",
             OverheadPct(RowsPerSecond(untraced), RowsPerSecond(traced)));
  return Status::OK();
}

}  // namespace

Status RunServeSmall(const RunOptions& options, Sheet* sheet) {
  Workload w;
  w.deployments = {{"loan", 1, 1.0}};
  w.rps = 50.0;
  w.threads = 4;
  w.rows = 4;
  return RunServe(w, options, sheet);
}

Status RunServeBulk(const RunOptions& options, Sheet* sheet) {
  Workload w;
  w.deployments = {{"loan", 1, 1.0}};
  w.threads = 2;
  w.rows = 4096;  // fills max_batch_rows: every pass serves one request
  w.stream = true;
  return RunServe(w, options, sheet);
}

Status RunServeMultitenant(const RunOptions& options, Sheet* sheet) {
  Workload w;
  w.deployments = {{"loan", 2, 0.6}, {"adult", 1, 0.3}, {"abalone", 1, 0.1}};
  // Four checkpoints per set-up: half the training budget keeps set-up
  // near the single-tenant ones without changing the served architecture.
  w.model.base.autoencoder_steps /= 2;
  w.model.base.diffusion_train_steps /= 2;
  w.serve.cache.capacity = 2;
  w.rps = 60.0;
  w.threads = 3;
  w.rows = 4;
  w.eval_deployment = 1;
  w.republish_s = 3.0;
  return RunServe(w, options, sheet);
}

}  // namespace sfbench
