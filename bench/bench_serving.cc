// Serving benchmark: closed-loop and open-loop load against the src/serve
// SynthesisServer, reporting latency quantiles and throughput vs offered
// load into BENCH_serving.json (gated by tools/bench_compare against
// bench/baselines/BENCH_serving.json).
//
// Closed loop: 8 concurrent clients issue small synthesis requests
// back-to-back, once through per-request serial sampling (the no-batching
// baseline) and once through the server's coalescing batcher. Requests are
// deliberately small (a few rows each) — the regime where one batched
// denoising pass amortizes the per-step fixed cost that each solo pass
// would pay alone. Every coalesced response is byte-compared against its
// serial counterpart: a speedup only counts if the answer is unchanged.
//
// Open loop: Poisson arrivals at fixed offered loads; reports completed /
// rejected counts, the reject rate (gated as a _pct key by bench_compare:
// absolute percentage-point slack, since rates near zero make relative
// thresholds meaningless), and p50/p95/p99 latency per load.
//
// Two observability sections ride along in the JSON:
//   "phases"          - interpolated p50/p95/p99 of the server's own
//                       serve.{queue,linger,sample,decode,stream}_ms
//                       histograms over the whole bench run, so the gate
//                       catches a regression in any single phase even when
//                       end-to-end latency hides it.
//   "flight_overhead" - coalesced closed-loop throughput with the flight
//                       recorder disabled vs enabled (best-of-N,
//                       alternating). overhead_pct is gated at the _pct
//                       class slack (2 points): the always-on recorder must
//                       stay within 2% of off.
//   "audit_overhead"  - same A/B for the online quality auditor
//                       (src/obs/quality_audit) at an aggressive audit
//                       cadence, so reservoir sampling plus background
//                       scoring must also stay within the 2-point
//                       overhead_pct gate.
//   "introspect_overhead" - same A/B for the live introspection plane
//                       (src/obs/expose): the on-side server runs the
//                       /metrics endpoint AND a client scraping it every
//                       100 ms throughout its bursts — hotter than any real
//                       scrape cadence — and must stay within the same
//                       2-point overhead_pct gate.
//
// All three overhead sections come from one alternating best-of-N A/B
// helper, MeasureOverhead.
//
// Flags: --smoke shrinks training and request counts for CI. Honors
// SILOFUSE_BENCH_SCALE for the training budget and --metrics-out /
// SILOFUSE_METRICS for the serve.* metrics snapshot.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "lib/scrape.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/server.h"

using namespace silofuse;
using namespace silofuse::serve;

namespace {

constexpr int kConcurrency = 8;
constexpr int kRowsPerRequest = 4;

struct Workload {
  int requests_per_client = 6;   // closed loop: per client
  int open_requests = 120;       // open loop: per offered load
  std::vector<double> offered_rps = {50.0, 150.0};
};

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool TablesEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    const auto& ca = a.column_values(c);
    const auto& cb = b.column_values(c);
    if (std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct ClosedLoopResult {
  double serial_total_ms = 0.0;
  double coalesced_total_ms = 0.0;
  double serial_req_ms = 0.0;
  double coalesced_req_ms = 0.0;
  double serial_rows_per_s = 0.0;
  double coalesced_rows_per_s = 0.0;
  double speedup = 0.0;
  int requests = 0;
  bool bytes_identical = true;
};

ClosedLoopResult RunClosedLoop(SiloFuse* model, SynthesisServer* server,
                               int requests_per_client) {
  ClosedLoopResult result;
  result.requests = kConcurrency * requests_per_client;
  const SamplingParams serving = server->options().defaults;

  // Serial baseline: the same request list, one solo sampling pass each.
  std::vector<Table> serial_outputs;
  serial_outputs.reserve(result.requests);
  const auto serial_start = std::chrono::steady_clock::now();
  for (int i = 0; i < result.requests; ++i) {
    Rng rng(10000 + static_cast<uint64_t>(i));
    auto table = model->Synthesize(kRowsPerRequest, &rng, serving);
    if (!table.ok()) {
      std::cerr << "serial synthesis failed: " << table.status().ToString()
                << "\n";
      std::exit(1);
    }
    serial_outputs.push_back(std::move(table).Value());
  }
  result.serial_total_ms = ElapsedMs(serial_start);

  // Coalesced: 8 closed-loop clients through the batching server.
  std::vector<std::vector<Table>> responses(kConcurrency);
  const auto coalesced_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kConcurrency);
  for (int c = 0; c < kConcurrency; ++c) {
    clients.emplace_back([c, server, requests_per_client, &responses] {
      for (int r = 0; r < requests_per_client; ++r) {
        ServeRequest request;
        request.deployment = "bench";
        request.rows = kRowsPerRequest;
        request.seed = 10000 + static_cast<uint64_t>(c * requests_per_client + r);
        auto response = server->Synthesize(request);
        if (!response.ok()) {
          std::cerr << "served synthesis failed: "
                    << response.status().ToString() << "\n";
          std::exit(1);
        }
        responses[c].push_back(std::move(response).Value());
      }
    });
  }
  for (std::thread& client : clients) client.join();
  result.coalesced_total_ms = ElapsedMs(coalesced_start);

  for (int c = 0; c < kConcurrency; ++c) {
    for (int r = 0; r < requests_per_client; ++r) {
      const int i = c * requests_per_client + r;
      if (!TablesEqual(serial_outputs[i], responses[c][r])) {
        result.bytes_identical = false;
      }
    }
  }

  const double total_rows =
      static_cast<double>(result.requests) * kRowsPerRequest;
  result.serial_req_ms =
      result.serial_total_ms / static_cast<double>(result.requests);
  result.coalesced_req_ms =
      result.coalesced_total_ms / static_cast<double>(result.requests);
  result.serial_rows_per_s = total_rows / (result.serial_total_ms / 1000.0);
  result.coalesced_rows_per_s =
      total_rows / (result.coalesced_total_ms / 1000.0);
  result.speedup = result.serial_total_ms / result.coalesced_total_ms;
  return result;
}

struct OpenLoopResult {
  double offered_rps = 0.0;
  int requests = 0;
  int completed = 0;
  int rejected = 0;
  double reject_rate_pct = 0.0;
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

OpenLoopResult RunOpenLoop(SynthesisServer* server, double offered_rps,
                           int requests) {
  OpenLoopResult result;
  result.offered_rps = offered_rps;
  result.requests = requests;

  std::mt19937_64 arrivals(99);  // fixed arrival process across runs
  std::exponential_distribution<double> gap_s(offered_rps);
  std::vector<double> latencies_ms(requests, -1.0);
  std::vector<int> rejected(requests, 0);
  std::vector<std::thread> in_flight;
  in_flight.reserve(requests);

  const auto start = std::chrono::steady_clock::now();
  double arrival_s = 0.0;
  for (int i = 0; i < requests; ++i) {
    arrival_s += gap_s(arrivals);
    const auto due =
        start + std::chrono::microseconds(static_cast<int64_t>(arrival_s * 1e6));
    std::this_thread::sleep_until(due);
    in_flight.emplace_back([i, server, &latencies_ms, &rejected] {
      ServeRequest request;
      request.deployment = "bench";
      request.rows = kRowsPerRequest;
      request.seed = 20000 + static_cast<uint64_t>(i);
      const auto sent = std::chrono::steady_clock::now();
      auto response = server->Synthesize(request);
      if (response.ok()) {
        latencies_ms[i] = ElapsedMs(sent);
      } else if (response.status().code() == StatusCode::kUnavailable) {
        rejected[i] = 1;
      }
    });
  }
  for (std::thread& thread : in_flight) thread.join();
  const double wall_ms = ElapsedMs(start);

  std::vector<double> completed_ms;
  for (int i = 0; i < requests; ++i) {
    if (latencies_ms[i] >= 0.0) completed_ms.push_back(latencies_ms[i]);
    result.rejected += rejected[i];
  }
  result.completed = static_cast<int>(completed_ms.size());
  result.reject_rate_pct =
      100.0 * static_cast<double>(result.rejected) / requests;
  result.achieved_rps =
      static_cast<double>(result.completed) / (wall_ms / 1000.0);
  result.p50_ms = Percentile(completed_ms, 0.50);
  result.p95_ms = Percentile(completed_ms, 0.95);
  result.p99_ms = Percentile(completed_ms, 0.99);
  return result;
}

// One side of an overhead A/B: the server a burst runs against and the
// deployment it requests.
struct AbSide {
  SynthesisServer* server;
  std::string deployment;
};

// Registers `checkpoint` as `deployment` and serves one request, so the
// side's first measured burst does not pay the lazy model load.
AbSide WarmSide(SynthesisServer* server, const std::string& deployment,
                const std::string& checkpoint, uint64_t seed) {
  ServeRequest warm;
  warm.deployment = deployment;
  warm.rows = kRowsPerRequest;
  warm.seed = seed;
  if (!server->RegisterDeployment(deployment, checkpoint).ok() ||
      !server->Synthesize(warm).ok()) {
    std::cerr << "overhead probe: cannot serve " << deployment << "\n";
    std::exit(1);
  }
  return {server, deployment};
}

// One coalesced closed-loop burst (no serial baseline, no byte compare):
// the unit of work for the overhead A/Bs below.
double CoalescedRowsPerSec(const AbSide& side, int requests_per_client) {
  const int requests = kConcurrency * requests_per_client;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kConcurrency);
  for (int c = 0; c < kConcurrency; ++c) {
    clients.emplace_back([c, &side, requests_per_client] {
      for (int r = 0; r < requests_per_client; ++r) {
        ServeRequest request;
        request.deployment = side.deployment;
        request.rows = kRowsPerRequest;
        request.seed = 30000 + static_cast<uint64_t>(c * requests_per_client + r);
        if (!side.server->Synthesize(request).ok()) {
          std::cerr << "overhead probe request failed\n";
          std::exit(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall_ms = ElapsedMs(start);
  return static_cast<double>(requests) * kRowsPerRequest / (wall_ms / 1000.0);
}

struct OverheadResult {
  double off_rows_per_s = 0.0;
  double on_rows_per_s = 0.0;
  double overhead_pct = 0.0;  // >= 0; throughput lost with the feature on
  int64_t on_events = 0;      // feature activity during on-bursts, if counted
};

// Alternates off-side and on-side bursts and keeps the best throughput of
// each (best-of-N rejects scheduler noise the same way bench_compare's
// min-of-N does). Alternation, rather than all-off then all-on, keeps slow
// drift (thermal, page cache) from biasing one side. `before_on` and
// `after_on`, when set, run around every on-side burst.
OverheadResult MeasureOverhead(const AbSide& off, const AbSide& on,
                               int requests_per_client, int reps,
                               const std::function<void()>& before_on = {},
                               const std::function<void()>& after_on = {}) {
  OverheadResult result;
  for (int rep = 0; rep < reps; ++rep) {
    result.off_rows_per_s = std::max(result.off_rows_per_s,
                                     CoalescedRowsPerSec(off, requests_per_client));
    if (before_on) before_on();
    result.on_rows_per_s = std::max(result.on_rows_per_s,
                                    CoalescedRowsPerSec(on, requests_per_client));
    if (after_on) after_on();
  }
  if (result.off_rows_per_s > 0.0) {
    result.overhead_pct = std::max(
        0.0, 100.0 * (result.off_rows_per_s - result.on_rows_per_s) /
                 result.off_rows_per_s);
  }
  return result;
}

// Flight recorder: one server, the recorder switched on for each on-burst.
OverheadResult MeasureRecorderOverhead(SynthesisServer* server,
                                       int requests_per_client, int reps) {
  auto& flight = obs::FlightRecorder::Global();
  const bool was_enabled = flight.enabled();
  flight.SetEnabled(false);
  const AbSide side{server, "bench"};
  const OverheadResult result = MeasureOverhead(
      side, side, requests_per_client, reps, [&] { flight.SetEnabled(true); },
      [&] { flight.SetEnabled(false); });
  flight.SetEnabled(was_enabled);
  return result;
}

// Quality auditor: two servers over the same checkpoint, the on side
// running its background worker at a deliberately aggressive cadence (every
// burst gets sampled AND scored mid-traffic — worse than any production
// setting, so the gate bounds the realistic cost from above). on_events
// counts the scoring passes the audited server completed.
OverheadResult MeasureAuditOverhead(const ServeOptions& plain,
                                    const std::string& checkpoint,
                                    int requests_per_client, int reps) {
  ServeOptions audited = plain;
  audited.enable_audit = true;
  audited.audit.audit_period_ns = 20LL * 1000 * 1000;   // score every 20 ms
  audited.audit.worker_period_ns = 10LL * 1000 * 1000;  // sweep every 10 ms
  audited.audit.min_audit_rows = 16;
  SynthesisServer off_server(plain);
  SynthesisServer on_server(audited);
  OverheadResult result = MeasureOverhead(
      WarmSide(&off_server, "bench_audit_off", checkpoint, 2),
      WarmSide(&on_server, "bench_audit_on", checkpoint, 2),
      requests_per_client, reps);
  for (const auto& row : on_server.DebugSnapshot().audit) {
    result.on_events += row.audits;
  }
  return result;
}

// Introspection plane: the on-side server runs the /metrics endpoint, and
// during each of its bursts a scraper thread fetches /metrics every 100 ms.
// 10 scrapes/s is an order of magnitude hotter than the fastest common
// Prometheus interval, while yielding the CPU between scrapes so the
// measurement reflects endpoint cost, not a busy-looping client starving
// the synthesis threads. The scraper only runs during on-bursts: an
// always-on scraper would burn CPU during the off-bursts too and mask the
// very overhead being measured. on_events counts the /metrics responses.
OverheadResult MeasureIntrospectOverhead(const ServeOptions& plain,
                                         const std::string& checkpoint,
                                         int requests_per_client, int reps) {
  ServeOptions introspected = plain;
  introspected.enable_introspection = true;
  introspected.introspection_port = 0;  // ephemeral
  SynthesisServer off_server(plain);
  SynthesisServer on_server(introspected);
  if (on_server.IntrospectionPort() < 0) {
    std::cerr << "introspect-overhead endpoint failed to start\n";
    std::exit(1);
  }
  const std::string target =
      "127.0.0.1:" + std::to_string(on_server.IntrospectionPort());
  std::atomic<bool> scraping{false};
  int64_t scrapes = 0;
  std::thread scraper;
  OverheadResult result = MeasureOverhead(
      WarmSide(&off_server, "bench_intro_off", checkpoint, 3),
      WarmSide(&on_server, "bench_intro_on", checkpoint, 3),
      requests_per_client, reps,
      [&] {
        scraping.store(true, std::memory_order_relaxed);
        scraper = std::thread([&] {
          while (scraping.load(std::memory_order_relaxed)) {
            if (obs::HttpGet(target, "/metrics", /*timeout_ms=*/1000).ok()) {
              ++scrapes;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        });
      },
      [&] {
        scraping.store(false, std::memory_order_relaxed);
        scraper.join();
      });
  result.on_events = scrapes;
  return result;
}

// p50/p95/p99 of each serve-phase histogram, interpolated from the
// registry's bucket counts accumulated over the whole bench run.
std::string PhasesJson() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  static constexpr struct {
    const char* key;    // JSON member under "phases"
    const char* metric; // registry histogram name
  } kPhases[] = {
      {"queue", "serve.queue_ms"},   {"linger", "serve.linger_ms"},
      {"sample", "serve.sample_ms"}, {"decode", "serve.decode_ms"},
      {"stream", "serve.stream_ms"},
  };
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& phase : kPhases) {
    auto it = snap.histograms.find(phase.metric);
    if (it == snap.histograms.end() || it->second.count == 0) continue;
    const obs::HistogramSnapshot& h = it->second;
    out << (first ? "" : ",") << "\n    \"" << phase.key << "\": {"
        << "\"count\": " << h.count << ", \"p50_ms\": " << h.Quantile(0.50)
        << ", \"p95_ms\": " << h.Quantile(0.95)
        << ", \"p99_ms\": " << h.Quantile(0.99) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}";
  return out.str();
}

std::string Json(bool smoke, const ClosedLoopResult& closed,
                 const std::vector<OpenLoopResult>& open,
                 const OverheadResult& overhead, const OverheadResult& audit,
                 const OverheadResult& introspect,
                 const std::string& phases) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"serving\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"concurrency\": " << kConcurrency << ",\n";
  out << "  \"rows_per_request\": " << kRowsPerRequest << ",\n";
  out << "  \"closed_loop\": {\n";
  out << "    \"requests\": " << closed.requests << ",\n";
  out << "    \"serial_total_ms\": " << closed.serial_total_ms << ",\n";
  out << "    \"coalesced_total_ms\": " << closed.coalesced_total_ms << ",\n";
  out << "    \"serial_req_ms\": " << closed.serial_req_ms << ",\n";
  out << "    \"coalesced_req_ms\": " << closed.coalesced_req_ms << ",\n";
  out << "    \"serial_rows_per_s\": " << closed.serial_rows_per_s << ",\n";
  out << "    \"coalesced_rows_per_s\": " << closed.coalesced_rows_per_s
      << ",\n";
  out << "    \"coalesced_speedup\": " << closed.speedup << ",\n";
  out << "    \"bytes_identical\": "
      << (closed.bytes_identical ? "true" : "false") << "\n  },\n";
  out << "  \"open_loop\": [";
  for (size_t i = 0; i < open.size(); ++i) {
    const OpenLoopResult& o = open[i];
    out << (i ? "," : "") << "\n    {\"offered_rps\": " << o.offered_rps
        << ", \"requests\": " << o.requests
        << ", \"completed\": " << o.completed
        << ", \"rejected\": " << o.rejected
        << ", \"reject_rate_pct\": " << o.reject_rate_pct
        << ", \"achieved_rps\": " << o.achieved_rps
        << ", \"p50_ms\": " << o.p50_ms << ", \"p95_ms\": " << o.p95_ms
        << ", \"p99_ms\": " << o.p99_ms << "}";
  }
  out << (open.empty() ? "" : "\n  ") << "],\n";
  out << "  \"phases\": " << phases << ",\n";
  out << "  \"flight_overhead\": {\n";
  out << "    \"recorder_off_rows_per_s\": " << overhead.off_rows_per_s
      << ",\n";
  out << "    \"recorder_on_rows_per_s\": " << overhead.on_rows_per_s << ",\n";
  out << "    \"overhead_pct\": " << overhead.overhead_pct << "\n  },\n";
  out << "  \"audit_overhead\": {\n";
  out << "    \"audit_off_rows_per_s\": " << audit.off_rows_per_s << ",\n";
  out << "    \"audit_on_rows_per_s\": " << audit.on_rows_per_s << ",\n";
  out << "    \"audits\": " << audit.on_events << ",\n";
  out << "    \"overhead_pct\": " << audit.overhead_pct << "\n  },\n";
  out << "  \"introspect_overhead\": {\n";
  out << "    \"introspect_off_rows_per_s\": " << introspect.off_rows_per_s
      << ",\n";
  out << "    \"introspect_on_rows_per_s\": " << introspect.on_rows_per_s
      << ",\n";
  out << "    \"scrapes\": " << introspect.on_events << ",\n";
  out << "    \"overhead_pct\": " << introspect.overhead_pct << "\n  }\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  argc = obs::InitTelemetryFromArgs(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  Workload workload;
  if (smoke) {
    workload.requests_per_client = 2;
    workload.open_requests = 25;
  }

  // One deployment, trained briefly and served from its checkpoint (the
  // serving path is LoadCheckpoint-restored decode-only models). The
  // denoiser is production-sized — the paper's eight-layer backbone at a
  // serving-realistic width — because that is the regime coalescing is
  // for: sampling cost is dominated by the backbone GEMMs, and batched
  // requests keep the wide microkernel fed while per-request GEMMs can't.
  // Training steps are held low; the bench measures sampling, not fit.
  const double scale = smoke ? 0.25 : std::min(1.0, bench::Scale());
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = std::max(20, static_cast<int>(80 * scale));
  options.base.diffusion_train_steps =
      std::max(30, static_cast<int>(150 * scale));
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 256;
  options.base.diffusion.num_layers = 8;  // paper: eight-layer backbone
  options.partition.num_clients = 2;
  Table data =
      GeneratePaperDataset("loan", std::max(150, static_cast<int>(400 * scale)), 17)
          .Value();
  SiloFuse model(options);
  Rng rng(18);
  if (!model.Fit(data, &rng).ok()) {
    std::cerr << "training failed\n";
    return 1;
  }
  const std::string checkpoint = "BENCH_serving_model.ckpt";
  if (!model.SaveCheckpoint(checkpoint).ok()) {
    std::cerr << "checkpoint save failed\n";
    return 1;
  }

  ServeOptions serve_options;
  serve_options.batcher.max_batch_requests = kConcurrency;
  serve_options.batcher.max_linger_us = 2000;
  SynthesisServer server(serve_options);
  if (!server.RegisterDeployment("bench", checkpoint).ok()) {
    std::cerr << "deployment registration failed\n";
    return 1;
  }

  std::cout << "== serving bench: " << kConcurrency << " clients, "
            << kRowsPerRequest << " rows/request, "
            << server.options().defaults.steps << "-step DDIM ==\n";

  // Warmup: fault in the model and JIT the cache/batcher paths.
  {
    ServeRequest warm;
    warm.deployment = "bench";
    warm.rows = kRowsPerRequest;
    warm.seed = 1;
    if (!server.Synthesize(warm).ok()) {
      std::cerr << "warmup request failed\n";
      return 1;
    }
  }

  const ClosedLoopResult closed =
      RunClosedLoop(&model, &server, workload.requests_per_client);
  std::cout << "  closed loop (" << closed.requests << " requests): serial "
            << closed.serial_total_ms << " ms, coalesced "
            << closed.coalesced_total_ms << " ms  ->  x" << closed.speedup
            << " throughput (" << closed.coalesced_rows_per_s << " rows/s)\n";
  if (!closed.bytes_identical) {
    std::cerr << "BYTE MISMATCH: coalesced responses differ from solo runs\n";
  } else if (closed.speedup < 2.0) {
    std::cerr << "warning: coalescing speedup below 2x (" << closed.speedup
              << ")\n";
  }

  std::vector<OpenLoopResult> open;
  for (double rps : workload.offered_rps) {
    open.push_back(RunOpenLoop(&server, rps, workload.open_requests));
    const OpenLoopResult& o = open.back();
    std::cout << "  open loop " << o.offered_rps << " req/s: " << o.completed
              << "/" << o.requests << " ok (" << o.rejected << " rejected, "
              << o.reject_rate_pct << "%), p50 " << o.p50_ms << " ms, p95 "
              << o.p95_ms << " ms, p99 " << o.p99_ms << " ms\n";
  }

  const OverheadResult overhead = MeasureRecorderOverhead(
      &server, workload.requests_per_client, smoke ? 2 : 3);
  std::cout << "  flight recorder: off " << overhead.off_rows_per_s
            << " rows/s, on " << overhead.on_rows_per_s << " rows/s  ->  "
            << overhead.overhead_pct << "% overhead\n";

  // Longer bursts than the recorder A/B: the audit gate compares a 0-2%
  // effect, so each side gets 3x the requests to push scheduler noise
  // below the 2-point _pct slack.
  const OverheadResult audit = MeasureAuditOverhead(
      serve_options, checkpoint, workload.requests_per_client * 3,
      smoke ? 3 : 4);
  std::cout << "  quality auditor: off " << audit.off_rows_per_s
            << " rows/s, on " << audit.on_rows_per_s << " rows/s  ->  "
            << audit.overhead_pct << "% overhead (" << audit.on_events
            << " audits during bursts)\n";

  // Same long-burst setting as the audit gate: the introspection A/B also
  // compares a 0-2% effect against scheduler noise.
  const OverheadResult introspect = MeasureIntrospectOverhead(
      serve_options, checkpoint, workload.requests_per_client * 6,
      smoke ? 4 : 5);
  std::cout << "  introspection: off " << introspect.off_rows_per_s
            << " rows/s, on " << introspect.on_rows_per_s << " rows/s  ->  "
            << introspect.overhead_pct << "% overhead (" << introspect.on_events
            << " scrapes during bursts)\n";

  const std::string json =
      Json(smoke, closed, open, overhead, audit, introspect, PhasesJson());
  std::ofstream("BENCH_serving.json") << json;
  std::cout << "\n" << json << "(written to BENCH_serving.json)\n";
  std::remove(checkpoint.c_str());
  return closed.bytes_identical ? 0 : 1;
}
