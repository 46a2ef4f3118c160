// Serving A/Bs that the repository benchmark (bench/suite, sf_bench) does
// not run. sf_bench measures the serving path's latency and throughput; this
// bench checks two things about it:
//
// Coalescing: 8 concurrent clients issue small synthesis requests
// back-to-back, once through per-request serial sampling (the no-batching
// baseline) and once through the server's coalescing batcher. Requests are
// deliberately small (a few rows each), the regime where one batched
// denoising pass amortizes the per-step fixed cost that each solo pass
// would pay alone. Every coalesced response is byte-compared against its
// serial counterpart: a speedup only counts if the answer is unchanged.
//
// Observability overhead: coalesced closed-loop throughput with a feature
// off vs on, for the flight recorder, the online quality auditor
// (src/obs/quality_audit) at an aggressive audit cadence, and the live
// introspection plane (src/obs/expose) with a client scraping /metrics every
// 100 ms. All three go through one paired A/B helper, MeasureOverhead: each
// pair runs one off-burst and one on-burst back to back, and the order
// alternates from pair to pair so slow drift (thermal, page cache) falls on
// both sides equally. A probe reports the median per-pair overhead with its
// quartiles.
//
// Exits 1 on a byte mismatch, or when a probe's first-quartile overhead
// exceeds 2 points: three quarters of its pairs then lost more than 2% of
// throughput with the feature on. Honors --metrics-out / SILOFUSE_METRICS
// for the serve.* metrics snapshot.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
constexpr int kRequestsPerClient = 2;  // closed loop and recorder bursts
constexpr int kPairs = 10;  // off/on pairs per probe; even, so each order runs 5x
constexpr double kOverheadBudgetPct = 2.0;

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
  double coalesced_rows_per_s = 0.0;
  double speedup = 0.0;
  int requests = 0;
  bool bytes_identical = true;
};

ClosedLoopResult RunClosedLoop(SiloFuse* model, SynthesisServer* server) {
  ClosedLoopResult result;
  result.requests = kConcurrency * kRequestsPerClient;
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
    clients.emplace_back([c, server, &responses] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        ServeRequest request;
        request.deployment = "bench";
        request.rows = kRowsPerRequest;
        request.seed = 10000 + static_cast<uint64_t>(c * kRequestsPerClient + r);
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
    for (int r = 0; r < kRequestsPerClient; ++r) {
      const int i = c * kRequestsPerClient + r;
      if (!TablesEqual(serial_outputs[i], responses[c][r])) {
        result.bytes_identical = false;
      }
    }
  }

  const double total_rows =
      static_cast<double>(result.requests) * kRowsPerRequest;
  result.coalesced_rows_per_s =
      total_rows / (result.coalesced_total_ms / 1000.0);
  result.speedup = result.serial_total_ms / result.coalesced_total_ms;
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
  // Per-pair throughput lost with the feature on, in percent of the pair's
  // off-side throughput. Negative when the on-burst was the faster one.
  double q1_pct = 0.0;
  double median_pct = 0.0;
  double q3_pct = 0.0;
  int64_t on_events = 0;  // feature activity during on-bursts, if counted
};

// Runs kPairs off/on burst pairs, alternating which side goes first, and
// summarizes the per-pair overheads. `before_on` and `after_on`, when set,
// run around every on-side burst.
OverheadResult MeasureOverhead(const AbSide& off, const AbSide& on,
                               int requests_per_client,
                               const std::function<void()>& before_on = {},
                               const std::function<void()>& after_on = {}) {
  const auto run_on = [&] {
    if (before_on) before_on();
    const double rows_per_s = CoalescedRowsPerSec(on, requests_per_client);
    if (after_on) after_on();
    return rows_per_s;
  };
  std::vector<double> overheads;
  for (int pair = 0; pair < kPairs; ++pair) {
    double off_rows_per_s = 0.0;
    double on_rows_per_s = 0.0;
    if (pair % 2 == 0) {
      off_rows_per_s = CoalescedRowsPerSec(off, requests_per_client);
      on_rows_per_s = run_on();
    } else {
      on_rows_per_s = run_on();
      off_rows_per_s = CoalescedRowsPerSec(off, requests_per_client);
    }
    overheads.push_back(100.0 * (off_rows_per_s - on_rows_per_s) /
                        off_rows_per_s);
  }
  OverheadResult result;
  result.q1_pct = Percentile(overheads, 0.25);
  result.median_pct = Percentile(overheads, 0.50);
  result.q3_pct = Percentile(overheads, 0.75);
  return result;
}

// Flight recorder: one server, the recorder switched on for each on-burst.
OverheadResult MeasureRecorderOverhead(SynthesisServer* server) {
  auto& flight = obs::FlightRecorder::Global();
  const bool was_enabled = flight.enabled();
  flight.SetEnabled(false);
  const AbSide side{server, "bench"};
  const OverheadResult result = MeasureOverhead(
      side, side, kRequestsPerClient, [&] { flight.SetEnabled(true); },
      [&] { flight.SetEnabled(false); });
  flight.SetEnabled(was_enabled);
  return result;
}

// Quality auditor: two servers over the same checkpoint, the on side
// running its background worker at a deliberately aggressive cadence (every
// burst gets sampled AND scored mid-traffic, worse than any production
// setting, so the budget bounds the realistic cost from above). on_events
// counts the scoring passes the audited server completed.
OverheadResult MeasureAuditOverhead(const ServeOptions& plain,
                                    const std::string& checkpoint) {
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
      kRequestsPerClient * 3);
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
                                         const std::string& checkpoint) {
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
      kRequestsPerClient * 6,
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

// Prints one probe's line and returns whether it stays within budget.
bool ReportOverhead(const char* name, const OverheadResult& result,
                    const char* events) {
  std::cout << "  " << name << ": overhead median " << result.median_pct
            << "% [Q1 " << result.q1_pct << "%, Q3 " << result.q3_pct
            << "%] over " << kPairs << " pairs";
  if (events != nullptr) {
    std::cout << " (" << result.on_events << " " << events
              << " during on-bursts)";
  }
  std::cout << "\n";
  if (result.q1_pct <= kOverheadBudgetPct) return true;
  std::cerr << "OVERHEAD OVER BUDGET: " << name << " Q1 " << result.q1_pct
            << "% > " << kOverheadBudgetPct << "%\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  obs::InitTelemetryFromArgs(argc, argv);

  // One deployment, trained briefly and served from its checkpoint (the
  // serving path is LoadCheckpoint-restored decode-only models). The
  // denoiser is production-sized (the paper's eight-layer backbone at a
  // serving-realistic width) because that is the regime coalescing is
  // for: sampling cost is dominated by the backbone GEMMs, and batched
  // requests keep the wide microkernel fed while per-request GEMMs can't.
  // Training steps are held low; the bench measures sampling, not fit.
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 20;
  options.base.diffusion_train_steps = 37;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 256;
  options.base.diffusion.num_layers = 8;  // paper: eight-layer backbone
  options.partition.num_clients = 2;
  Table data = GeneratePaperDataset("loan", 150, 17).Value();
  SiloFuse model(options);
  Rng rng(18);
  if (!model.Fit(data, &rng).ok()) {
    std::cerr << "training failed\n";
    return 1;
  }
  const std::string checkpoint = "bench_serving_model.ckpt";
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

  const ClosedLoopResult closed = RunClosedLoop(&model, &server);
  std::cout << "  closed loop (" << closed.requests << " requests): serial "
            << closed.serial_total_ms << " ms, coalesced "
            << closed.coalesced_total_ms << " ms  ->  x" << closed.speedup
            << " throughput (" << closed.coalesced_rows_per_s << " rows/s)\n";
  bool ok = closed.bytes_identical;
  if (!ok) {
    std::cerr << "BYTE MISMATCH: coalesced responses differ from solo runs\n";
  }

  ok &= ReportOverhead("flight recorder", MeasureRecorderOverhead(&server),
                       nullptr);
  // The auditor and introspection probes get 3x and 6x longer bursts: they
  // compare a 0-2% effect against scheduler noise, and their on-side work
  // runs on a period (20 ms audits, 100 ms scrapes) a short burst would miss.
  ok &= ReportOverhead("quality auditor",
                       MeasureAuditOverhead(serve_options, checkpoint),
                       "audits");
  ok &= ReportOverhead("introspection",
                       MeasureIntrospectOverhead(serve_options, checkpoint),
                       "scrapes");
  std::remove(checkpoint.c_str());
  return ok ? 0 : 1;
}
