// sf_report: one merged run report (Markdown and/or JSON) from SiloFuse
// telemetry — per-round communication, the trace-derived critical path, the
// hotspot table, and headline metrics.
//
// Two modes:
//
//   sf_report --run [--clients M] [--rows N] [--faults] [--trace-out t.json]
//     Executes an end-to-end distributed run in-process (coordinator + M
//     clients; --faults adds drops/duplicates/delays on a virtual clock),
//     with tracing on, and reports on the telemetry it produced.
//
//   sf_report --metrics metrics.json [--trace trace.json]
//   sf_report --metrics http://host:port/varz
//     Post-hoc mode: rebuilds the report from telemetry files exported by
//     any silofuse binary (SILOFUSE_METRICS / SILOFUSE_TRACE), or scraped
//     live from a running server's /varz endpoint (identical schema).
//
//   sf_report --serve [--rows N] [--trace-out t.json]
//     Serving demo: trains a small model, hosts it in a SynthesisServer
//     with SLO monitoring on, drives a concurrent burst of plain and
//     streaming requests (including deliberate backpressure sheds), and
//     reports — the Serving section then carries per-phase and
//     per-deployment latency quantiles, the SLO verdict, and any
//     flight-recorder dumps.
//
// Common flags: --out report.md --json-out report.json (default: Markdown
// to stdout).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "lib/json.h"
#include "lib/run_report.h"
#include "lib/scrape.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serve/server.h"

using namespace silofuse;

namespace {

struct Args {
  bool run = false;
  bool serve = false;
  bool faults = false;
  int clients = 4;
  int rows = 600;
  std::string metrics_path;
  std::string trace_path;
  std::string out_path;
  std::string json_out_path;
  std::string trace_out_path;
  /// --serve only: non-empty enables the introspection endpoint ("auto" =
  /// ephemeral port, otherwise a port number).
  std::string introspect;
  /// --serve only: written with "<port>\n" once the endpoint is up, so a
  /// harness (the CI scrape job) can find it without parsing logs.
  std::string port_file;
  /// --serve only: keep the server (and its endpoint) alive this long after
  /// the burst, so external scrapers get a window against live state.
  int linger_ms = 0;
};

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--run [--clients M] [--rows N] [--faults] "
               "[--trace-out FILE] | --serve [--rows N] [--trace-out FILE] "
               "[--introspect PORT|auto] [--port-file FILE] [--linger-ms N] "
               "| --metrics FILE|http://host:port[/varz] [--trace FILE]) "
               "[--out FILE] [--json-out FILE]\n";
  return 64;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--run") {
      args->run = true;
    } else if (flag == "--serve") {
      args->serve = true;
    } else if (flag == "--faults") {
      args->faults = true;
    } else if (flag == "--clients") {
      const char* v = value();
      if (v == nullptr) return false;
      args->clients = std::atoi(v);
    } else if (flag == "--rows") {
      const char* v = value();
      if (v == nullptr) return false;
      args->rows = std::atoi(v);
    } else if (flag == "--metrics") {
      const char* v = value();
      if (v == nullptr) return false;
      args->metrics_path = v;
    } else if (flag == "--trace") {
      const char* v = value();
      if (v == nullptr) return false;
      args->trace_path = v;
    } else if (flag == "--out") {
      const char* v = value();
      if (v == nullptr) return false;
      args->out_path = v;
    } else if (flag == "--json-out") {
      const char* v = value();
      if (v == nullptr) return false;
      args->json_out_path = v;
    } else if (flag == "--trace-out") {
      const char* v = value();
      if (v == nullptr) return false;
      args->trace_out_path = v;
    } else if (flag == "--introspect") {
      const char* v = value();
      if (v == nullptr) return false;
      args->introspect = v;
    } else if (flag == "--port-file") {
      const char* v = value();
      if (v == nullptr) return false;
      args->port_file = v;
    } else if (flag == "--linger-ms") {
      const char* v = value();
      if (v == nullptr) return false;
      args->linger_ms = std::atoi(v);
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  return args->run || args->serve || !args->metrics_path.empty();
}

std::vector<obs::RoundStat> RoundStatsFromChannel(const Channel& channel) {
  std::vector<obs::RoundStat> rounds;
  for (const ChannelRound& r : channel.RoundLog()) {
    obs::RoundStat stat;
    stat.bytes = r.bytes;
    stat.messages = r.messages;
    stat.retries = r.retries;
    stat.redelivered_bytes = r.redelivered_bytes;
    stat.wall_ms = r.wall_ms;
    rounds.push_back(stat);
  }
  return rounds;
}

/// End-to-end distributed run: coordinator + M clients over the in-process
/// wire, optionally with injected faults on a virtual clock so retries cost
/// no real time.
int RunAndReport(const Args& args, obs::ProfileReport* profile,
                 std::vector<obs::RoundStat>* rounds) {
  obs::EnableTracing(args.trace_out_path);
  auto data = GeneratePaperDataset("loan", args.rows, /*seed=*/1);
  if (!data.ok()) {
    std::cerr << data.status().ToString() << "\n";
    return 1;
  }
  SiloFuseOptions options;
  options.base.autoencoder_steps = 150;
  options.base.diffusion_train_steps = 300;
  options.base.batch_size = 128;
  // Mid-training quality probes feed the report's "Training health" section
  // (4 probes across the diffusion budget).
  options.base.quality_probe_every = 75;
  options.partition.num_clients = args.clients;

  FaultPlan plan(0x5f07);
  VirtualClock clock;
  if (args.faults) {
    FaultSpec flaky;
    flaky.drop_prob = 0.2;
    flaky.duplicate_prob = 0.1;
    flaky.delay_prob = 0.1;
    flaky.delay_ms = 15;
    plan.SetDefaultFaults(flaky);
    options.fault.plan = &plan;
    options.fault.clock = &clock;
    options.fault.retry.initial_backoff_ms = 5;
  }

  Rng rng(7);
  SiloFuse model(options);
  Status fit = model.Fit(data.Value(), &rng);
  if (!fit.ok()) {
    std::cerr << "Fit failed: " << fit.ToString() << "\n";
    return 1;
  }
  auto synth = model.SynthesizePartitioned(args.rows, &rng);
  if (!synth.ok()) {
    std::cerr << "Synthesize failed: " << synth.status().ToString() << "\n";
    return 1;
  }
  *profile = obs::BuildProfile(obs::SnapshotTraceEvents());
  *rounds = RoundStatsFromChannel(model.channel());
  if (!args.trace_out_path.empty()) {
    Status s = obs::WriteTraceJson(args.trace_out_path);
    if (!s.ok()) std::cerr << s.ToString() << "\n";
  }
  obs::DisableTracing();
  return 0;
}

/// Serving demo: a small trained deployment behind a SynthesisServer with
/// SLO monitoring, hit by a concurrent burst (plain + streaming requests,
/// plus a deliberate over-offered spike against a tiny queue so the report
/// shows real backpressure sheds). Fills the metrics registry; the caller
/// snapshots it for the report. Appends a debug-snapshot section to
/// `extra_md`.
int ServeAndReport(const Args& args, obs::ProfileReport* profile,
                   std::string* extra_md) {
  obs::EnableTracing(args.trace_out_path);
  auto data = GeneratePaperDataset("loan", std::max(200, args.rows),
                                   /*seed=*/1);
  if (!data.ok()) {
    std::cerr << data.status().ToString() << "\n";
    return 1;
  }
  SiloFuseOptions options;
  options.base.autoencoder_steps = 120;
  options.base.diffusion_train_steps = 200;
  options.base.batch_size = 128;
  options.partition.num_clients = 2;
  Rng rng(7);
  SiloFuse model(options);
  if (Status fit = model.Fit(data.Value(), &rng); !fit.ok()) {
    std::cerr << "Fit failed: " << fit.ToString() << "\n";
    return 1;
  }
  const std::string ckpt = "sf_report_serve_model.ckpt";
  if (Status save = model.SaveCheckpoint(ckpt); !save.ok()) {
    std::cerr << "SaveCheckpoint failed: " << save.ToString() << "\n";
    return 1;
  }

  serve::ServeOptions serve_options;
  serve_options.batcher.max_linger_us = 500;
  serve_options.batcher.max_queue_depth = 8;  // small: the spike must shed
  serve_options.enable_slo = true;
  serve_options.slo.latency_objective_ms = 250.0;
  serve_options.slo.min_requests = 8;
  serve_options.flight_dump_dir = ".";
  // Quality auditing on: the report's "Synthesis quality" verdict table is
  // fed from the audit.<deployment>.* metrics. A short period + a final
  // forced RunOnce below guarantee at least one scoring pass per run.
  serve_options.enable_audit = true;
  serve_options.audit.audit_period_ns = 1;
  serve_options.audit.min_audit_rows = 16;
  // One dump per 10 s incident window even if the latency SLO and the
  // quality auditor trip together.
  serve_options.flight_trigger_dedup_ns = 10LL * 1000 * 1000 * 1000;
  if (!args.introspect.empty()) {
    serve_options.enable_introspection = true;
    if (args.introspect != "auto") {
      serve_options.introspection_port = std::atoi(args.introspect.c_str());
    }
  }
  serve::SynthesisServer server(serve_options);
  if (!args.introspect.empty()) {
    const int port = server.IntrospectionPort();
    if (port < 0) {
      std::cerr << "introspection endpoint failed to start\n";
      return 1;
    }
    std::cerr << "introspection: 127.0.0.1:" << port << "\n";
    if (!args.port_file.empty()) {
      std::ofstream port_out(args.port_file, std::ios::trunc);
      port_out << port << "\n";
      if (!port_out.flush()) {
        std::cerr << "cannot write " << args.port_file << "\n";
        return 1;
      }
    }
  }
  if (Status reg = server.RegisterDeployment("demo", ckpt); !reg.ok()) {
    std::cerr << reg.ToString() << "\n";
    return 1;
  }

  // Burst: 4 caller threads x 8 requests each, every third one streaming.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&server, t] {
      for (int i = 0; i < kPerThread; ++i) {
        serve::ServeRequest request;
        request.deployment = "demo";
        request.rows = 32 + 16 * (i % 3);
        request.seed = static_cast<uint64_t>(t) * 1000 + i;
        if (i % 3 == 2) {
          int rows_seen = 0;
          server.SynthesizeStream(request, [&rows_seen](const Table& chunk) {
            rows_seen += chunk.num_rows();
            return Status::OK();
          });
        } else {
          server.Synthesize(request);  // sheds surface in serve.rejected
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  // Score whatever the burst left in the reservoirs before snapshotting.
  if (server.auditor() != nullptr) server.auditor()->RunOnce();
  // Hold the server (and its introspection endpoint) open for external
  // scrapers — the CI smoke job curls /metrics and /healthz in this window.
  if (args.linger_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(args.linger_ms));
  }

  const serve::ServerDebugSnapshot snapshot = server.DebugSnapshot();
  std::ostringstream md;
  md << "## Serving debug snapshot\n\n"
     << "Deployments: " << snapshot.deployments.size() << " ("
     << snapshot.loaded_models << " resident), active batchers: "
     << snapshot.active_batchers << ", flight events recorded: "
     << snapshot.flight_events << "\n\n";
  if (snapshot.slo_enabled) {
    md << "SLO: " << (snapshot.slo.breached ? "**BREACHED**" : "ok") << " — "
       << snapshot.slo.long_window.good << "/" << snapshot.slo.long_window.total
       << " good in the long window, " << snapshot.slo.breaches
       << " breach(es)\n\n";
  }
  if (snapshot.audit_enabled) {
    for (const obs::DeploymentAuditSnapshot& audit : snapshot.audit) {
      md << "Quality audit (" << audit.deployment << "): "
         << (audit.breached
                 ? "**BREACHED**"
                 : (audit.has_reference ? "ok" : "no reference")) << " — "
         << audit.audits << " audit(s), " << audit.bad_audits << " bad, "
         << audit.degenerate << " degenerate\n\n";
    }
  }
  if (!snapshot.recent_flight_dumps.empty()) {
    md << "Recent flight-recorder dumps:\n\n";
    for (const std::string& path : snapshot.recent_flight_dumps) {
      md << "- `" << path << "`\n";
    }
    md << "\n";
  }
  *extra_md = md.str();

  *profile = obs::BuildProfile(obs::SnapshotTraceEvents());
  if (!args.trace_out_path.empty()) {
    Status s = obs::WriteTraceJson(args.trace_out_path);
    if (!s.ok()) std::cerr << s.ToString() << "\n";
  }
  obs::DisableTracing();
  std::remove(ckpt.c_str());
  return 0;
}

/// Rebuilds TraceEvents from an exported Chrome trace: "X" slices become
/// spans (party recovered from the process_name metadata written by
/// WriteTraceJson), "s"/"f" points become flow events.
std::vector<obs::TraceEvent> TraceEventsFromJson(const json::Value& doc) {
  std::vector<obs::TraceEvent> events;
  const json::Value* list = doc.Find("traceEvents");
  if (list == nullptr || !list->is_array()) return events;
  std::map<int, const char*> party_by_pid;
  for (const json::Value& e : list->AsArray()) {
    if (e.StringOr("ph", "") == "M" &&
        e.StringOr("name", "") == "process_name") {
      const int pid = static_cast<int>(e.NumberOr("pid", 0));
      const json::Value* inner = e.Find("args");
      if (pid > 1 && inner != nullptr) {
        party_by_pid[pid] =
            obs::InternTraceString(inner->StringOr("name", ""));
      }
    }
  }
  for (const json::Value& e : list->AsArray()) {
    const std::string ph = e.StringOr("ph", "");
    if (ph != "X" && ph != "s" && ph != "f") continue;
    obs::TraceEvent event;
    event.name = e.StringOr("name", "");
    event.phase = ph[0];
    event.tid = static_cast<int>(e.NumberOr("tid", 0));
    event.start_ns = static_cast<int64_t>(e.NumberOr("ts", 0.0) * 1000.0);
    event.dur_ns = static_cast<int64_t>(e.NumberOr("dur", 0.0) * 1000.0);
    event.flow_id = static_cast<uint64_t>(e.NumberOr("id", 0));
    auto pid_it =
        party_by_pid.find(static_cast<int>(e.NumberOr("pid", 0)));
    if (pid_it != party_by_pid.end()) event.party = pid_it->second;
    if (const json::Value* span_args = e.Find("args"); span_args != nullptr) {
      event.run_id = static_cast<uint32_t>(span_args->NumberOr("run_id", 0));
      event.round = static_cast<int32_t>(span_args->NumberOr("round", 0));
      event.silo_id = static_cast<int32_t>(span_args->NumberOr("silo", -1));
      const std::string tag = span_args->StringOr("tag", "");
      if (!tag.empty()) event.tag = obs::InternTraceString(tag);
    }
    events.push_back(std::move(event));
  }
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.dur_ns > b.dur_ns;
            });
  return events;
}

/// Loads the metrics JSON document named by --metrics: a file path, or —
/// for "http://host:port[/path]" — a live fetch against a running server's
/// introspection endpoint (default path /varz, whose payload is the same
/// schema SILOFUSE_METRICS writes).
Result<json::Value> LoadMetricsDoc(const std::string& source) {
  const std::string scheme = "http://";
  if (source.compare(0, scheme.size(), scheme) != 0) {
    return json::ParseFile(source);
  }
  std::string target = source.substr(scheme.size());
  std::string path = "/varz";
  if (const size_t slash = target.find('/'); slash != std::string::npos) {
    if (slash + 1 < target.size()) path = target.substr(slash);
    target = target.substr(0, slash);
  }
  SF_ASSIGN_OR_RETURN(const std::string body, obs::HttpGet(target, path));
  return json::Parse(body);
}

bool WriteOrPrint(const std::string& path, const std::string& content) {
  if (path.empty() || path == "-") {
    std::cout << content;
    return true;
  }
  std::ofstream out(path, std::ios::trunc);
  out << content;
  out.flush();
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  obs::ProfileReport profile;
  std::vector<obs::RoundStat> rounds;
  obs::MetricsSnapshot metrics;
  std::string title;
  std::string extra_md;

  if (args.serve) {
    title = "SiloFuse serving report";
    const int rc = ServeAndReport(args, &profile, &extra_md);
    if (rc != 0) return rc;
    metrics = obs::MetricsRegistry::Global().Snapshot();
  } else if (args.run) {
    title = std::string("SiloFuse run report (") +
            std::to_string(args.clients) + " clients" +
            (args.faults ? ", faults injected" : "") + ")";
    const int rc = RunAndReport(args, &profile, &rounds);
    if (rc != 0) return rc;
    metrics = obs::MetricsRegistry::Global().Snapshot();
  } else {
    title = "SiloFuse run report (from " + args.metrics_path + ")";
    auto metrics_doc = LoadMetricsDoc(args.metrics_path);
    if (!metrics_doc.ok()) {
      std::cerr << metrics_doc.status().ToString() << "\n";
      return 1;
    }
    metrics = obs::MetricsSnapshotFromJson(metrics_doc.Value());
    if (!args.trace_path.empty()) {
      auto trace_doc = json::ParseFile(args.trace_path);
      if (!trace_doc.ok()) {
        std::cerr << trace_doc.status().ToString() << "\n";
        return 1;
      }
      profile = obs::BuildProfile(TraceEventsFromJson(trace_doc.Value()));
    }
  }

  bool ok = true;
  if (!args.json_out_path.empty()) {
    ok = WriteOrPrint(args.json_out_path, obs::RenderRunReportJson(
                                              title, profile, rounds, metrics));
  }
  if (args.json_out_path.empty() || !args.out_path.empty()) {
    ok = WriteOrPrint(args.out_path,
                      obs::RenderRunReportMarkdown(title, profile, rounds,
                                                   metrics) +
                          extra_md) &&
         ok;
  }
  return ok ? 0 : 1;
}
