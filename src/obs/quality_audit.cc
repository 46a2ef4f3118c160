#include "obs/quality_audit.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace silofuse {
namespace obs {
namespace {

std::string FormatThreshold(const char* what, double value, const char* rel,
                            double limit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %.3f %s %.3f", what, value, rel, limit);
  return std::string(buf);
}

/// Audit sweeps share cores with the serving data plane; on Linux the audit
/// task renices itself so scoring only ever soaks idle cycles.
void LowerThreadPriority() {
#ifdef __linux__
  const pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
  (void)::setpriority(PRIO_PROCESS, static_cast<id_t>(tid), 19);
#endif
}

}  // namespace

struct QualityAuditor::DeploymentState {
  std::shared_ptr<const ReferenceStats> reference;  // null = no reference
  const char* tag = nullptr;  // interned deployment name for flight events

  Schema schema;       // of the reservoir rows; reset on schema change
  bool has_schema = false;
  Rng rng{0};
  std::vector<std::vector<double>> reservoir;  // row-major sampled rows
  int64_t seen_since_audit = 0;  // rows offered since the last extraction
  int64_t observed_rows = 0;     // lifetime

  int64_t last_audit_ns = -1;  // -1 = never audited (first audit is eager)
  int64_t audits = 0;
  int64_t bad_audits = 0;
  int64_t degenerate = 0;
  AuditScores last;

  std::unique_ptr<SloMonitor> monitor;
};

QualityAuditor::QualityAuditor(QualityAuditOptions options, Clock* clock)
    : options_(std::move(options)),
      clock_(clock != nullptr ? clock : SystemClock::Default()) {
  if (options_.start_worker) {
    worker_ = std::thread([this] { WorkerLoop(); });
  }
}

QualityAuditor::~QualityAuditor() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(worker_mu_);
      stop_ = true;
    }
    worker_cv_.notify_all();
    worker_.join();
  }
}

void QualityAuditor::WorkerLoop() {
  LowerThreadPriority();
  // Real-time waits on purpose: pacing the sweep off the injected clock
  // would turn VirtualClock tests into busy spins. The injected clock still
  // decides which deployments are due inside RunOnce.
  std::unique_lock<std::mutex> lock(worker_mu_);
  while (!stop_) {
    worker_cv_.wait_for(lock,
                        std::chrono::nanoseconds(options_.worker_period_ns));
    if (stop_) break;
    lock.unlock();
    RunOnce();
    lock.lock();
  }
}

QualityAuditor::DeploymentState* QualityAuditor::StateLocked(
    const std::string& deployment) {
  auto it = states_.find(deployment);
  if (it != states_.end()) return it->second.get();
  auto state = std::make_unique<DeploymentState>();
  state->tag = InternTraceString(deployment);
  // Independent reservoir stream per deployment, reproducible from the
  // configured seed (SILOFUSE_AUDIT_SEED).
  uint64_t salt = 0xcbf29ce484222325ULL;
  for (const char ch : deployment) {
    salt = (salt ^ static_cast<uint64_t>(static_cast<unsigned char>(ch))) *
           0x100000001b3ULL;
  }
  state->rng = Rng(options_.seed ^ salt);
  state->monitor = std::make_unique<SloMonitor>(options_.breach, clock_,
                                                "audit." + deployment);
  MetricsRegistry::Global()
      .GetGauge("audit." + deployment + ".has_reference")
      ->Set(0.0);
  DeploymentState* raw = state.get();
  states_.emplace(deployment, std::move(state));
  return raw;
}

void QualityAuditor::SetReference(const std::string& deployment,
                                  ReferenceStats stats) {
  const bool usable = stats.scoreable();
  std::lock_guard<std::mutex> lock(mu_);
  DeploymentState* state = StateLocked(deployment);
  state->reference =
      usable ? std::make_shared<const ReferenceStats>(std::move(stats))
             : nullptr;
  MetricsRegistry::Global()
      .GetGauge("audit." + deployment + ".has_reference")
      ->Set(state->reference ? 1.0 : 0.0);
}

bool QualityAuditor::HasReference(const std::string& deployment) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(deployment);
  return it != states_.end() && it->second->reference != nullptr;
}

void QualityAuditor::Observe(const std::string& deployment,
                             const Table& table) {
  if (table.num_rows() <= 0 || table.num_columns() <= 0) return;
  const int columns = table.num_columns();
  std::lock_guard<std::mutex> lock(mu_);
  DeploymentState* state = StateLocked(deployment);
  if (!state->has_schema || !(state->schema == table.schema())) {
    // A redeploy can change the served schema; stale rows would poison the
    // next audit, so the reservoir restarts.
    state->schema = table.schema();
    state->has_schema = true;
    state->reservoir.clear();
    state->seen_since_audit = 0;
  }
  const int64_t capacity = std::max<int64_t>(1, options_.reservoir_rows);
  for (int r = 0; r < table.num_rows(); ++r) {
    ++state->observed_rows;
    ++state->seen_since_audit;
    int64_t slot = -1;
    if (static_cast<int64_t>(state->reservoir.size()) < capacity) {
      state->reservoir.emplace_back();
      slot = static_cast<int64_t>(state->reservoir.size()) - 1;
    } else {
      // Algorithm R: row i survives with probability capacity / i.
      const int64_t j = state->rng.UniformInt(0, state->seen_since_audit - 1);
      if (j < capacity) slot = j;
    }
    if (slot < 0) continue;
    std::vector<double>& row = state->reservoir[static_cast<size_t>(slot)];
    row.resize(static_cast<size_t>(columns));
    for (int c = 0; c < columns; ++c) row[static_cast<size_t>(c)] =
        table.value(r, c);
  }
}

int QualityAuditor::RunOnce() {
  struct Job {
    std::string deployment;
    DeploymentState* state = nullptr;
    std::shared_ptr<const ReferenceStats> reference;
    Schema schema;
    std::vector<std::vector<double>> rows;
    int64_t audit_index = 0;
  };
  const int64_t now = clock_->NowNs();
  std::vector<Job> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, state] : states_) {
      if (state->reference == nullptr) continue;
      if (static_cast<int>(state->reservoir.size()) < options_.min_audit_rows)
        continue;
      if (state->last_audit_ns >= 0 &&
          now - state->last_audit_ns < options_.audit_period_ns) {
        continue;
      }
      Job job;
      job.deployment = name;
      job.state = state.get();
      job.reference = state->reference;
      job.schema = state->schema;
      job.rows = std::move(state->reservoir);
      job.audit_index = state->audits;
      state->reservoir.clear();
      state->seen_since_audit = 0;
      state->last_audit_ns = now;
      jobs.push_back(std::move(job));
    }
  }
  // The heavy math runs outside the auditor lock so Observe (on the data
  // plane's batch worker) never waits on a scoring pass.
  for (Job& job : jobs) {
    ScoreBatch(job.deployment, job.state, std::move(job.reference), job.schema,
               std::move(job.rows), job.audit_index);
  }
  return static_cast<int>(jobs.size());
}

void QualityAuditor::ScoreBatch(const std::string& deployment,
                                DeploymentState* state,
                                std::shared_ptr<const ReferenceStats> reference,
                                const Schema& schema,
                                std::vector<std::vector<double>> rows,
                                int64_t audit_index) {
  auto& registry = MetricsRegistry::Global();
  const std::string prefix = "audit." + deployment;

  // A batch the table or the scorers refuse (non-finite values, collapsed
  // shapes) is degenerate: evidence of a broken sampler, so it files as a bad
  // audit and burns breach budget instead of vanishing into an error path.
  const Result<QualityScores> scored = [&]() -> Result<QualityScores> {
    Table batch(schema);
    for (const std::vector<double>& row : rows) {
      SF_RETURN_NOT_OK(batch.AppendRow(row));
    }
    return ScoreAgainstReference(*reference, batch, options_.seed,
                                 audit_index);
  }();

  const bool degenerate = !scored.ok();
  AuditScores scores;
  if (degenerate) {
    scores.detail = scored.status().ToString();
  } else {
    static_cast<QualityScores&>(scores) = scored.Value();
    std::string problem;
    if (scores.marginal_distance > options_.max_marginal_distance) {
      problem = FormatThreshold("marginal distance", scores.marginal_distance,
                                ">", options_.max_marginal_distance);
    } else if (scores.correlation_drift > options_.max_correlation_drift) {
      problem = FormatThreshold("correlation drift", scores.correlation_drift,
                                ">", options_.max_correlation_drift);
    } else if (scores.utility_proxy < options_.min_utility_proxy) {
      problem = FormatThreshold("utility proxy", scores.utility_proxy, "<",
                                options_.min_utility_proxy);
    } else if (options_.min_dcr_p5 > 0.0 &&
               scores.dcr_p5 < options_.min_dcr_p5) {
      problem = FormatThreshold("DCR p5", scores.dcr_p5, "<",
                                options_.min_dcr_p5);
    }
    scores.good = problem.empty();
    scores.detail = problem;

    registry.GetGauge(prefix + ".marginal_distance")
        ->Set(scores.marginal_distance);
    registry.GetGauge(prefix + ".correlation_drift")
        ->Set(scores.correlation_drift);
    registry.GetGauge(prefix + ".utility_proxy")->Set(scores.utility_proxy);
    registry.GetGauge(prefix + ".dcr_p5")->Set(scores.dcr_p5);
  }

  registry.GetCounter(prefix + ".audits")->Increment();
  registry.GetCounter(prefix + ".sampled_rows")
      ->Add(static_cast<int64_t>(rows.size()));
  if (degenerate) registry.GetCounter(prefix + ".degenerate")->Increment();
  if (!scores.good) registry.GetCounter(prefix + ".bad_audits")->Increment();

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++state->audits;
    if (!scores.good) ++state->bad_audits;
    if (degenerate) ++state->degenerate;
    state->last = scores;
  }

  // Arm the breach hook for this verdict, then file it. The monitor fires
  // the callback outside its own lock and we hold no auditor lock here, so
  // the handler may call Snapshot() freely.
  const char* tag = state->tag;
  state->monitor->SetOnBreach(
      [this, deployment, tag](const std::string& reason) {
        FlightRecorder& flight = FlightRecorder::Global();
        const int64_t flight_now = TraceNowNs();
        flight.Record(FlightPhase::kQualityBreach, 0, 0, tag, 0, flight_now,
                      flight_now);
        flight.DumpOnTrigger("quality_breach");
        BreachCallback callback;
        {
          std::lock_guard<std::mutex> lock(mu_);
          callback = on_breach_;
        }
        if (callback) callback(deployment, reason);
      });
  state->monitor->Record(0.0, scores.good ? SloOutcome::kOk
                                          : SloOutcome::kError);
}

void QualityAuditor::SetOnBreach(BreachCallback on_breach) {
  std::lock_guard<std::mutex> lock(mu_);
  on_breach_ = std::move(on_breach);
}

std::vector<DeploymentAuditSnapshot> QualityAuditor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DeploymentAuditSnapshot> out;
  out.reserve(states_.size());
  for (const auto& [name, state] : states_) {
    DeploymentAuditSnapshot snapshot;
    snapshot.deployment = name;
    snapshot.has_reference = state->reference != nullptr;
    snapshot.observed_rows = state->observed_rows;
    snapshot.audits = state->audits;
    snapshot.bad_audits = state->bad_audits;
    snapshot.degenerate = state->degenerate;
    snapshot.last = state->last;
    const SloSnapshot slo = state->monitor->Snapshot();
    snapshot.breached = slo.breached;
    snapshot.breaches = slo.breaches;
    snapshot.burn_short = slo.short_window.burn_rate;
    snapshot.burn_long = slo.long_window.burn_rate;
    out.push_back(std::move(snapshot));
  }
  return out;
}

}  // namespace obs
}  // namespace silofuse
