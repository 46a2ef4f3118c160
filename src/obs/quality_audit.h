#ifndef SILOFUSE_OBS_QUALITY_AUDIT_H_
#define SILOFUSE_OBS_QUALITY_AUDIT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "core/reference_stats.h"
#include "data/table.h"
#include "obs/slo.h"

namespace silofuse {
namespace obs {

/// Knobs of the online synthesis-quality auditor.
struct QualityAuditOptions {
  /// Rows retained per deployment between scoring passes (reservoir-sampled
  /// uniformly over everything served since the last audit).
  int reservoir_rows = 256;
  /// A scoring pass needs at least this many sampled rows (and the utility
  /// proxy needs >= 10 either way).
  int min_audit_rows = 32;
  /// Minimum gap between scoring passes of one deployment.
  int64_t audit_period_ns = 1LL * 1000 * 1000 * 1000;  // 1 s
  /// Seeds the reservoir and DCR sampling streams (SILOFUSE_AUDIT_SEED).
  uint64_t seed = 0x51107a0d17ULL;

  /// An audit is "bad" when any of these is violated (or when scoring hits
  /// a degenerate batch — a collapsed sampler must breach, not error out):
  double max_marginal_distance = 0.35;   // KS/TV vs training sketches
  double max_correlation_drift = 0.35;   // vs training association summary
  double min_utility_proxy = 50.0;       // ComputeResemblanceQuick overall
  double min_dcr_p5 = 0.0;               // privacy floor; <= 0 disables

  /// Multi-window burn-rate alerting over audit verdicts, reusing the SLO
  /// machinery (slo.h): breach only when both windows burn the "bad audit"
  /// budget faster than the threshold. Audits are sparse, so the request
  /// floor defaults far below the serving SLO's.
  SloOptions breach = [] {
    SloOptions slo;
    slo.objective = 0.9;   // >= 90% of audits must pass
    slo.min_requests = 2;  // one flaky audit alone never pages
    return slo;
  }();

  /// False = manual mode for deterministic tests: no audit thread is
  /// started and the owner drives scoring via RunOnce().
  bool start_worker = true;
  /// Cadence of the background audit task's RunOnce sweeps (real time,
  /// independent of the injected clock so VirtualClock tests cannot spin).
  int64_t worker_period_ns = 250LL * 1000 * 1000;  // 250 ms
};

/// One scoring pass's results: the shared scores plus the verdict.
struct AuditScores : QualityScores {
  bool good = false;
  /// Why the audit was bad ("marginal distance 0.61 > 0.35"), or the
  /// degenerate-input status message; empty for a passing audit.
  std::string detail;
};

/// Point-in-time audit state of one deployment, for DebugSnapshot and
/// sf_report --serve.
struct DeploymentAuditSnapshot {
  std::string deployment;
  bool has_reference = false;
  int64_t observed_rows = 0;  // rows offered to the reservoir, lifetime
  int64_t audits = 0;
  int64_t bad_audits = 0;
  int64_t degenerate = 0;  // audits rejected by the hardened scorers
  AuditScores last;        // meaningful when audits > 0
  bool breached = false;
  int64_t breaches = 0;
  double burn_short = 0.0;
  double burn_long = 0.0;
};

/// Online synthesis-quality and privacy auditor for the serving data plane.
///
/// The data plane calls Observe() with decoded result tables; the auditor
/// reservoir-samples rows per deployment (a bounded copy — the served bytes
/// are never touched) and a dedicated low-priority audit task periodically
/// scores each deployment's sample against the ReferenceStats captured at
/// training time and restored from the checkpoint, with the same
/// ScoreAgainstReference the training-time quality probes use.
///
/// Every audit verdict is filed into a per-deployment SloMonitor
/// (metric prefix "audit.<deployment>"), so quality breaches use the same
/// Clock-injected multi-window burn-rate semantics as the latency SLO; on
/// the transition into breach the auditor records a kQualityBreach flight
/// event and triggers a flight-recorder dump ("quality_breach").
///
/// Gauges per deployment: audit.<name>.has_reference, the four scores of
/// the last scored audit, and the monitor's .breached/.burn_short/
/// .burn_long/.breaches; counters audit.<name>.audits / .bad_audits /
/// .degenerate / .sampled_rows. Windowed views of the scores are the
/// scraper's job (sf_top), as for every other gauge.
///
/// Deployments without scoreable reference statistics (pre-ReferenceStats
/// checkpoints, ReferenceStats::scoreable() false) publish has_reference = 0
/// and are never scored or breached.
///
/// Thread-safe; Observe is a short critical section (bounded row copies).
class QualityAuditor {
 public:
  /// Fired (outside the auditor lock) when a deployment enters breach.
  using BreachCallback =
      std::function<void(const std::string& deployment,
                         const std::string& reason)>;

  /// `clock` is borrowed and must outlive the auditor; nullptr means
  /// SystemClock::Default(). It drives audit pacing and the breach windows.
  explicit QualityAuditor(QualityAuditOptions options, Clock* clock = nullptr);
  ~QualityAuditor();

  QualityAuditor(const QualityAuditor&) = delete;
  QualityAuditor& operator=(const QualityAuditor&) = delete;

  /// Installs the training-time reference for `deployment`. Stats that are
  /// not scoreable() mean "no reference": the deployment is observed but
  /// never scored.
  void SetReference(const std::string& deployment, ReferenceStats stats);
  bool HasReference(const std::string& deployment) const;

  /// Offers one decoded result table to `deployment`'s reservoir. Copies at
  /// most reservoir_rows rows; never mutates or retains `table`.
  void Observe(const std::string& deployment, const Table& table);

  /// Scores every deployment whose reservoir is ready and whose audit
  /// period elapsed; returns the number of scoring passes run. Called
  /// periodically by the audit task; safe to call concurrently (tests and
  /// report tools force a final sweep this way).
  int RunOnce();

  void SetOnBreach(BreachCallback on_breach);

  std::vector<DeploymentAuditSnapshot> Snapshot() const;

  const QualityAuditOptions& options() const { return options_; }

 private:
  struct DeploymentState;

  /// Creates-or-returns the deployment's state. Requires mu_.
  DeploymentState* StateLocked(const std::string& deployment);

  /// Scores one extracted batch (no auditor lock held during the heavy
  /// math) and files the verdict.
  void ScoreBatch(const std::string& deployment, DeploymentState* state,
                  std::shared_ptr<const ReferenceStats> reference,
                  const Schema& schema, std::vector<std::vector<double>> rows,
                  int64_t audit_index);

  void WorkerLoop();

  const QualityAuditOptions options_;
  Clock* clock_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<DeploymentState>> states_;
  BreachCallback on_breach_;  // guarded by mu_

  std::mutex worker_mu_;
  std::condition_variable worker_cv_;
  bool stop_ = false;
  std::thread worker_;  // joinable only when options_.start_worker
};

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_OBS_QUALITY_AUDIT_H_
