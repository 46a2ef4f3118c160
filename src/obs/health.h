#ifndef SILOFUSE_OBS_HEALTH_H_
#define SILOFUSE_OBS_HEALTH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/reference_stats.h"
#include "data/table.h"
#include "nn/module.h"

namespace silofuse {
namespace obs {
namespace health {

/// Knobs for the training-health collector + watchdog. Defaults come from
/// the environment on every FromEnv() call (no caching), so tests can
/// setenv() and construct a fresh monitor:
///   SILOFUSE_HEALTH=0        disables collection and the watchdog entirely
///   SILOFUSE_HEALTH_EVERY=K  per-layer stats walk cadence (default 25)
struct HealthOptions {
  bool enabled = true;
  int stats_every = 25;

  /// Divergence trips when the loss EMA exceeds the best (lowest) EMA seen
  /// by more than ratio * (|best| + offset). The additive offset keeps the
  /// threshold meaningful for losses that hover near zero or go negative
  /// (Gaussian NLL), and the generous default ratio tolerates GAN
  /// oscillation without false positives.
  double divergence_ratio = 4.0;
  double divergence_offset = 1.0;

  /// Steps before divergence can trip (the best-EMA floor is tracked from
  /// step one, so a run that explodes during warmup still aborts at the
  /// first post-warmup check).
  int warmup_steps = 50;

  /// EMA smoothing: ema = alpha * loss + (1 - alpha) * ema.
  double ema_alpha = 0.05;

  static HealthOptions FromEnv();
};

/// One parameter tensor's health snapshot.
struct LayerStat {
  std::string name;
  double grad_norm = 0.0;
  double value_norm = 0.0;
  float grad_min = 0.0f;
  float grad_max = 0.0f;
  float value_min = 0.0f;
  float value_max = 0.0f;
  int64_t grad_nonfinite = 0;
  int64_t value_nonfinite = 0;
};

/// Walks `params` in order and computes per-parameter statistics with a
/// single serial pass per tensor. Deterministic at any thread count: the
/// accumulation order depends only on the parameter list.
std::vector<LayerStat> CollectLayerStats(const std::vector<Parameter*>& params);

/// Per-trainer statistics collector + divergence/NaN watchdog.
///
/// Watch() registers parameter groups (one per silo for distributed
/// trainers); OnStep() is then called once per optimizer step with the
/// current losses. Every step the losses are checked for NaN/Inf and fed
/// into per-key EMAs; every `stats_every` steps (and immediately when a
/// loss goes non-finite) the watched parameters are walked and per-layer
/// grad/value norms, min/max, and non-finite counts land in
/// `health.<prefix>[.silo<k>].layer.<param>.*` gauges,
/// `health.<prefix>.{grad,value}_norms` histograms, and Chrome-trace
/// counter tracks. A non-finite loss/gradient or a tripped divergence
/// threshold returns Status::kFailedPrecondition naming the first
/// offending layer, the step, and the silo; healthy steps return OK.
class TrainingMonitor {
 public:
  explicit TrainingMonitor(std::string prefix,
                           HealthOptions options = HealthOptions::FromEnv());

  TrainingMonitor(const TrainingMonitor&) = delete;
  TrainingMonitor& operator=(const TrainingMonitor&) = delete;

  /// Registers a parameter group. `silo_id` >= 0 scopes the group's metric
  /// names with ".silo<k>" and is named in abort messages. Pointers are
  /// borrowed and must outlive the monitor.
  void Watch(std::vector<Parameter*> params, int silo_id = -1);

  /// Health check for one optimizer step (1-based). `losses` are the same
  /// key/value pairs the caller reports to TrainLoopTelemetry::Step.
  Status OnStep(int64_t step,
                const std::vector<std::pair<std::string, double>>& losses);

  bool enabled() const { return options_.enabled; }
  const HealthOptions& options() const { return options_; }

 private:
  struct WatchedGroup {
    std::vector<Parameter*> params;
    int silo_id = -1;
    std::string gauge_prefix;  // "health.<prefix>" or "health.<prefix>.silo<k>"
  };
  struct LossTrack {
    double ema = 0.0;
    double best_ema = 0.0;
    int64_t count = 0;
  };

  /// Publishes stats for all groups; reports the first parameter holding a
  /// non-finite gradient or value, plus the largest-gradient layer.
  struct Offender {
    const WatchedGroup* group = nullptr;
    LayerStat stat;
    bool found = false;
    std::string worst_layer;  // largest grad-norm layer across all groups
    std::string worst_silo_suffix;
    double worst_grad_norm = -1.0;
  };
  Offender PublishLayerStats(int64_t step);
  void SetGauge(const std::string& name, double value);
  void MarkAborted(int64_t step);
  std::string SiloSuffix(const WatchedGroup& group) const;

  std::string prefix_;
  HealthOptions options_;
  std::vector<WatchedGroup> groups_;
  std::map<std::string, LossTrack> losses_;
};

/// Mid-training quality probe configuration: every `every_steps` optimizer
/// steps, synthesize QualityAuditOptions::reservoir_rows rows and score them
/// against `reference` with ScoreAgainstReference, the serving auditor's
/// scorer, so training-time and serving-time scores are one family. Each
/// probe draws from its own fixed-seed Rng, never the training Rng, so
/// probes do not perturb training. No scoreable() reference: no probe.
struct QualityProbe {
  int every_steps = 0;                        // <= 0 disables
  const ReferenceStats* reference = nullptr;  // borrowed; outlives training
  std::function<Result<Table>(int rows, Rng* rng)> synthesize;
  std::string prefix = "quality";
};

/// Stateful runner for one training loop's probe schedule. Gauges:
/// `<prefix>.{marginal_distance,correlation_drift,utility_proxy,dcr_p5,
/// step}` hold the latest scored probe; `<prefix>.series.<k>.*` the same
/// for scored probe k. Counters: `<prefix>.probes` counts runs,
/// `<prefix>.degenerate` the batches the scorer refused (a quality signal,
/// as in an audit, not a training error). A failed synthesis is returned.
class QualityProbeRunner {
 public:
  explicit QualityProbeRunner(QualityProbe probe);

  /// Runs the probe when `step` is a positive multiple of `every_steps`.
  Status MaybeRun(int64_t step);

 private:
  QualityProbe probe_;
  int runs_ = 0;
};

}  // namespace health
}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_OBS_HEALTH_H_
