#include "obs/health.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/quality_audit.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace silofuse {
namespace obs {
namespace health {

namespace {

// Log-spaced bounds for norm histograms: gradients of a healthy run live
// around 1e-3..1e1; the top decades catch the blow-up trajectory.
std::vector<double> NormBounds() {
  return {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e6};
}

void EmitCounterTrack(const std::string& name, double value) {
  if (!TraceEnabled()) return;
  internal_trace::RecordCounterEvent(InternTraceString(name), value,
                                     /*party=*/nullptr);
}

std::string FormatValue(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

HealthOptions HealthOptions::FromEnv() {
  HealthOptions options;
  options.enabled = EnvFlag("SILOFUSE_HEALTH", options.enabled);
  if (const char* v = std::getenv("SILOFUSE_HEALTH_EVERY");
      v != nullptr && std::atoi(v) > 0) {
    options.stats_every = std::atoi(v);
  }
  return options;
}

std::vector<LayerStat> CollectLayerStats(
    const std::vector<Parameter*>& params) {
  std::vector<LayerStat> stats;
  stats.reserve(params.size());
  for (const Parameter* p : params) {
    LayerStat stat;
    stat.name = p->name;
    // One serial pass per tensor: a fixed left-to-right double accumulation
    // is byte-identical at any SILOFUSE_NUM_THREADS, which the parallel
    // reduction kernels also guarantee but a plain loop proves trivially.
    auto scan = [](const Matrix& m, double* norm_sq, float* mn, float* mx,
                   int64_t* nonfinite) {
      double acc = 0.0;
      float lo = std::numeric_limits<float>::infinity();
      float hi = -std::numeric_limits<float>::infinity();
      int64_t bad = 0;
      const float* data = m.data();
      const int64_t n = m.size();
      for (int64_t i = 0; i < n; ++i) {
        const float v = data[i];
        if (!std::isfinite(v)) {
          ++bad;
          continue;
        }
        acc += static_cast<double>(v) * static_cast<double>(v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      *norm_sq = acc;
      *mn = n > bad ? lo : 0.0f;
      *mx = n > bad ? hi : 0.0f;
      *nonfinite = bad;
    };
    double grad_sq = 0.0, value_sq = 0.0;
    scan(p->grad, &grad_sq, &stat.grad_min, &stat.grad_max,
         &stat.grad_nonfinite);
    scan(p->value, &value_sq, &stat.value_min, &stat.value_max,
         &stat.value_nonfinite);
    stat.grad_norm = std::sqrt(grad_sq);
    stat.value_norm = std::sqrt(value_sq);
    stats.push_back(std::move(stat));
  }
  return stats;
}

TrainingMonitor::TrainingMonitor(std::string prefix, HealthOptions options)
    : prefix_(std::move(prefix)), options_(options) {}

void TrainingMonitor::Watch(std::vector<Parameter*> params, int silo_id) {
  WatchedGroup group;
  group.params = std::move(params);
  group.silo_id = silo_id;
  group.gauge_prefix = "health." + prefix_;
  if (silo_id >= 0) {
    group.gauge_prefix += ".silo" + std::to_string(silo_id);
  }
  groups_.push_back(std::move(group));
}

void TrainingMonitor::SetGauge(const std::string& name, double value) {
  MetricsRegistry::Global().GetGauge(name)->Set(value);
  EmitCounterTrack(name, value);
}

std::string TrainingMonitor::SiloSuffix(const WatchedGroup& group) const {
  return group.silo_id >= 0 ? " (silo " + std::to_string(group.silo_id) + ")"
                            : "";
}

TrainingMonitor::Offender TrainingMonitor::PublishLayerStats(int64_t step) {
  Offender offender;
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram* grad_hist = registry.GetHistogram(
      "health." + prefix_ + ".grad_norms", NormBounds());
  Histogram* value_hist = registry.GetHistogram(
      "health." + prefix_ + ".value_norms", NormBounds());
  for (const WatchedGroup& group : groups_) {
    for (LayerStat& stat : CollectLayerStats(group.params)) {
      const std::string base = group.gauge_prefix + ".layer." + stat.name;
      SetGauge(base + ".grad_norm", stat.grad_norm);
      SetGauge(base + ".value_norm", stat.value_norm);
      SetGauge(base + ".grad_min", stat.grad_min);
      SetGauge(base + ".grad_max", stat.grad_max);
      SetGauge(base + ".value_min", stat.value_min);
      SetGauge(base + ".value_max", stat.value_max);
      SetGauge(base + ".grad_nonfinite",
               static_cast<double>(stat.grad_nonfinite));
      SetGauge(base + ".value_nonfinite",
               static_cast<double>(stat.value_nonfinite));
      grad_hist->Observe(stat.grad_norm);
      value_hist->Observe(stat.value_norm);
      if (!offender.found &&
          (stat.grad_nonfinite > 0 || stat.value_nonfinite > 0)) {
        offender.group = &group;
        offender.stat = stat;
        offender.found = true;
      }
      if (stat.grad_norm > offender.worst_grad_norm) {
        offender.worst_grad_norm = stat.grad_norm;
        offender.worst_layer = stat.name;
        offender.worst_silo_suffix = SiloSuffix(group);
      }
    }
  }
  SetGauge("health." + prefix_ + ".last_stats_step",
           static_cast<double>(step));
  return offender;
}

void TrainingMonitor::MarkAborted(int64_t step) {
  SetGauge("health." + prefix_ + ".watchdog.aborted", 1.0);
  SetGauge("health." + prefix_ + ".watchdog.abort_step",
           static_cast<double>(step));
  MetricsRegistry::Global().GetCounter("health.watchdog.aborts")->Increment();
  // Post-mortem: preserve the flight recorder's recent serving/runtime
  // events alongside the abort (counted no-op when no dump dir is set).
  FlightRecorder::Global().DumpOnTrigger("watchdog_abort");
}

Status TrainingMonitor::OnStep(
    int64_t step, const std::vector<std::pair<std::string, double>>& losses) {
  if (!options_.enabled) return Status::OK();

  // 1. Non-finite loss aborts immediately; an extra stats walk attributes
  // the first parameter already poisoned (the loss NaN usually arrives one
  // step after a gradient or weight went non-finite).
  for (const auto& [key, value] : losses) {
    if (std::isfinite(value)) continue;
    const Offender offender = PublishLayerStats(step);
    MarkAborted(step);
    std::ostringstream msg;
    msg << "training-health watchdog: non-finite loss '" << key << "' ("
        << FormatValue(value) << ") in " << prefix_ << " at step " << step;
    if (offender.found) {
      msg << SiloSuffix(*offender.group) << "; first offending layer: "
          << offender.stat.name << " (grad nonfinite "
          << offender.stat.grad_nonfinite << ", value nonfinite "
          << offender.stat.value_nonfinite << ")";
    } else {
      msg << "; all watched parameters still finite";
    }
    return Status::FailedPrecondition(msg.str());
  }

  // 2. EMA tracking + divergence threshold per loss key. The best (lowest)
  // EMA is tracked from the first step so a run that explodes during
  // warmup still aborts at the first post-warmup check.
  for (const auto& [key, value] : losses) {
    LossTrack& track = losses_[key];
    ++track.count;
    if (track.count == 1) {
      track.ema = value;
      track.best_ema = value;
    } else {
      track.ema =
          options_.ema_alpha * value + (1.0 - options_.ema_alpha) * track.ema;
      track.best_ema = std::min(track.best_ema, track.ema);
    }
    SetGauge("health." + prefix_ + ".watchdog.ema." + key, track.ema);
    const double threshold =
        track.best_ema + options_.divergence_ratio *
                             (std::abs(track.best_ema) +
                              options_.divergence_offset);
    if (track.count > options_.warmup_steps && track.ema > threshold) {
      // Name the layer with the largest gradient norm: with a finite but
      // runaway loss that is the layer driving the blow-up.
      const Offender offender = PublishLayerStats(step);
      MarkAborted(step);
      std::ostringstream msg;
      msg << "training-health watchdog: loss '" << key << "' diverged in "
          << prefix_ << " at step " << step << " (EMA "
          << FormatValue(track.ema) << " > threshold "
          << FormatValue(threshold) << ", best EMA "
          << FormatValue(track.best_ema) << "); largest-gradient layer: "
          << (offender.worst_grad_norm >= 0.0
                  ? offender.worst_layer + offender.worst_silo_suffix
                  : std::string("(none watched)"));
      return Status::FailedPrecondition(msg.str());
    }
  }

  // 3. Periodic stats walk; non-finite gradients/weights abort even while
  // the loss still looks sane.
  if (options_.stats_every > 0 && step % options_.stats_every == 0) {
    const Offender offender = PublishLayerStats(step);
    if (offender.found) {
      MarkAborted(step);
      std::ostringstream msg;
      msg << "training-health watchdog: non-finite parameter state in "
          << prefix_ << " at step " << step << SiloSuffix(*offender.group)
          << "; first offending layer: " << offender.stat.name
          << " (grad nonfinite " << offender.stat.grad_nonfinite
          << ", value nonfinite " << offender.stat.value_nonfinite << ")";
      return Status::FailedPrecondition(msg.str());
    }
  }
  return Status::OK();
}

QualityProbeRunner::QualityProbeRunner(QualityProbe probe)
    : probe_(std::move(probe)) {}

Status QualityProbeRunner::MaybeRun(int64_t step) {
  if (probe_.every_steps <= 0 || step <= 0 || step % probe_.every_steps != 0 ||
      probe_.reference == nullptr || !probe_.reference->scoreable() ||
      probe_.synthesize == nullptr) {
    return Status::OK();
  }
  SF_TRACE_SPAN("health.quality_probe");
  // Independent fixed-seed stream per probe: the training Rng is never
  // touched, so the training trajectory is byte-identical with probes on.
  constexpr uint64_t kProbeSeed = 0x517f;
  const QualityAuditOptions audit;
  Rng rng(kProbeSeed + static_cast<uint64_t>(runs_));
  SF_ASSIGN_OR_RETURN(const Table synth,
                      probe_.synthesize(audit.reservoir_rows, &rng));
  const Result<QualityScores> scored =
      ScoreAgainstReference(*probe_.reference, synth, audit.seed, runs_);
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter(probe_.prefix + ".probes")->Increment();
  const std::string series = ".series." + std::to_string(runs_++);
  if (!scored.ok()) {
    registry.GetCounter(probe_.prefix + ".degenerate")->Increment();
    return Status::OK();
  }
  const QualityScores& scores = scored.Value();
  const std::pair<const char*, double> gauges[] = {
      {".marginal_distance", scores.marginal_distance},
      {".correlation_drift", scores.correlation_drift},
      {".utility_proxy", scores.utility_proxy},
      {".dcr_p5", scores.dcr_p5},
      {".step", static_cast<double>(step)}};
  for (const auto& [suffix, value] : gauges) {
    registry.GetGauge(probe_.prefix + suffix)->Set(value);
    registry.GetGauge(probe_.prefix + series + suffix)->Set(value);
  }
  EmitCounterTrack(probe_.prefix + ".utility_proxy", scores.utility_proxy);
  return Status::OK();
}

}  // namespace health
}  // namespace obs
}  // namespace silofuse
