// Training-health observability tests: the per-layer stats collector, the
// NaN/divergence watchdog (unit-level and end-to-end through SiloFuse::Fit),
// mid-training quality probes, parameter naming, and Matrix memory
// accounting.

#include "obs/health.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/reference_stats.h"
#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "diffusion/gaussian_ddpm.h"
#include "lib/json.h"
#include "models/autoencoder.h"
#include "models/latent_diffusion.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "obs/metrics.h"
#include "obs/quality_audit.h"
#include "runtime/parallel_for.h"
#include "tensor/matrix.h"
#include "tensor/mem_stats.h"

namespace silofuse {
namespace obs {
namespace health {
namespace {

class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    unsetenv("SILOFUSE_HEALTH");
    unsetenv("SILOFUSE_HEALTH_EVERY");
  }
  void TearDown() override {
    unsetenv("SILOFUSE_HEALTH");
    unsetenv("SILOFUSE_HEALTH_EVERY");
    SetNumThreads(1);
  }
};

HealthOptions FastOptions() {
  HealthOptions options;
  options.warmup_steps = 5;
  options.ema_alpha = 0.5;  // fast EMA so short scripted sequences trip it
  options.stats_every = 0;  // no periodic walk unless a test asks for one
  return options;
}

double GaugeValue(const std::string& name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? std::numeric_limits<double>::quiet_NaN()
                                 : it->second;
}

TEST_F(HealthTest, ScriptedDivergenceTripsAfterWarmup) {
  TrainingMonitor monitor("unit", FastOptions());
  // Converging phase: losses settle near 0.5 and set the best-EMA floor.
  int64_t step = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(monitor.OnStep(++step, {{"loss", 0.5 + 0.01 * (10 - i)}}).ok());
  }
  // Explosion: EMA rockets past best + ratio * (|best| + offset).
  Status aborted = Status::OK();
  for (int i = 0; i < 10 && aborted.ok(); ++i) {
    aborted = monitor.OnStep(++step, {{"loss", 1000.0}});
  }
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(aborted.message().find("diverged"), std::string::npos)
      << aborted.message();
  EXPECT_EQ(GaugeValue("health.unit.watchdog.aborted"), 1.0);
}

TEST_F(HealthTest, ScriptedDivergenceSilentDuringWarmup) {
  TrainingMonitor monitor("unit", FastOptions());
  // All 5 warmup steps explode; the watchdog must stay quiet until the
  // warmup gate opens, then abort on the very next step.
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(monitor.OnStep(i, {{"loss", 1e6 * i}}).ok());
  }
  EXPECT_FALSE(monitor.OnStep(6, {{"loss", 1e7}}).ok());
}

TEST_F(HealthTest, NonFiniteLossAbortsNamingLayerAndStep) {
  Sequential net;
  Rng rng(3);
  net.Add(std::make_unique<Linear>(4, 4, &rng));
  TrainingMonitor monitor("unit", FastOptions());
  monitor.Watch(net.Parameters(), /*silo_id=*/2);
  // Poison one gradient; the abort should attribute it.
  net.Parameters()[0]->grad.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  const Status s = monitor.OnStep(
      7, {{"loss", std::numeric_limits<double>::quiet_NaN()}});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("non-finite loss"), std::string::npos);
  EXPECT_NE(s.message().find("linear0.weight"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("step 7"), std::string::npos);
  EXPECT_NE(s.message().find("silo 2"), std::string::npos);
}

TEST_F(HealthTest, NonFiniteParameterAbortsOnPeriodicWalkDespiteFiniteLoss) {
  Sequential net;
  Rng rng(4);
  net.Add(std::make_unique<Linear>(4, 4, &rng));
  HealthOptions options = FastOptions();
  options.stats_every = 2;
  TrainingMonitor monitor("unit", options);
  monitor.Watch(net.Parameters());
  net.Parameters()[1]->value.at(0, 0) = std::numeric_limits<float>::infinity();
  ASSERT_TRUE(monitor.OnStep(1, {{"loss", 0.5}}).ok());  // not a walk step
  const Status s = monitor.OnStep(2, {{"loss", 0.5}});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("non-finite parameter state"), std::string::npos);
  EXPECT_NE(s.message().find("linear0.bias"), std::string::npos) << s.message();
}

TEST_F(HealthTest, DisabledViaEnvIgnoresNaN) {
  setenv("SILOFUSE_HEALTH", "0", 1);
  TrainingMonitor monitor("unit");  // options come from the environment
  EXPECT_FALSE(monitor.enabled());
  EXPECT_TRUE(
      monitor.OnStep(1, {{"loss", std::numeric_limits<double>::quiet_NaN()}})
          .ok());
}

TEST_F(HealthTest, StatsEveryEnvOverridesCadence) {
  setenv("SILOFUSE_HEALTH_EVERY", "7", 1);
  EXPECT_EQ(HealthOptions::FromEnv().stats_every, 7);
}

TEST_F(HealthTest, LayerStatsDeterministicAcrossThreadCounts) {
  Sequential net;
  Rng rng(5);
  net.Add(std::make_unique<Linear>(96, 96, &rng));
  net.Add(std::make_unique<Linear>(96, 32, &rng));
  for (Parameter* p : net.Parameters()) {
    Rng grad_rng(11);
    p->grad = Matrix::RandomNormal(p->value.rows(), p->value.cols(), &grad_rng);
  }
  SetNumThreads(1);
  const std::vector<LayerStat> base = CollectLayerStats(net.Parameters());
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    const std::vector<LayerStat> again = CollectLayerStats(net.Parameters());
    ASSERT_EQ(again.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(again[i].name, base[i].name);
      // Bit-exact doubles: the stats walk is a fixed serial accumulation.
      EXPECT_EQ(again[i].grad_norm, base[i].grad_norm) << "threads=" << threads;
      EXPECT_EQ(again[i].value_norm, base[i].value_norm);
      EXPECT_EQ(again[i].grad_min, base[i].grad_min);
      EXPECT_EQ(again[i].grad_max, base[i].grad_max);
    }
  }
}

TEST_F(HealthTest, ParameterNamesAreFullyQualified) {
  auto data = GeneratePaperDataset("loan", 120, /*seed=*/9);
  ASSERT_TRUE(data.ok());
  AutoencoderConfig config;
  config.hidden_dim = 16;
  Rng rng(1);
  auto ae = TabularAutoencoder::Create(data.Value(), config, &rng);
  ASSERT_TRUE(ae.ok());
  bool saw_encoder = false, saw_decoder = false;
  for (Parameter* p : ae.Value()->Parameters()) {
    if (p->name.rfind("encoder.", 0) == 0) saw_encoder = true;
    if (p->name.rfind("decoder.", 0) == 0) saw_decoder = true;
  }
  EXPECT_TRUE(saw_encoder);
  EXPECT_TRUE(saw_decoder);
  EXPECT_EQ(ae.Value()->Parameters()[0]->name, "encoder.linear0.weight");

  GaussianDdpmConfig ddpm_config;
  ddpm_config.data_dim = 8;
  GaussianDdpm ddpm(ddpm_config, &rng);
  const std::vector<Parameter*> params = ddpm.Parameters();
  EXPECT_EQ(params.front()->name, "backbone.linear0.weight");
  EXPECT_EQ(params.back()->name, "skip.bias");
  // Residual blocks nest: backbone.residual<k>.linear0.weight.
  bool saw_residual = false;
  for (Parameter* p : params) {
    if (p->name.find(".residual") != std::string::npos &&
        p->name.find(".linear0.") != std::string::npos) {
      saw_residual = true;
    }
  }
  EXPECT_TRUE(saw_residual);
}

SiloFuseOptions TinyOptions() {
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 80;
  options.base.diffusion_train_steps = 120;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 48;
  options.base.diffusion.num_layers = 4;
  options.partition.num_clients = 2;
  return options;
}

TEST_F(HealthTest, ExplosiveLearningRateAbortsFitEarly) {
  SiloFuseOptions options = TinyOptions();
  options.base.autoencoder.lr = 1e6f;  // guaranteed blow-up
  options.base.autoencoder_steps = 400;
  SiloFuse model(options);
  Rng rng(1);
  const Status s = model.Fit(GeneratePaperDataset("loan", 260, 21).Value(), &rng);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("training-health watchdog"), std::string::npos)
      << s.message();
  // The abort names a concrete layer (encoder/decoder parameter) or reports
  // the loss key; either way the trainer and step are identified.
  EXPECT_NE(s.message().find("ae.train"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("step"), std::string::npos);
  // Early abort: the watchdog gauge is set and the aborts counter ticked.
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  auto it = snap.counters.find("health.watchdog.aborts");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_GE(it->second, 1);
}

TEST_F(HealthTest, HealthySiloFuseRunHasNoWatchdogAborts) {
  SiloFuse model(TinyOptions());
  Rng rng(2);
  ASSERT_TRUE(
      model.Fit(GeneratePaperDataset("loan", 260, 21).Value(), &rng).ok());
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  auto it = snap.counters.find("health.watchdog.aborts");
  EXPECT_TRUE(it == snap.counters.end() || it->second == 0);
  // Layer stats were collected for clients (silo-scoped) and coordinator.
  bool saw_client_layer = false, saw_coordinator_layer = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("health.ae.train.silo0.layer.encoder.", 0) == 0) {
      saw_client_layer = true;
    }
    if (name.rfind("health.coordinator.train.layer.backbone.", 0) == 0) {
      saw_coordinator_layer = true;
    }
  }
  EXPECT_TRUE(saw_client_layer);
  EXPECT_TRUE(saw_coordinator_layer);
}

TEST_F(HealthTest, QualityProbesEmitTimeSeriesInExportedJson) {
  SiloFuseOptions options = TinyOptions();
  options.base.quality_probe_every = 40;  // 3 probes over 120 diffusion steps
  SiloFuse model(options);
  Rng rng(3);
  ASSERT_TRUE(
      model.Fit(GeneratePaperDataset("loan", 260, 21).Value(), &rng).ok());

  const std::string path =
      std::string(::testing::TempDir()) + "health_metrics.json";
  ASSERT_TRUE(WriteMetricsJson(path).ok());
  auto doc = json::ParseFile(path);
  ASSERT_TRUE(doc.ok());
  const json::Value* gauges = doc.Value().Find("gauges");
  ASSERT_NE(gauges, nullptr);
  // The probes publish the serving auditor's score names.
  for (const char* score :
       {"marginal_distance", "correlation_drift", "utility_proxy", "dcr_p5"}) {
    EXPECT_NE(gauges->Find(std::string("quality.coordinator.") + score),
              nullptr)
        << score;
    EXPECT_NE(gauges->Find(std::string("quality.coordinator.series.0.") + score),
              nullptr)
        << score;
  }
  EXPECT_NE(gauges->Find("quality.coordinator.series.2.step"), nullptr);
  EXPECT_EQ(gauges->NumberOr("quality.coordinator.series.2.step", 0.0), 120.0);
  const json::Value* counters = doc.Value().Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("quality.coordinator.probes", 0.0), 3.0);
  EXPECT_EQ(counters->NumberOr("quality.coordinator.degenerate", 0.0), 0.0);
  // The utility proxy is a percentage in (0, 100].
  const double utility =
      gauges->NumberOr("quality.coordinator.utility_proxy", -1.0);
  EXPECT_GT(utility, 0.0);
  EXPECT_LE(utility, 100.0);
}

TEST_F(HealthTest, QualityProbeScoresEqualAuditorScores) {
  // One scorer: the same reference, batch and DCR seed give the same four
  // scores through a training probe and through a serving audit.
  const Table training = GeneratePaperDataset("loan", 400, 20).Value();
  Rng stats_rng(21);
  const ReferenceStats stats = ReferenceStats::Capture(training, 64, &stats_rng);
  QualityAuditOptions audit_options;
  audit_options.start_worker = false;
  const int rows = audit_options.reservoir_rows;
  // A batch of exactly reservoir_rows rows fills the reservoir in order, so
  // the audit scores the very table the probe scores.
  const Table batch = GeneratePaperDataset("loan", rows, 22).Value();

  QualityProbe probe;
  probe.every_steps = 1;
  probe.reference = &stats;
  probe.prefix = "quality.parity";
  probe.synthesize = [&](int probe_rows, Rng*) -> Result<Table> {
    EXPECT_EQ(probe_rows, rows);
    return batch;
  };
  QualityProbeRunner runner(probe);
  ASSERT_TRUE(runner.MaybeRun(1).ok());

  QualityAuditor auditor(audit_options);
  auditor.SetReference("parity", stats);
  auditor.Observe("parity", batch);
  ASSERT_EQ(auditor.RunOnce(), 1);
  const auto snapshots = auditor.Snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  ASSERT_EQ(snapshots[0].degenerate, 0);
  const AuditScores& audited = snapshots[0].last;
  EXPECT_EQ(GaugeValue("quality.parity.marginal_distance"),
            audited.marginal_distance);
  EXPECT_EQ(GaugeValue("quality.parity.correlation_drift"),
            audited.correlation_drift);
  EXPECT_EQ(GaugeValue("quality.parity.utility_proxy"),
            audited.utility_proxy);
  EXPECT_EQ(GaugeValue("quality.parity.dcr_p5"), audited.dcr_p5);
  EXPECT_GT(audited.dcr_p5, 0.0);
}

TEST_F(HealthTest, DegenerateProbeBatchIsCountedNotAnError) {
  const Table training = GeneratePaperDataset("loan", 200, 30).Value();
  Rng stats_rng(31);
  const ReferenceStats stats = ReferenceStats::Capture(training, 64, &stats_rng);
  // A sampler that collapsed to NaN: every numeric column is non-finite.
  QualityProbe probe;
  probe.every_steps = 10;
  probe.reference = &stats;
  probe.prefix = "quality.collapsed";
  probe.synthesize = [&](int rows, Rng*) -> Result<Table> {
    std::vector<std::vector<double>> columns(
        training.num_columns(),
        std::vector<double>(rows, std::numeric_limits<double>::quiet_NaN()));
    for (int c = 0; c < training.num_columns(); ++c) {
      if (training.schema().column(c).is_categorical()) {
        columns[c].assign(rows, 0.0);
      }
    }
    return Table::FromColumns(training.schema(), std::move(columns));
  };
  QualityProbeRunner runner(probe);
  EXPECT_TRUE(runner.MaybeRun(10).ok());
  EXPECT_TRUE(runner.MaybeRun(20).ok());
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters.at("quality.collapsed.degenerate"), 2);
  EXPECT_EQ(snap.counters.at("quality.collapsed.probes"), 2);
  // No scores were published for a batch the scorer refused.
  EXPECT_TRUE(std::isnan(GaugeValue("quality.collapsed.utility_proxy")));
  EXPECT_TRUE(std::isnan(GaugeValue("quality.collapsed.series.1.step")));
}

TEST_F(HealthTest, QualityProbesNeedAReference) {
  // reference_stats_rows = 0 captures no reference, so, as for an audit of
  // a deployment without one, no probe runs.
  SiloFuseOptions options = TinyOptions();
  options.base.autoencoder_steps = 20;
  options.base.diffusion_train_steps = 40;
  options.base.quality_probe_every = 20;
  options.reference_stats_rows = 0;
  SiloFuse model(options);
  Rng rng(5);
  ASSERT_TRUE(
      model.Fit(GeneratePaperDataset("loan", 120, 21).Value(), &rng).ok());
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  auto it = snap.counters.find("quality.coordinator.probes");
  EXPECT_TRUE(it == snap.counters.end() || it->second == 0);
}

TEST_F(HealthTest, LatentDiffProbesScoreAgainstItsOwnReference) {
  LatentDiffusionConfig config = TinyOptions().base;
  config.autoencoder_steps = 20;
  config.diffusion_train_steps = 40;
  config.quality_probe_every = 20;
  LatentDiffSynthesizer model(config);
  Rng rng(9);
  ASSERT_TRUE(model.Fit(GeneratePaperDataset("loan", 200, 21).Value(), &rng)
                  .ok());
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters.at("quality.latentdiff.probes"), 2);
  EXPECT_EQ(GaugeValue("quality.latentdiff.series.1.step"), 40.0);
  EXPECT_GT(GaugeValue("quality.latentdiff.utility_proxy"), 0.0);
}

TEST_F(HealthTest, QualityProbesDoNotPerturbTraining) {
  // Probes draw from their own fixed-seed Rng, so the trained model (and
  // everything synthesized from it) is byte-identical with probes on/off.
  const Table data = GeneratePaperDataset("loan", 200, 21).Value();
  SiloFuseOptions plain = TinyOptions();
  plain.base.autoencoder_steps = 40;
  plain.base.diffusion_train_steps = 60;
  SiloFuseOptions probed = plain;
  probed.base.quality_probe_every = 20;

  Rng rng1(7), rng2(7);
  SiloFuse model1(plain), model2(probed);
  ASSERT_TRUE(model1.Fit(data, &rng1).ok());
  ASSERT_TRUE(model2.Fit(data, &rng2).ok());
  auto synth1 = model1.Synthesize(50, &rng1);
  auto synth2 = model2.Synthesize(50, &rng2);
  ASSERT_TRUE(synth1.ok());
  ASSERT_TRUE(synth2.ok());
  ASSERT_EQ(synth1.Value().num_rows(), synth2.Value().num_rows());
  for (int c = 0; c < synth1.Value().num_columns(); ++c) {
    for (int r = 0; r < synth1.Value().num_rows(); ++r) {
      ASSERT_EQ(synth1.Value().value(r, c), synth2.Value().value(r, c))
          << "col " << c << " row " << r;
    }
  }
}

TEST_F(HealthTest, MemStatsTrackLiveAndPeakBytes) {
  memstats::SetEnabled(true);  // resets counters
  const int64_t start_allocs = memstats::AllocCount();
  {
    Matrix m(256, 256);
    EXPECT_GE(memstats::LiveBytes(),
              static_cast<int64_t>(256 * 256 * sizeof(float)));
    EXPECT_GE(memstats::PeakBytes(), memstats::LiveBytes());
  }
  EXPECT_GT(memstats::AllocCount(), start_allocs);
  // The 256x256 buffer is freed: live drops below the recorded peak.
  EXPECT_LT(memstats::LiveBytes(), memstats::PeakBytes());
  memstats::SetEnabled(false);
  const int64_t frozen = memstats::AllocCount();
  Matrix m2(64, 64);
  EXPECT_EQ(memstats::AllocCount(), frozen);  // disabled: no accounting
}

TEST_F(HealthTest, MemStatsEnvReinit) {
  setenv("SILOFUSE_MEM_STATS", "1", 1);
  memstats::ReinitFromEnv();
  EXPECT_TRUE(memstats::Enabled());
  setenv("SILOFUSE_MEM_STATS", "0", 1);
  memstats::ReinitFromEnv();
  EXPECT_FALSE(memstats::Enabled());
  unsetenv("SILOFUSE_MEM_STATS");
}

}  // namespace
}  // namespace health
}  // namespace obs
}  // namespace silofuse
