// Online synthesis-quality auditing: ReferenceStats capture/serialization
// and scoring, the hardened degenerate-input behavior of the resemblance and
// DCR scorers it relies on, the QualityAuditor itself (reservoir, pacing,
// breach alerting on a VirtualClock), and flight-recorder trigger dedup.

#include "obs/quality_audit.h"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/reference_stats.h"
#include "data/generators/paper_datasets.h"
#include "metrics/resemblance.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "privacy/attacks.h"

namespace silofuse {
namespace {

/// Same-schema table where every column is stuck at one value — the shape a
/// collapsed sampler produces (categorical code 0 is always valid).
Table ConstantTable(const Schema& schema, int rows) {
  std::vector<std::vector<double>> columns(
      schema.num_columns(), std::vector<double>(rows, 0.0));
  return Table::FromColumns(schema, std::move(columns)).Value();
}

Table NumericTable(const std::vector<std::vector<double>>& columns) {
  Schema schema;
  for (size_t c = 0; c < columns.size(); ++c) {
    schema.AddColumn(ColumnSpec::Numeric("n" + std::to_string(c)));
  }
  return Table::FromColumns(schema, columns).Value();
}

// ---------------------------------------------------------------------------
// ReferenceStats

TEST(ReferenceStatsTest, CaptureSaveLoadRoundTrip) {
  Table training = GeneratePaperDataset("loan", 300, 1).Value();
  Rng rng(3);
  ReferenceStats stats = ReferenceStats::Capture(training, 64, &rng);
  ASSERT_FALSE(stats.empty());
  EXPECT_TRUE(stats.schema == training.schema());
  EXPECT_EQ(stats.training_rows, 300);
  EXPECT_EQ(stats.reference_sample.num_rows(), 64);
  ASSERT_EQ(static_cast<int>(stats.columns.size()), training.num_columns());
  const int d = training.num_columns();
  EXPECT_EQ(static_cast<int>(stats.associations.size()), d * d);

  std::stringstream stream;
  BinaryWriter writer(&stream);
  stats.Save(&writer);
  BinaryReader reader(&stream);
  auto loaded = ReferenceStats::Load(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.Value().schema == stats.schema);
  EXPECT_EQ(loaded.Value().training_rows, stats.training_rows);
  EXPECT_EQ(loaded.Value().associations, stats.associations);
  for (int c = 0; c < d; ++c) {
    EXPECT_EQ(loaded.Value().columns[c].quantiles, stats.columns[c].quantiles);
    EXPECT_EQ(loaded.Value().columns[c].frequencies,
              stats.columns[c].frequencies);
  }
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < d; ++c) {
      EXPECT_EQ(loaded.Value().reference_sample.value(r, c),
                stats.reference_sample.value(r, c));
    }
  }
}

std::string SavedPayload(const ReferenceStats& stats) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  stats.Save(&writer);
  return stream.str();
}

TEST(ReferenceStatsTest, TruncatedPayloadIsIOError) {
  Table training = GeneratePaperDataset("loan", 120, 2).Value();
  Rng rng(4);
  const std::string payload =
      SavedPayload(ReferenceStats::Capture(training, 32, &rng));
  for (size_t length = 0; length < payload.size(); ++length) {
    std::stringstream truncated(payload.substr(0, length));
    BinaryReader reader(&truncated);
    const auto loaded = ReferenceStats::Load(&reader);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << length << " bytes loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << length;
  }
}

TEST(ReferenceStatsTest, FlippedSketchBitsFailToLoadOrStayScoreable) {
  // A corrupted sketch must fail the load. If it loads, every scorer must
  // still be able to index it: a sketch that loads but makes every audit
  // degenerate would page a false quality breach instead.
  Table training = GeneratePaperDataset("loan", 120, 2).Value();
  Rng rng(4);
  const ReferenceStats stats = ReferenceStats::Capture(training, 32, &rng);
  const std::string payload = SavedPayload(stats);
  // The sketch and association bytes sit between the schema + row count and
  // the reference sample, in the order Save writes them.
  std::stringstream head, body;
  BinaryWriter head_writer(&head), body_writer(&body);
  stats.schema.Save(&head_writer);
  head_writer.WriteI64(stats.training_rows);
  for (const ColumnSketch& sketch : stats.columns) {
    body_writer.WriteDoubleVector(sketch.quantiles);
    body_writer.WriteDoubleVector(sketch.frequencies);
  }
  body_writer.WriteDoubleVector(stats.associations);
  const size_t begin = head.str().size();
  const size_t end = begin + body.str().size();
  ASSERT_EQ(payload.substr(begin, end - begin), body.str());

  const Table healthy = GeneratePaperDataset("loan", 64, 5).Value();
  int rejected = 0;
  for (size_t offset = begin; offset < end; ++offset) {
    for (const int bit : {0, 7}) {
      std::string flipped = payload;
      flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << bit));
      std::stringstream stream(flipped);
      BinaryReader reader(&stream);
      const auto loaded = ReferenceStats::Load(&reader);
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
        ++rejected;
        continue;
      }
      // What loads holds sketches the scorers can index.
      const ReferenceStats& got = loaded.Value();
      for (int c = 0; c < got.schema.num_columns(); ++c) {
        const ColumnSketch& sketch = got.columns[c];
        const ColumnSpec& spec = got.schema.column(c);
        const size_t codes = spec.is_categorical() ? spec.cardinality : 0;
        ASSERT_EQ(sketch.frequencies.size(), codes) << offset << "/" << bit;
        ASSERT_TRUE(sketch.quantiles.empty() ||
                    (!spec.is_categorical() &&
                     sketch.quantiles.size() ==
                         static_cast<size_t>(ReferenceStats::kSketchQuantiles)))
            << offset << "/" << bit;
        for (const double q : sketch.quantiles) {
          ASSERT_TRUE(std::isfinite(q)) << offset << "/" << bit;
        }
        for (const double f : sketch.frequencies) {
          ASSERT_TRUE(f >= 0.0 && f <= 1.0) << offset << "/" << bit;
        }
      }
      for (const double a : got.associations) {
        ASSERT_TRUE(std::isfinite(a)) << offset << "/" << bit;
      }
      // The reference sample lies outside the flipped range, so of the four
      // scores only these two read the flipped bytes.
      const auto marginal = MarginalDistanceToSketch(loaded.Value(), healthy);
      ASSERT_TRUE(marginal.ok()) << "bit " << bit << " of byte " << offset
                                 << " loaded but: "
                                 << marginal.status().ToString();
      const auto drift = AssociationDriftFromReference(loaded.Value(), healthy);
      ASSERT_TRUE(drift.ok()) << "bit " << bit << " of byte " << offset
                              << " loaded but: " << drift.status().ToString();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(ReferenceStatsTest, MarginalDistanceSeparatesFreshFromCollapsed) {
  Table training = GeneratePaperDataset("loan", 400, 5).Value();
  Rng rng(6);
  ReferenceStats stats = ReferenceStats::Capture(training, 128, &rng);
  Table fresh = GeneratePaperDataset("loan", 200, 7).Value();
  auto fresh_distance = MarginalDistanceToSketch(stats, fresh);
  ASSERT_TRUE(fresh_distance.ok()) << fresh_distance.status().ToString();
  auto collapsed_distance =
      MarginalDistanceToSketch(stats, ConstantTable(training.schema(), 200));
  ASSERT_TRUE(collapsed_distance.ok())
      << collapsed_distance.status().ToString();
  EXPECT_GE(fresh_distance.Value(), 0.0);
  EXPECT_LE(fresh_distance.Value(), 1.0);
  // A collapsed sampler is unmistakably further from the training marginals
  // than a fresh draw from the same distribution.
  EXPECT_GT(collapsed_distance.Value(), fresh_distance.Value() + 0.1);
}

TEST(ReferenceStatsTest, AssociationDriftLowForFreshDraw) {
  Table training = GeneratePaperDataset("loan", 400, 8).Value();
  Rng rng(9);
  ReferenceStats stats = ReferenceStats::Capture(training, 64, &rng);
  Table fresh = GeneratePaperDataset("loan", 300, 10).Value();
  auto drift = AssociationDriftFromReference(stats, fresh);
  ASSERT_TRUE(drift.ok()) << drift.status().ToString();
  EXPECT_GE(drift.Value(), 0.0);
  EXPECT_LT(drift.Value(), 0.35);
}

TEST(ReferenceStatsTest, ScoringWithoutReferenceIsFailedPrecondition) {
  ReferenceStats empty;
  Table batch = GeneratePaperDataset("loan", 50, 1).Value();
  EXPECT_EQ(MarginalDistanceToSketch(empty, batch).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(AssociationDriftFromReference(empty, batch).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReferenceStatsTest, SchemaMismatchRejected) {
  Table training = GeneratePaperDataset("loan", 100, 1).Value();
  Rng rng(2);
  ReferenceStats stats = ReferenceStats::Capture(training, 32, &rng);
  Table other = GeneratePaperDataset("adult", 100, 1).Value();
  EXPECT_EQ(MarginalDistanceToSketch(stats, other).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Hardened resemblance (satellite: degenerate audit inputs)

TEST(ResemblanceHardeningTest, ConstantSyntheticColumnsScoreBadlyNotNaN) {
  Table real = GeneratePaperDataset("loan", 200, 11).Value();
  Table collapsed = ConstantTable(real.schema(), 200);
  auto quick = ComputeResemblanceQuick(real, collapsed);
  ASSERT_TRUE(quick.ok()) << quick.status().ToString();
  EXPECT_TRUE(std::isfinite(quick.Value().overall));
  // Collapsed output must look BAD, not error out: a broken sampler has to
  // burn breach budget, not vanish into an error path.
  EXPECT_LT(quick.Value().overall, 80.0);
}

TEST(ResemblanceHardeningTest, BothSidesConstantAndEqualIsPerfectColumn) {
  Table a = NumericTable({std::vector<double>(20, 5.0)});
  Table b = NumericTable({std::vector<double>(20, 5.0)});
  auto quick = ComputeResemblanceQuick(a, b);
  ASSERT_TRUE(quick.ok()) << quick.status().ToString();
  EXPECT_TRUE(std::isfinite(quick.Value().overall));
  EXPECT_NEAR(quick.Value().column_similarity, 100.0, 1e-9);
}

TEST(ResemblanceHardeningTest, UnderTenRowsRejectedWithCounts) {
  Table real = GeneratePaperDataset("loan", 100, 12).Value();
  Table tiny = real.SliceRows(0, 4);
  auto quick = ComputeResemblanceQuick(real, tiny);
  ASSERT_FALSE(quick.ok());
  EXPECT_EQ(quick.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(quick.status().ToString().find("4"), std::string::npos);
}

TEST(ResemblanceHardeningTest, AllCategoricalTableScoresFinite) {
  Schema schema({ColumnSpec::Categorical("a", 3),
                 ColumnSpec::Categorical("b", 4)});
  Rng rng(13);
  std::vector<std::vector<double>> real_cols(2), synth_cols(2);
  for (int r = 0; r < 60; ++r) {
    real_cols[0].push_back(static_cast<double>(rng.UniformInt(0, 2)));
    real_cols[1].push_back(static_cast<double>(rng.UniformInt(0, 3)));
    synth_cols[0].push_back(static_cast<double>(rng.UniformInt(0, 2)));
    synth_cols[1].push_back(static_cast<double>(rng.UniformInt(0, 3)));
  }
  Table real = Table::FromColumns(schema, real_cols).Value();
  Table synth = Table::FromColumns(schema, synth_cols).Value();
  auto quick = ComputeResemblanceQuick(real, synth);
  ASSERT_TRUE(quick.ok()) << quick.status().ToString();
  EXPECT_TRUE(std::isfinite(quick.Value().overall));
  EXPECT_GT(quick.Value().overall, 0.0);
}

TEST(ResemblanceHardeningTest, NonFiniteValuesRejectedNamingColumn) {
  std::vector<double> clean(20, 1.0), dirty(20, 2.0);
  for (int i = 0; i < 20; ++i) clean[i] = static_cast<double>(i);
  Table real = NumericTable({clean, dirty});
  std::vector<double> poisoned = dirty;
  poisoned[7] = std::nan("");
  Table synth = NumericTable({clean, poisoned});
  auto quick = ComputeResemblanceQuick(real, synth);
  ASSERT_FALSE(quick.ok());
  EXPECT_EQ(quick.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(quick.status().ToString().find("n1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hardened DCR (satellite: degenerate audit inputs)

TEST(DcrHardeningTest, SchemaMismatchIsStatusNotCrash) {
  Table real = GeneratePaperDataset("loan", 50, 1).Value();
  Table other = GeneratePaperDataset("adult", 50, 1).Value();
  PrivacyConfig config;
  Rng rng(1);
  EXPECT_FALSE(DistanceToClosestRecord(real, other, config, &rng).ok());
}

TEST(DcrHardeningTest, SingleRealRowRejectedDescriptively) {
  Table real = GeneratePaperDataset("loan", 50, 2).Value();
  Table one_row = real.SliceRows(0, 1);
  PrivacyConfig config;
  Rng rng(2);
  auto result = DistanceToClosestRecord(one_row, real, config, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("1"), std::string::npos);
}

TEST(DcrHardeningTest, EmptySyntheticRejected) {
  Table real = GeneratePaperDataset("loan", 50, 3).Value();
  Table empty(real.schema());
  PrivacyConfig config;
  Rng rng(3);
  EXPECT_FALSE(DistanceToClosestRecord(real, empty, config, &rng).ok());
}

// ---------------------------------------------------------------------------
// QualityAuditor

obs::QualityAuditOptions ManualAuditOptions() {
  obs::QualityAuditOptions options;
  options.start_worker = false;  // tests drive RunOnce deterministically
  options.audit_period_ns = 1000;
  options.min_audit_rows = 16;
  options.reservoir_rows = 64;
  options.breach.min_requests = 2;
  return options;
}

TEST(QualityAuditorTest, NoReferenceMeansObservedButNeverScored) {
  VirtualClock clock;
  obs::QualityAuditor auditor(ManualAuditOptions(), &clock);
  Table batch = GeneratePaperDataset("loan", 40, 1).Value();
  auditor.Observe("bare", batch);
  EXPECT_FALSE(auditor.HasReference("bare"));
  EXPECT_EQ(auditor.RunOnce(), 0);
  auto snapshots = auditor.Snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].deployment, "bare");
  EXPECT_FALSE(snapshots[0].has_reference);
  EXPECT_EQ(snapshots[0].observed_rows, 40);
  EXPECT_EQ(snapshots[0].audits, 0);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("audit.bare.has_reference")
                ->Value(),
            0.0);
}

TEST(QualityAuditorTest, TinyReferenceSampleCountsAsNoReference) {
  VirtualClock clock;
  obs::QualityAuditor auditor(ManualAuditOptions(), &clock);
  Table training = GeneratePaperDataset("loan", 100, 2).Value();
  Rng rng(5);
  auditor.SetReference("tiny", ReferenceStats::Capture(training, 4, &rng));
  EXPECT_FALSE(auditor.HasReference("tiny"));
}

TEST(QualityAuditorTest, HealthyTrafficAuditsGoodAndPublishesGauges) {
  VirtualClock clock;
  obs::QualityAuditOptions options = ManualAuditOptions();
  // Lenient thresholds: this test is about the plumbing, the statistical
  // separation is covered by the ReferenceStats tests above.
  options.max_marginal_distance = 0.95;
  options.max_correlation_drift = 0.95;
  options.min_utility_proxy = 1.0;
  obs::QualityAuditor auditor(options, &clock);
  Table training = GeneratePaperDataset("loan", 400, 20).Value();
  Rng rng(21);
  auditor.SetReference("healthy", ReferenceStats::Capture(training, 64, &rng));
  ASSERT_TRUE(auditor.HasReference("healthy"));
  auditor.Observe("healthy", GeneratePaperDataset("loan", 80, 22).Value());
  EXPECT_EQ(auditor.RunOnce(), 1);
  EXPECT_EQ(auditor.RunOnce(), 0);  // reservoir drained, period not elapsed

  auto snapshots = auditor.Snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].audits, 1);
  EXPECT_EQ(snapshots[0].bad_audits, 0);
  EXPECT_EQ(snapshots[0].degenerate, 0);
  EXPECT_TRUE(snapshots[0].last.good) << snapshots[0].last.detail;
  EXPECT_FALSE(snapshots[0].breached);
  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("audit.healthy.has_reference")->Value(), 1.0);
  EXPECT_GT(registry.GetGauge("audit.healthy.utility_proxy")->Value(), 0.0);
  EXPECT_GT(registry.GetGauge("audit.healthy.dcr_p5")->Value(), 0.0);
  EXPECT_EQ(registry.GetCounter("audit.healthy.audits")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("audit.healthy.sampled_rows")->Value(), 64);
}

TEST(QualityAuditorTest, CollapsedSamplerBreachesAndFiresCallback) {
  VirtualClock clock;
  obs::QualityAuditOptions options = ManualAuditOptions();
  obs::QualityAuditor auditor(options, &clock);
  Table training = GeneratePaperDataset("loan", 300, 30).Value();
  Rng rng(31);
  auditor.SetReference("broken", ReferenceStats::Capture(training, 64, &rng));

  std::vector<std::string> breached_deployments;
  std::string breach_reason;
  auditor.SetOnBreach([&](const std::string& deployment,
                          const std::string& reason) {
    breached_deployments.push_back(deployment);
    breach_reason = reason;
  });

  Table collapsed = ConstantTable(training.schema(), 64);
  auditor.Observe("broken", collapsed);
  EXPECT_EQ(auditor.RunOnce(), 1);  // first bad audit: below min_requests
  EXPECT_TRUE(breached_deployments.empty());
  clock.SleepFor(2LL * 1000 * 1000 * 1000);
  auditor.Observe("broken", collapsed);
  EXPECT_EQ(auditor.RunOnce(), 1);  // second bad audit enters breach

  ASSERT_EQ(breached_deployments.size(), 1u);
  EXPECT_EQ(breached_deployments[0], "broken");
  EXPECT_FALSE(breach_reason.empty());
  auto snapshots = auditor.Snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_TRUE(snapshots[0].breached);
  EXPECT_EQ(snapshots[0].breaches, 1);
  EXPECT_EQ(snapshots[0].bad_audits, 2);
  EXPECT_FALSE(snapshots[0].last.good);
  EXPECT_FALSE(snapshots[0].last.detail.empty());
  auto& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("audit.broken.breached")->Value(), 1.0);
  EXPECT_EQ(registry.GetCounter("audit.broken.bad_audits")->Value(), 2);
}

TEST(QualityAuditorTest, NonFiniteBatchCountsAsDegenerateBadAudit) {
  VirtualClock clock;
  obs::QualityAuditor auditor(ManualAuditOptions(), &clock);
  std::vector<double> a(40), b(40);
  for (int i = 0; i < 40; ++i) {
    a[i] = static_cast<double>(i);
    b[i] = 100.0 - i;
  }
  Table training = NumericTable({a, b});
  Rng rng(40);
  auditor.SetReference("nan", ReferenceStats::Capture(training, 32, &rng));
  std::vector<double> poisoned = b;
  poisoned[3] = std::nan("");
  auditor.Observe("nan", NumericTable({a, poisoned}));
  EXPECT_EQ(auditor.RunOnce(), 1);
  auto snapshots = auditor.Snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].degenerate, 1);
  EXPECT_EQ(snapshots[0].bad_audits, 1);
  EXPECT_FALSE(snapshots[0].last.good);
  EXPECT_FALSE(snapshots[0].last.detail.empty());
}

TEST(QualityAuditorTest, AuditPeriodAndMinRowsGateScoring) {
  VirtualClock clock;
  obs::QualityAuditOptions options = ManualAuditOptions();
  options.audit_period_ns = 1000 * 1000 * 1000;  // 1 s
  options.max_marginal_distance = 0.95;
  options.max_correlation_drift = 0.95;
  options.min_utility_proxy = 1.0;
  obs::QualityAuditor auditor(options, &clock);
  Table training = GeneratePaperDataset("loan", 300, 50).Value();
  Rng rng(51);
  auditor.SetReference("gated", ReferenceStats::Capture(training, 64, &rng));

  // Below min_audit_rows: nothing to score.
  auditor.Observe("gated", GeneratePaperDataset("loan", 8, 52).Value());
  EXPECT_EQ(auditor.RunOnce(), 0);
  // Enough rows: first audit is eager.
  auditor.Observe("gated", GeneratePaperDataset("loan", 32, 53).Value());
  EXPECT_EQ(auditor.RunOnce(), 1);
  // Refilled reservoir but inside the audit period: gated.
  auditor.Observe("gated", GeneratePaperDataset("loan", 32, 54).Value());
  EXPECT_EQ(auditor.RunOnce(), 0);
  clock.SleepFor(1500 * 1000 * 1000LL);
  EXPECT_EQ(auditor.RunOnce(), 1);
  auto snapshots = auditor.Snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].audits, 2);
  EXPECT_EQ(snapshots[0].observed_rows, 8 + 32 + 32);
}

TEST(QualityAuditorTest, ReservoirCapsCopiedRowsPerAudit) {
  VirtualClock clock;
  obs::QualityAuditOptions options = ManualAuditOptions();
  options.reservoir_rows = 24;
  options.max_marginal_distance = 1.0;
  options.max_correlation_drift = 1.0;
  options.min_utility_proxy = 0.0;
  obs::QualityAuditor auditor(options, &clock);
  Table training = GeneratePaperDataset("loan", 300, 60).Value();
  Rng rng(61);
  auditor.SetReference("capped", ReferenceStats::Capture(training, 64, &rng));
  auditor.Observe("capped", GeneratePaperDataset("loan", 500, 62).Value());
  EXPECT_EQ(auditor.RunOnce(), 1);
  // The scoring pass saw at most reservoir_rows even though 500 streamed by.
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("audit.capped.sampled_rows")
                ->Value(),
            24);
}

TEST(QualityAuditorTest, BackgroundWorkerScoresWithoutManualRunOnce) {
  obs::QualityAuditOptions options;
  options.start_worker = true;
  options.worker_period_ns = 2LL * 1000 * 1000;  // 2 ms sweep
  options.audit_period_ns = 1;                   // every sweep may score
  options.min_audit_rows = 16;
  options.max_marginal_distance = 0.95;
  options.max_correlation_drift = 0.95;
  options.min_utility_proxy = 1.0;
  obs::QualityAuditor auditor(options);  // system clock
  Table training = GeneratePaperDataset("loan", 300, 70).Value();
  Rng rng(71);
  auditor.SetReference("bg", ReferenceStats::Capture(training, 64, &rng));
  auditor.Observe("bg", GeneratePaperDataset("loan", 64, 72).Value());
  for (int i = 0; i < 500; ++i) {
    if (!auditor.Snapshot().empty() && auditor.Snapshot()[0].audits > 0) break;
    SystemClock::Default()->SleepFor(2 * 1000 * 1000);
  }
  auto snapshots = auditor.Snapshot();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_GT(snapshots[0].audits, 0);
}

// ---------------------------------------------------------------------------
// Flight-recorder trigger dedup (satellite)

TEST(FlightTriggerDedupTest, OneDumpPerEpochOnVirtualClock) {
  auto& flight = obs::FlightRecorder::Global();
  auto& registry = obs::MetricsRegistry::Global();
  const std::string dir = ::testing::TempDir();
  flight.Clear();
  flight.SetDumpDir(dir);
  VirtualClock clock;
  flight.SetTriggerDedup(10LL * 1000 * 1000 * 1000, &clock);

  const int64_t dumps_before = registry.GetCounter("flight.dumps")->Value();
  const int64_t skipped_before =
      registry.GetCounter("flight.dump_skipped")->Value();

  // SLO breach and quality breach trip on the same incident: one dump.
  flight.DumpOnTrigger("slo_breach");
  flight.DumpOnTrigger("quality_breach");
  EXPECT_EQ(registry.GetCounter("flight.dumps")->Value(), dumps_before + 1);
  EXPECT_EQ(registry.GetCounter("flight.dump_skipped")->Value(),
            skipped_before + 1);

  // Past the dedup window: a new incident dumps again.
  clock.SleepFor(11LL * 1000 * 1000 * 1000);
  flight.DumpOnTrigger("quality_breach");
  EXPECT_EQ(registry.GetCounter("flight.dumps")->Value(), dumps_before + 2);
  EXPECT_EQ(registry.GetCounter("flight.dump_skipped")->Value(),
            skipped_before + 1);

  flight.SetTriggerDedup(0);  // disarm for other tests in this binary
  flight.SetDumpDir("");
  flight.Clear();
}

TEST(FlightTriggerDedupTest, DisarmedRecorderDumpsEveryTrigger) {
  auto& flight = obs::FlightRecorder::Global();
  auto& registry = obs::MetricsRegistry::Global();
  flight.Clear();
  flight.SetDumpDir(::testing::TempDir());
  flight.SetTriggerDedup(0);
  const int64_t dumps_before = registry.GetCounter("flight.dumps")->Value();
  flight.DumpOnTrigger("a");
  flight.DumpOnTrigger("b");
  EXPECT_EQ(registry.GetCounter("flight.dumps")->Value(), dumps_before + 2);
  flight.SetDumpDir("");
  flight.Clear();
}

}  // namespace
}  // namespace silofuse
