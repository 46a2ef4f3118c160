#include <cmath>

#include <gtest/gtest.h>

#include "data/generators/paper_datasets.h"
#include "metrics/association.h"
#include "metrics/report.h"
#include "metrics/resemblance.h"
#include "metrics/utility.h"
#include "obs/metrics.h"

namespace silofuse {
namespace {

TEST(AssociationTest, PearsonPerfectAndInverse) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-9);
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-9);
}

TEST(AssociationTest, PearsonDegenerateIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(AssociationTest, TheilsUDeterministicDependence) {
  // x fully determined by y.
  std::vector<int> y = {0, 0, 1, 1, 2, 2};
  std::vector<int> x = {1, 1, 0, 0, 1, 1};
  EXPECT_NEAR(TheilsU(x, y, 2, 3), 1.0, 1e-9);
}

TEST(AssociationTest, TheilsUIndependenceNearZero) {
  Rng rng(1);
  std::vector<int> x(4000), y(4000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<int>(rng.UniformInt(0, 2));
    y[i] = static_cast<int>(rng.UniformInt(0, 2));
  }
  EXPECT_LT(TheilsU(x, y, 3, 3), 0.01);
}

TEST(AssociationTest, TheilsUConstantXIsOne) {
  EXPECT_DOUBLE_EQ(TheilsU({0, 0, 0}, {0, 1, 2}, 2, 3), 1.0);
}

TEST(AssociationTest, CorrelationRatioSeparatedGroups) {
  std::vector<int> cats = {0, 0, 1, 1};
  std::vector<double> values = {1.0, 1.1, 9.0, 9.1};
  EXPECT_GT(CorrelationRatio(cats, values, 2), 0.99);
}

TEST(AssociationTest, CorrelationRatioIndependentNearZero) {
  Rng rng(2);
  std::vector<int> cats(3000);
  std::vector<double> values(3000);
  for (size_t i = 0; i < cats.size(); ++i) {
    cats[i] = static_cast<int>(rng.UniformInt(0, 3));
    values[i] = rng.Normal();
  }
  EXPECT_LT(CorrelationRatio(cats, values, 4), 0.1);
}

TEST(AssociationTest, EntropyUniformVsConstant) {
  EXPECT_NEAR(Entropy({0, 1, 2, 3}, 4), std::log(4.0), 1e-9);
  EXPECT_DOUBLE_EQ(Entropy({1, 1, 1}, 3), 0.0);
}

TEST(AssociationTest, KsStatisticIdenticalZeroDisjointOne) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {10, 20, 30};
  EXPECT_DOUBLE_EQ(KsStatistic(a, a), 0.0);
  EXPECT_DOUBLE_EQ(KsStatistic(a, b), 1.0);
}

TEST(AssociationTest, TotalVariationBounds) {
  EXPECT_DOUBLE_EQ(TotalVariation({0, 0}, {0, 0}, 2), 0.0);
  EXPECT_DOUBLE_EQ(TotalVariation({0, 0}, {1, 1}, 2), 1.0);
  EXPECT_DOUBLE_EQ(TotalVariation({0, 1}, {1, 0}, 2), 0.0);  // same marginal
}

TEST(AssociationTest, JsDistanceBoundsNumeric) {
  Rng rng(3);
  std::vector<double> a(2000), b(2000), c(2000);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Normal(0.0, 1.0);
    b[i] = rng.Normal(0.0, 1.0);
    c[i] = rng.Normal(50.0, 1.0);
  }
  EXPECT_LT(JensenShannonDistanceNumeric(a, b), 0.2);
  EXPECT_GT(JensenShannonDistanceNumeric(a, c), 0.9);
}

TEST(AssociationTest, JsDistanceCategoricalSymmetric) {
  std::vector<int> a = {0, 0, 1, 2};
  std::vector<int> b = {1, 1, 2, 2};
  EXPECT_NEAR(JensenShannonDistanceCategorical(a, b, 3),
              JensenShannonDistanceCategorical(b, a, 3), 1e-12);
}

TEST(AssociationTest, QuantileCorrelationSameDistributionHigh) {
  Rng rng(4);
  std::vector<double> a(1500), b(1500);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Normal();
    b[i] = rng.Normal();
  }
  EXPECT_GT(QuantileCorrelation(a, b), 0.98);
}

TEST(AssociationTest, PairwiseAssociationsShapeAndDiagonal) {
  Table t = GeneratePaperDataset("loan", 300, 1).Value();
  Matrix assoc = PairwiseAssociations(t);
  EXPECT_EQ(assoc.rows(), t.num_columns());
  EXPECT_EQ(assoc.cols(), t.num_columns());
  for (int i = 0; i < assoc.rows(); ++i) EXPECT_EQ(assoc.at(i, i), 1.0f);
}

TEST(AssociationTest, AssociationDifferenceZeroForIdenticalTables) {
  Table t = GeneratePaperDataset("loan", 300, 2).Value();
  EXPECT_NEAR(AssociationDifference(t, t), 0.0, 1e-9);
}

TEST(ResemblanceTest, IdenticalDistributionScoresHigh) {
  Table a = GeneratePaperDataset("loan", 600, 3).Value();
  Table b = GeneratePaperDataset("loan", 600, 4).Value();  // same generator
  Rng rng(5);
  auto res = ComputeResemblance(a, b, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res.Value().overall, 85.0);
}

TEST(ResemblanceTest, DifferentDatasetScoresLower) {
  // Same schema shape is required, so perturb: compare loan against a
  // marginal-destroying shuffle of itself with shifted numerics.
  Table a = GeneratePaperDataset("loan", 600, 5).Value();
  Table b = a;
  for (int c = 0; c < b.num_columns(); ++c) {
    if (!b.schema().column(c).is_categorical()) {
      for (int r = 0; r < b.num_rows(); ++r) {
        b.set_value(r, c, b.value(r, c) * 3.0 + 5.0);
      }
    }
  }
  Rng rng(6);
  const double same =
      ComputeResemblance(a, a.Sample(500, &rng), &rng).Value().overall;
  const double shifted = ComputeResemblance(a, b, &rng).Value().overall;
  EXPECT_GT(same, shifted + 5.0);
}

TEST(ResemblanceTest, RejectsSchemaMismatch) {
  Table a = GeneratePaperDataset("loan", 100, 1).Value();
  Table b = GeneratePaperDataset("adult", 100, 1).Value();
  Rng rng(7);
  EXPECT_FALSE(ComputeResemblance(a, b, &rng).ok());
}

TEST(ResemblanceTest, RejectsTinyTables) {
  Table a = GeneratePaperDataset("loan", 5, 1).Value();
  Rng rng(8);
  EXPECT_FALSE(ComputeResemblance(a, a, &rng).ok());
}

TEST(UtilityTest, RealDataUtilityNearHundred) {
  Table data = GeneratePaperDataset("loan", 900, 9).Value();
  Rng rng(9);
  Table train = data.SliceRows(0, 600);
  Table test = data.SliceRows(600, 300);
  const DatasetTask task = GetPaperDatasetInfo("loan").Value().task;
  // Using (a sample of) the real training data as "synthetic" must give
  // utility close to 100.
  auto result = ComputeUtility(train, test, train.Sample(500, &rng), task,
                               &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.Value().utility, 80.0);
}

TEST(UtilityTest, LabelShuffledSyntheticScoresLow) {
  Table data = GeneratePaperDataset("loan", 900, 10).Value();
  Rng rng(10);
  Table train = data.SliceRows(0, 600);
  Table test = data.SliceRows(600, 300);
  const DatasetTask task = GetPaperDatasetInfo("loan").Value().task;
  // Destroy the feature-target link by shuffling the target column.
  Table broken = train;
  const int target =
      broken.schema().ColumnIndex(task.target_column).Value();
  std::vector<int> perm = rng.Permutation(broken.num_rows());
  for (int r = 0; r < broken.num_rows(); ++r) {
    broken.set_value(r, target, train.value(perm[r], target));
  }
  auto good = ComputeUtility(train, test, train, task, &rng);
  auto bad = ComputeUtility(train, test, broken, task, &rng);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  EXPECT_GT(good.Value().utility, bad.Value().utility + 10.0);
}

TEST(UtilityTest, RegressionTaskWorks) {
  Table data = GeneratePaperDataset("abalone", 800, 11).Value();
  Rng rng(11);
  Table train = data.SliceRows(0, 550);
  Table test = data.SliceRows(550, 250);
  const DatasetTask task = GetPaperDatasetInfo("abalone").Value().task;
  EXPECT_FALSE(task.classification);
  auto result = ComputeUtility(train, test, train, task, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.Value().real_score, 0.1);
  EXPECT_GT(result.Value().utility, 70.0);
}

// ---------------------------------------------------------------------------
// Histogram quantile interpolation edge cases (obs::HistogramSnapshot).
// Pinned here so the exposition consumers (sf_top's scrape deltas) — which feed
// arbitrary windowed deltas through Quantile — can rely on finite,
// in-range results for every degenerate shape.
// ---------------------------------------------------------------------------

obs::HistogramSnapshot MakeHistogram(std::vector<double> bounds,
                                     std::vector<int64_t> bucket_counts,
                                     double sum) {
  obs::HistogramSnapshot h;
  h.bounds = std::move(bounds);
  h.bucket_counts = std::move(bucket_counts);
  for (int64_t c : h.bucket_counts) h.count += c;
  h.sum = sum;
  return h;
}

TEST(HistogramQuantileEdgeTest, EmptyHistogramIsZeroForAllQ) {
  const obs::HistogramSnapshot h = MakeHistogram({1, 10}, {0, 0, 0}, 0.0);
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 0.0) << "q=" << q;
  }
}

TEST(HistogramQuantileEdgeTest, SingleSampleStaysInsideItsBucket) {
  // One observation in (1, 10].
  const obs::HistogramSnapshot h = MakeHistogram({1, 10}, {0, 1, 0}, 5.0);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_TRUE(std::isfinite(v)) << "q=" << q;
    EXPECT_GE(v, 1.0) << "q=" << q;
    EXPECT_LE(v, 10.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
}

TEST(HistogramQuantileEdgeTest, SingleSampleInFirstBucket) {
  const obs::HistogramSnapshot h = MakeHistogram({10, 100}, {1, 0, 0}, 4.0);
  for (double q : {0.0, 0.5, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
}

TEST(HistogramQuantileEdgeTest, AllSamplesInOverflowBucket) {
  // No finite upper edge to interpolate toward: the largest bound is the
  // best in-range answer, for every q.
  const obs::HistogramSnapshot h =
      MakeHistogram({1, 10}, {0, 0, 7}, 700.0);
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 10.0) << "q=" << q;
  }
}

TEST(HistogramQuantileEdgeTest, QOutsideUnitIntervalClamps) {
  const obs::HistogramSnapshot h = MakeHistogram({1, 10}, {2, 2, 0}, 11.0);
  EXPECT_DOUBLE_EQ(h.Quantile(-0.5), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(1.5), h.Quantile(1.0));
}

TEST(HistogramQuantileEdgeTest, NegativeFirstBoundStaysInRange) {
  // First bucket covers (-inf, -10]; interpolating from 0 would overshoot
  // the bucket's upper edge. The estimate must never exceed it.
  const obs::HistogramSnapshot h =
      MakeHistogram({-10, -5}, {3, 0, 0}, -60.0);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_LE(h.Quantile(q), -10.0) << "q=" << q;
    EXPECT_TRUE(std::isfinite(h.Quantile(q))) << "q=" << q;
  }
}

TEST(HistogramQuantileEdgeTest, BoundlessHistogramIsZeroNotNan) {
  // A histogram registered with no bounds has only the overflow bucket.
  const obs::HistogramSnapshot h = MakeHistogram({}, {4}, 100.0);
  for (double q : {0.0, 0.5, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_TRUE(std::isfinite(v)) << "q=" << q;
    EXPECT_DOUBLE_EQ(v, 0.0) << "q=" << q;
  }
}

TEST(ReportTest, TextTableAlignsColumns) {
  TextTable table({"a", "long_header"});
  table.AddRow({"xxxx", "1"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("a     long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxx  1"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 1);
}

}  // namespace
}  // namespace silofuse
