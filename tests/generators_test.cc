#include "data/generators/copula_generator.h"
#include "data/generators/paper_datasets.h"

#include <cmath>

#include <gtest/gtest.h>

#include "metrics/association.h"

namespace silofuse {
namespace {

TEST(CopulaGeneratorTest, ProducesValidTable) {
  std::vector<ColumnSpec> columns = {ColumnSpec::Numeric("a"),
                                     ColumnSpec::Categorical("b", 4),
                                     ColumnSpec::Numeric("c")};
  CopulaConfig config = MakeRandomCopulaConfig(columns, /*target=*/1, 7);
  CopulaGenerator gen(config);
  Rng rng(1);
  auto table = gen.Generate(500, &rng);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.Value().num_rows(), 500);
  EXPECT_TRUE(table.Value().Validate().ok());
}

TEST(CopulaGeneratorTest, CategoricalMarginalsMatchRequestedProbs) {
  std::vector<ColumnSpec> columns = {ColumnSpec::Categorical("c", 3),
                                     ColumnSpec::Numeric("x")};
  CopulaConfig config = MakeRandomCopulaConfig(columns, -1, 11);
  config.columns[0].category_probs = {0.6, 0.3, 0.1};
  // Remove correlation noise dependence for a crisper check.
  CopulaGenerator gen(config);
  Rng rng(2);
  Table t = gen.Generate(6000, &rng).Value();
  std::vector<int> counts(3, 0);
  for (int r = 0; r < t.num_rows(); ++r) ++counts[t.code(r, 0)];
  EXPECT_NEAR(counts[0] / 6000.0, 0.6, 0.03);
  EXPECT_NEAR(counts[1] / 6000.0, 0.3, 0.03);
  EXPECT_NEAR(counts[2] / 6000.0, 0.1, 0.03);
}

TEST(CopulaGeneratorTest, SharedFactorsInduceCorrelation) {
  // Two numeric columns loading on the same factor must correlate.
  CopulaConfig config;
  config.latent_factors = 1;
  for (const char* name : {"a", "b"}) {
    GenColumn col;
    col.spec = ColumnSpec::Numeric(name);
    col.loadings = {1.0};
    col.noise = 0.2;
    config.columns.push_back(col);
  }
  CopulaGenerator gen(config);
  Rng rng(3);
  Table t = gen.Generate(2000, &rng).Value();
  const double corr =
      PearsonCorrelation(t.column_values(0), t.column_values(1));
  EXPECT_GT(corr, 0.8);
}

TEST(CopulaGeneratorTest, TargetDependsOnParents) {
  std::vector<ColumnSpec> columns = {ColumnSpec::Numeric("f1"),
                                     ColumnSpec::Numeric("f2"),
                                     ColumnSpec::Categorical("y", 2)};
  CopulaConfig config = MakeRandomCopulaConfig(columns, 2, 5);
  CopulaGenerator gen(config);
  Rng rng(4);
  Table t = gen.Generate(3000, &rng).Value();
  // Correlation ratio between target and at least one parent is material.
  double best = 0.0;
  for (int parent : config.target_parents) {
    best = std::max(best, CorrelationRatio(ColumnCodes(t, 2),
                                           t.column_values(parent), 2));
  }
  EXPECT_GT(best, 0.1);
}

TEST(PaperDatasetsTest, NamesListsNine) {
  EXPECT_EQ(PaperDatasetNames().size(), 9u);
}

TEST(PaperDatasetsTest, UnknownNameFails) {
  EXPECT_FALSE(GetPaperDatasetInfo("nope").ok());
  EXPECT_FALSE(GeneratePaperDataset("nope", 100, 1).ok());
}

TEST(PaperDatasetsTest, GenerationIsDeterministic) {
  Table a = GeneratePaperDataset("loan", 50, 9).Value();
  Table b = GeneratePaperDataset("loan", 50, 9).Value();
  for (int r = 0; r < 50; ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      EXPECT_DOUBLE_EQ(a.value(r, c), b.value(r, c));
    }
  }
}

TEST(PaperDatasetsTest, DifferentSeedsDiffer) {
  Table a = GeneratePaperDataset("loan", 50, 1).Value();
  Table b = GeneratePaperDataset("loan", 50, 2).Value();
  bool any_diff = false;
  for (int r = 0; r < 50 && !any_diff; ++r) {
    if (a.value(r, 0) != b.value(r, 0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// Property sweep over all nine datasets: schema statistics line up with the
// registry and generated data is schema-valid with a present target.
class PaperDatasetSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperDatasetSweep, SchemaMatchesInfo) {
  auto info = GetPaperDatasetInfo(GetParam()).Value();
  EXPECT_EQ(info.schema.num_categorical(), info.paper_categorical);
  EXPECT_EQ(info.schema.num_numeric(), info.paper_numeric);
  EXPECT_EQ(info.schema.num_columns(), info.paper_onehot_before);
  EXPECT_TRUE(info.schema.Validate().ok());
  EXPECT_TRUE(info.schema.ColumnIndex(info.task.target_column).ok());
}

TEST_P(PaperDatasetSweep, OneHotExpansionMatchesPaperUnlessCapped) {
  auto info = GetPaperDatasetInfo(GetParam()).Value();
  // churn's surname column is capped at 512 (paper: 2932) and cover's
  // reconstruction differs by one binary column; all others match exactly.
  if (GetParam() == "churn" || GetParam() == "cover") {
    EXPECT_LE(info.schema.OneHotWidth(), info.paper_onehot_after + 1);
  } else {
    EXPECT_EQ(info.schema.OneHotWidth(), info.paper_onehot_after);
  }
}

TEST_P(PaperDatasetSweep, GeneratesValidRows) {
  auto table = GeneratePaperDataset(GetParam(), 200, 3);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.Value().num_rows(), 200);
  EXPECT_TRUE(table.Value().Validate().ok());
  EXPECT_TRUE(table.Value().ToMatrix().AllFinite());
}

TEST_P(PaperDatasetSweep, TargetHasMoreThanOneObservedValue) {
  auto info = GetPaperDatasetInfo(GetParam()).Value();
  Table t = GeneratePaperDataset(GetParam(), 400, 4).Value();
  const int target = t.schema().ColumnIndex(info.task.target_column).Value();
  double lo = t.value(0, target), hi = lo;
  for (int r = 1; r < t.num_rows(); ++r) {
    lo = std::min(lo, t.value(r, target));
    hi = std::max(hi, t.value(r, target));
  }
  EXPECT_GT(hi, lo);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, PaperDatasetSweep,
                         ::testing::ValuesIn(PaperDatasetNames()));

}  // namespace
}  // namespace silofuse
