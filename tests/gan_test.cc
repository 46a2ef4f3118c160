#include "models/gan.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/generators/paper_datasets.h"

namespace silofuse {
namespace {

std::vector<FeatureSpan> MixedSpans() {
  // numeric @0, categorical(3) @1..3, numeric @4.
  FeatureSpan num0{0, 0, 1, false};
  FeatureSpan cat{1, 1, 3, true};
  FeatureSpan num1{2, 4, 1, false};
  return {num0, cat, num1};
}

TEST(TabularActivationTest, NumericSlotsAreTanh) {
  TabularActivation act(MixedSpans());
  Matrix x = Matrix::FromVector(1, 5, {2.0f, 0, 0, 0, -1.5f});
  Matrix y = act.Forward(x, nullptr);
  EXPECT_NEAR(y.at(0, 0), std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(y.at(0, 4), std::tanh(-1.5f), 1e-6);
}

TEST(TabularActivationTest, CategoricalSpanIsSoftmax) {
  TabularActivation act(MixedSpans());
  Matrix x = Matrix::FromVector(1, 5, {0, 1.0f, 2.0f, 3.0f, 0});
  Matrix y = act.Forward(x, nullptr);
  double sum = 0.0;
  for (int k = 1; k <= 3; ++k) {
    EXPECT_GT(y.at(0, k), 0.0f);
    sum += y.at(0, k);
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
  EXPECT_GT(y.at(0, 3), y.at(0, 2));
  EXPECT_GT(y.at(0, 2), y.at(0, 1));
}

TEST(TabularActivationTest, BackwardMatchesFiniteDifference) {
  TabularActivation act(MixedSpans());
  Rng rng(1);
  Matrix x = Matrix::RandomNormal(3, 5, &rng);
  Matrix g = Matrix::RandomNormal(3, 5, &rng);
  act.Forward(x, &rng);
  Matrix grad = act.Backward(g);
  const double eps = 1e-3;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 5; ++c) {
      const float orig = x.at(r, c);
      x.at(r, c) = orig + static_cast<float>(eps);
      const double up = act.Forward(x, nullptr).Mul(g).Sum();
      x.at(r, c) = orig - static_cast<float>(eps);
      const double down = act.Forward(x, nullptr).Mul(g).Sum();
      x.at(r, c) = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grad.at(r, c), numeric,
                  2e-2 * std::max(1.0, std::abs(numeric)))
          << "(" << r << "," << c << ")";
    }
  }
}

// Both backbones: one alternation runs, losses are finite, generator output
// decodes to a valid table.
class GanBackboneSweep : public ::testing::TestWithParam<GanBackbone> {};

TEST_P(GanBackboneSweep, TrainStepProducesFiniteLosses) {
  Rng rng(2);
  Table data = GeneratePaperDataset("loan", 300, 2).Value();
  GanConfig config;
  config.backbone = GetParam();
  config.hidden_dim = 32;
  config.train_steps = 50;
  config.batch_size = 64;
  GanSynthesizer gan(config);
  ASSERT_TRUE(gan.Fit(data, &rng).ok());
  MixedEncoder encoder(NumericScaling::kMinMax);
  ASSERT_TRUE(encoder.Fit(data).ok());
  Matrix batch = encoder.Encode(data).SliceRows(0, 64);
  auto [d_loss, g_loss] = gan.TrainStep(batch, &rng);
  EXPECT_TRUE(std::isfinite(d_loss));
  EXPECT_TRUE(std::isfinite(g_loss));
  EXPECT_GT(d_loss, 0.0);
  EXPECT_GT(g_loss, 0.0);
}

TEST_P(GanBackboneSweep, SynthesizedNumericsWithinTrainingRange) {
  Rng rng(3);
  Table data = GeneratePaperDataset("loan", 300, 3).Value();
  GanConfig config;
  config.backbone = GetParam();
  config.hidden_dim = 32;
  config.train_steps = 100;
  config.batch_size = 64;
  GanSynthesizer gan(config);
  ASSERT_TRUE(gan.Fit(data, &rng).ok());
  Table synth = gan.Synthesize(200, &rng).Value();
  // Min-max + tanh output cannot escape the observed range.
  for (int c = 0; c < data.num_columns(); ++c) {
    if (data.schema().column(c).is_categorical()) continue;
    const auto& real = data.column_values(c);
    const double lo = *std::min_element(real.begin(), real.end());
    const double hi = *std::max_element(real.begin(), real.end());
    for (double v : synth.column_values(c)) {
      EXPECT_GE(v, lo - 1e-6);
      EXPECT_LE(v, hi + 1e-6);
    }
  }
}

// Fit seals both networks, which drops every parameter's grad (the linear
// backbone's LayerNorms and the conv backbone's conv layers included); the
// next TrainStep's training forwards re-create them.
TEST_P(GanBackboneSweep, FitReleasesEveryGrad) {
  Rng rng(5);
  Table data = GeneratePaperDataset("loan", 200, 5).Value();
  GanConfig config;
  config.backbone = GetParam();
  config.hidden_dim = 32;
  config.train_steps = 5;
  config.batch_size = 64;
  GanSynthesizer gan(config);
  ASSERT_TRUE(gan.Fit(data, &rng).ok());
  const std::vector<Parameter*> params = gan.Parameters();
  ASSERT_FALSE(params.empty());
  for (const Parameter* p : params) {
    EXPECT_EQ(p->grad.size(), 0u) << p->name;
  }
  MixedEncoder encoder(NumericScaling::kMinMax);
  ASSERT_TRUE(encoder.Fit(data).ok());
  gan.TrainStep(encoder.Encode(data).SliceRows(0, 64), &rng);
  for (const Parameter* p : params) {
    EXPECT_EQ(p->grad.size(), p->value.size()) << p->name;
  }
}

INSTANTIATE_TEST_SUITE_P(Backbones, GanBackboneSweep,
                         ::testing::Values(GanBackbone::kLinear,
                                           GanBackbone::kConv));

TEST(GanTest, NameReflectsBackbone) {
  GanConfig linear;
  GanConfig conv;
  conv.backbone = GanBackbone::kConv;
  EXPECT_EQ(GanSynthesizer(linear).name(), "GAN(linear)");
  EXPECT_EQ(GanSynthesizer(conv).name(), "GAN(conv)");
}

TEST(GanTest, FitRejectsTinyTables) {
  GanConfig config;
  GanSynthesizer gan(config);
  Rng rng(4);
  Table one(Schema({ColumnSpec::Numeric("x")}));
  ASSERT_TRUE(one.AppendRow({1.0}).ok());
  EXPECT_FALSE(gan.Fit(one, &rng).ok());
}

}  // namespace
}  // namespace silofuse
