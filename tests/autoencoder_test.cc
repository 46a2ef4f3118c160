#include "models/autoencoder.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/generators/paper_datasets.h"
#include "metrics/association.h"

namespace silofuse {
namespace {

Table MixedTable(int rows, uint64_t seed) {
  Rng rng(seed);
  Table t(Schema({ColumnSpec::Numeric("x"), ColumnSpec::Categorical("c", 4),
                  ColumnSpec::Numeric("y")}));
  for (int i = 0; i < rows; ++i) {
    const double x = rng.Normal();
    const int c = x > 0.5 ? 3 : static_cast<int>(rng.UniformInt(0, 2));
    SF_CHECK(t.AppendRow({x, static_cast<double>(c), 2.0 * x + rng.Normal(0, 0.1)}).ok());
  }
  return t;
}

AutoencoderConfig TinyConfig() {
  AutoencoderConfig config;
  config.hidden_dim = 32;
  return config;
}

TEST(AutoencoderTest, CreateValidatesInput) {
  Rng rng(1);
  Table empty(Schema({ColumnSpec::Numeric("x")}));
  EXPECT_FALSE(TabularAutoencoder::Create(empty, TinyConfig(), &rng).ok());
  AutoencoderConfig one_layer = TinyConfig();
  one_layer.num_layers = 1;
  EXPECT_FALSE(
      TabularAutoencoder::Create(MixedTable(10, 1), one_layer, &rng).ok());
}

TEST(AutoencoderTest, LatentDimDefaultsToColumnCount) {
  Rng rng(2);
  auto ae = TabularAutoencoder::Create(MixedTable(50, 2), TinyConfig(), &rng)
                .Value();
  EXPECT_EQ(ae->latent_dim(), 3);
  EXPECT_EQ(ae->head_width(), 2 + 4 + 2);  // (mean,logvar) x2 + 4 logits
}

TEST(AutoencoderTest, ExplicitLatentDimRespected) {
  Rng rng(3);
  AutoencoderConfig config = TinyConfig();
  config.latent_dim = 7;
  auto ae =
      TabularAutoencoder::Create(MixedTable(50, 3), config, &rng).Value();
  EXPECT_EQ(ae->latent_dim(), 7);
  EXPECT_EQ(ae->EncodeTable(MixedTable(50, 3)).cols(), 7);
}

TEST(AutoencoderTest, TrainingReducesLoss) {
  Rng rng(4);
  Table data = MixedTable(400, 4);
  auto ae = TabularAutoencoder::Create(data, TinyConfig(), &rng).Value();
  const Matrix x = ae->mixed_encoder().Encode(data);
  const double before = ae->TrainStep(x, &rng);
  ASSERT_TRUE(ae->Train(data, 300, 128, &rng).ok());
  const double after = ae->TrainStep(x, &rng);
  EXPECT_LT(after, before);
}

TEST(AutoencoderTest, ReconstructionRoundTripAfterTraining) {
  Rng rng(5);
  Table data = MixedTable(500, 5);
  auto ae = TabularAutoencoder::Create(data, TinyConfig(), &rng).Value();
  ASSERT_TRUE(ae->Train(data, 500, 128, &rng).ok());
  Matrix z = ae->EncodeTable(data);
  Table recon = ae->DecodeToTable(z, &rng, /*sample=*/false);
  // Numeric reconstruction correlates strongly with the input.
  EXPECT_GT(PearsonCorrelation(data.column_values(0),
                               recon.column_values(0)),
            0.9);
  // Categorical reconstruction accuracy beats the majority class.
  int correct = 0;
  for (int r = 0; r < data.num_rows(); ++r) {
    if (recon.code(r, 1) == data.code(r, 1)) ++correct;
  }
  // The generating rule caps attainable accuracy near 0.54 (x>0.5 -> class
  // 3, else uniform over {0,1,2}); beating 0.45 means the head learned it.
  EXPECT_GT(static_cast<double>(correct) / data.num_rows(), 0.45);
}

TEST(AutoencoderTest, LatentsAreFinite) {
  Rng rng(6);
  Table data = MixedTable(200, 6);
  auto ae = TabularAutoencoder::Create(data, TinyConfig(), &rng).Value();
  ASSERT_TRUE(ae->Train(data, 200, 64, &rng).ok());
  EXPECT_TRUE(ae->EncodeTable(data).AllFinite());
}

TEST(AutoencoderTest, HeadLossGradientMatchesFiniteDifference) {
  Rng rng(7);
  Table data = MixedTable(30, 7);
  auto ae = TabularAutoencoder::Create(data, TinyConfig(), &rng).Value();
  const Matrix x = ae->mixed_encoder().Encode(data).SliceRows(0, 6);
  Matrix heads = Matrix::RandomNormal(6, ae->head_width(), &rng, 0.0f, 0.5f);
  Matrix grad;
  ae->HeadLoss(heads, x, &grad);
  const double eps = 1e-3;
  for (int r = 0; r < heads.rows(); r += 2) {
    for (int c = 0; c < heads.cols(); c += 3) {
      Matrix g_unused;
      const float orig = heads.at(r, c);
      heads.at(r, c) = orig + static_cast<float>(eps);
      const double up = ae->HeadLoss(heads, x, &g_unused);
      heads.at(r, c) = orig - static_cast<float>(eps);
      const double down = ae->HeadLoss(heads, x, &g_unused);
      heads.at(r, c) = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grad.at(r, c), numeric,
                  2e-2 * std::max(1.0, std::abs(numeric)))
          << "(" << r << "," << c << ")";
    }
  }
}

TEST(AutoencoderTest, DecodeSampledVsDeterministicDiffer) {
  Rng rng(9);
  Table data = MixedTable(300, 9);
  auto ae = TabularAutoencoder::Create(data, TinyConfig(), &rng).Value();
  ASSERT_TRUE(ae->Train(data, 200, 64, &rng).ok());
  Matrix z = ae->EncodeTable(data);
  Table det = ae->DecodeToTable(z, &rng, /*sample=*/false);
  Table sampled = ae->DecodeToTable(z, &rng, /*sample=*/true);
  // Sampling adds Gaussian-head noise: numeric columns differ somewhere.
  bool any_diff = false;
  for (int r = 0; r < det.num_rows() && !any_diff; ++r) {
    if (std::abs(det.value(r, 0) - sampled.value(r, 0)) > 1e-9) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace silofuse
