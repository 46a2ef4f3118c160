#include "nn/dropout.h"

#include <gtest/gtest.h>

namespace silofuse {
namespace {

TEST(DropoutTest, IdentityAtInference) {
  Rng rng(1);
  Dropout layer(0.5f);
  Matrix x = Matrix::RandomNormal(4, 6, &rng);
  EXPECT_EQ(layer.Forward(x, /*train_rng=*/nullptr), x);
  EXPECT_EQ(layer.Backward(x), x);
}

TEST(DropoutTest, ZeroRateIsIdentityEvenInTraining) {
  Rng rng(2);
  Dropout layer(0.0f);
  Matrix x = Matrix::RandomNormal(4, 6, &rng);
  EXPECT_EQ(layer.Forward(x, &rng), x);
}

TEST(DropoutTest, DropRateRoughlyHonored) {
  Rng rng(3);
  Dropout layer(0.3f);
  Matrix x(100, 100, 1.0f);
  Matrix y = layer.Forward(x, &rng);
  int zeros = 0;
  for (int r = 0; r < y.rows(); ++r) {
    for (int c = 0; c < y.cols(); ++c) {
      if (y.at(r, c) == 0.0f) ++zeros;
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.3, 0.02);
}

TEST(DropoutTest, SurvivorsRescaledToPreserveExpectation) {
  Rng rng(4);
  Dropout layer(0.25f);
  Matrix x(200, 200, 1.0f);
  Matrix y = layer.Forward(x, &rng);
  // E[y] = 1 under inverted dropout.
  EXPECT_NEAR(y.Mean(), 1.0, 0.03);
  // Survivors carry the 1/(1-p) scale exactly.
  for (int c = 0; c < y.cols(); ++c) {
    const float v = y.at(0, c);
    EXPECT_TRUE(v == 0.0f || std::abs(v - 1.0f / 0.75f) < 1e-6);
  }
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(5);
  Dropout layer(0.5f);
  Matrix x(10, 10, 1.0f);
  Matrix y = layer.Forward(x, &rng);
  Matrix g = layer.Backward(Matrix(10, 10, 1.0f));
  for (int r = 0; r < 10; ++r) {
    for (int c = 0; c < 10; ++c) {
      EXPECT_EQ(y.at(r, c) == 0.0f, g.at(r, c) == 0.0f);
    }
  }
}

}  // namespace
}  // namespace silofuse
