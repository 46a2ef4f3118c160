// Value and gradient tests for the loss functions, including
// finite-difference checks of every analytic gradient.

#include "nn/losses.h"

#include <cmath>
#include <functional>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace silofuse {
namespace {

/// Central-difference check of grad against loss_fn at `point`.
void CheckLossGrad(const std::function<double(const Matrix&)>& loss_fn,
                   Matrix point, const Matrix& grad, double tol = 2e-3,
                   double eps = 1e-3) {
  for (int r = 0; r < point.rows(); ++r) {
    for (int c = 0; c < point.cols(); ++c) {
      const float orig = point.at(r, c);
      point.at(r, c) = orig + static_cast<float>(eps);
      const double up = loss_fn(point);
      point.at(r, c) = orig - static_cast<float>(eps);
      const double down = loss_fn(point);
      point.at(r, c) = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grad.at(r, c), numeric, tol * std::max(1.0, std::abs(numeric)))
          << "at (" << r << "," << c << ")";
    }
  }
}

TEST(LossesTest, MseZeroWhenEqual) {
  Matrix a = Matrix::FromVector(2, 2, {1, 2, 3, 4});
  Matrix grad;
  EXPECT_DOUBLE_EQ(MseLoss(a, a, &grad), 0.0);
  EXPECT_DOUBLE_EQ(grad.SquaredNorm(), 0.0);
}

TEST(LossesTest, MseKnownValue) {
  Matrix pred = Matrix::FromVector(1, 2, {1, 3});
  Matrix target = Matrix::FromVector(1, 2, {0, 1});
  Matrix grad;
  EXPECT_DOUBLE_EQ(MseLoss(pred, target, &grad), (1.0 + 4.0) / 2.0);
}

TEST(LossesTest, MseGradCheck) {
  Rng rng(1);
  Matrix pred = Matrix::RandomNormal(3, 4, &rng);
  Matrix target = Matrix::RandomNormal(3, 4, &rng);
  Matrix grad;
  MseLoss(pred, target, &grad);
  CheckLossGrad(
      [&](const Matrix& p) {
        Matrix g;
        return MseLoss(p, target, &g);
      },
      pred, grad);
}

TEST(LossesTest, BceMatchesManualComputation) {
  Matrix logits = Matrix::FromVector(1, 1, {0.0f});
  Matrix target = Matrix::FromVector(1, 1, {1.0f});
  Matrix grad;
  EXPECT_NEAR(BceWithLogitsLoss(logits, target, &grad), std::log(2.0), 1e-6);
  EXPECT_NEAR(grad.at(0, 0), -0.5, 1e-6);
}

TEST(LossesTest, BceStableForLargeLogits) {
  Matrix logits = Matrix::FromVector(1, 2, {50.0f, -50.0f});
  Matrix target = Matrix::FromVector(1, 2, {1.0f, 0.0f});
  Matrix grad;
  const double loss = BceWithLogitsLoss(logits, target, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-6);
}

TEST(LossesTest, BceFiniteForExtremeAndInfiniteLogits) {
  // An exploding discriminator can emit arbitrarily large (even infinite)
  // logits; the clamp must keep loss and gradients finite so the training
  // watchdog sees a diverging number instead of NaN.
  const float inf = std::numeric_limits<float>::infinity();
  Matrix logits = Matrix::FromVector(1, 4, {1e30f, -1e30f, inf, -inf});
  Matrix target = Matrix::FromVector(1, 4, {0.0f, 1.0f, 0.0f, 1.0f});
  Matrix grad;
  const double loss = BceWithLogitsLoss(logits, target, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 1e5);  // large — the watchdog's divergence check fires
  for (int c = 0; c < grad.cols(); ++c) {
    EXPECT_TRUE(std::isfinite(grad.at(0, c))) << "grad col " << c;
  }
}

TEST(LossesTest, SoftmaxCrossEntropyFiniteForExtremeLogits) {
  // The true class is driven to probability ~0 by a huge logit gap; the
  // log-prob floor keeps -t*log(p) finite instead of inf/NaN.
  Matrix logits = Matrix::FromVector(2, 3, {1e30f, -1e30f, -1e30f,  //
                                            0.0f, 0.0f, 0.0f});
  Matrix targets = Matrix::FromVector(2, 3, {0.0f, 1.0f, 0.0f,  //
                                             1.0f, 0.0f, 0.0f});
  Matrix grad;
  const double loss = SoftmaxCrossEntropyLoss(logits, targets, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 1.0);  // floored at ~100/batch for the dead class
  for (int r = 0; r < grad.rows(); ++r) {
    for (int c = 0; c < grad.cols(); ++c) {
      EXPECT_TRUE(std::isfinite(grad.at(r, c))) << "grad " << r << "," << c;
    }
  }
}

TEST(LossesTest, BceGradCheck) {
  Rng rng(2);
  Matrix logits = Matrix::RandomNormal(3, 2, &rng);
  Matrix target = Matrix::FromVector(3, 2, {1, 0, 0, 1, 1, 1});
  Matrix grad;
  BceWithLogitsLoss(logits, target, &grad);
  CheckLossGrad(
      [&](const Matrix& l) {
        Matrix g;
        return BceWithLogitsLoss(l, target, &g);
      },
      logits, grad);
}

TEST(LossesTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Matrix logits = Matrix::RandomNormal(4, 6, &rng, 0.0f, 3.0f);
  Matrix probs = SoftmaxRows(logits);
  for (int r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 6; ++c) {
      EXPECT_GT(probs.at(r, c), 0.0f);
      sum += probs.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(LossesTest, LogSoftmaxConsistentWithSoftmax) {
  Rng rng(4);
  Matrix logits = Matrix::RandomNormal(3, 5, &rng);
  Matrix probs = SoftmaxRows(logits);
  Matrix log_probs = LogSoftmaxRows(logits);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 5; ++c) {
      EXPECT_NEAR(std::exp(log_probs.at(r, c)), probs.at(r, c), 1e-5);
    }
  }
}

TEST(LossesTest, SoftmaxCrossEntropyUniformLogits) {
  Matrix logits(2, 4);  // all zeros -> uniform
  Matrix targets(2, 4);
  targets.at(0, 1) = 1.0f;
  targets.at(1, 3) = 1.0f;
  Matrix grad;
  EXPECT_NEAR(SoftmaxCrossEntropyLoss(logits, targets, &grad), std::log(4.0),
              1e-5);
}

TEST(LossesTest, SoftmaxCrossEntropyGradCheck) {
  Rng rng(5);
  Matrix logits = Matrix::RandomNormal(3, 4, &rng);
  Matrix targets(3, 4);
  targets.at(0, 0) = 1.0f;
  targets.at(1, 2) = 1.0f;
  targets.at(2, 3) = 1.0f;
  Matrix grad;
  SoftmaxCrossEntropyLoss(logits, targets, &grad);
  CheckLossGrad(
      [&](const Matrix& l) {
        Matrix g;
        return SoftmaxCrossEntropyLoss(l, targets, &g);
      },
      logits, grad);
}

TEST(LossesTest, GaussianNllMinimizedAtTargetMean) {
  Matrix target = Matrix::FromVector(1, 1, {2.0f});
  Matrix logvar(1, 1);  // var = 1
  Matrix gm, gl;
  Matrix at_target = Matrix::FromVector(1, 1, {2.0f});
  const double loss_center = GaussianNllLoss(at_target, logvar, target, &gm, &gl);
  Matrix off = Matrix::FromVector(1, 1, {3.0f});
  const double loss_off = GaussianNllLoss(off, logvar, target, &gm, &gl);
  EXPECT_LT(loss_center, loss_off);
}

TEST(LossesTest, GaussianNllGradChecks) {
  Rng rng(6);
  Matrix mean = Matrix::RandomNormal(2, 3, &rng);
  Matrix logvar = Matrix::RandomNormal(2, 3, &rng, 0.0f, 0.5f);
  Matrix target = Matrix::RandomNormal(2, 3, &rng);
  Matrix gm, gl;
  GaussianNllLoss(mean, logvar, target, &gm, &gl);
  CheckLossGrad(
      [&](const Matrix& m) {
        Matrix a, b;
        return GaussianNllLoss(m, logvar, target, &a, &b);
      },
      mean, gm);
  CheckLossGrad(
      [&](const Matrix& lv) {
        Matrix a, b;
        return GaussianNllLoss(mean, lv, target, &a, &b);
      },
      logvar, gl);
}

}  // namespace
}  // namespace silofuse
