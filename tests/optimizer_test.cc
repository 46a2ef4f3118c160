#include "nn/optimizer.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "nn/losses.h"
#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

/// Minimizes f(w) = ||w - target||^2 with the given optimizer.
template <typename Opt, typename... Args>
double MinimizeQuadratic(int steps, Args&&... args) {
  Parameter w("w", Matrix(1, 4, 0.0f));
  Matrix target = Matrix::FromVector(1, 4, {1.0f, -2.0f, 3.0f, 0.5f});
  Opt opt({&w}, std::forward<Args>(args)...);
  for (int s = 0; s < steps; ++s) {
    opt.ZeroGrad();
    Matrix grad;
    MseLoss(w.value, target, &grad);
    w.grad.AddInPlace(grad);
    opt.Step();
  }
  return w.value.Sub(target).SquaredNorm();
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  EXPECT_LT(MinimizeQuadratic<Sgd>(500, /*lr=*/0.5f), 1e-4);
}

TEST(OptimizerTest, SgdMomentumConvergesFaster) {
  const double plain = MinimizeQuadratic<Sgd>(100, 0.1f, 0.0f);
  const double momentum = MinimizeQuadratic<Sgd>(100, 0.1f, 0.9f);
  EXPECT_LT(momentum, plain);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  EXPECT_LT(MinimizeQuadratic<Adam>(800, /*lr=*/0.05f), 1e-3);
}

TEST(OptimizerTest, AdamStepCountAdvances) {
  Parameter w("w", Matrix(1, 1, 0.0f));
  Adam adam({&w});
  EXPECT_EQ(adam.step_count(), 0);
  adam.Step();
  adam.Step();
  EXPECT_EQ(adam.step_count(), 2);
}

TEST(OptimizerTest, AdamFirstStepSizeIsLearningRate) {
  // With bias correction, the first Adam update has magnitude ~lr.
  Parameter w("w", Matrix(1, 1, 0.0f));
  Adam adam({&w}, /*lr=*/0.1f);
  w.grad.at(0, 0) = 123.0f;  // any gradient magnitude
  adam.Step();
  EXPECT_NEAR(std::abs(w.value.at(0, 0)), 0.1, 1e-3);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Parameter w("w", Matrix(1, 1, 5.0f));
  Adam adam({&w}, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  for (int s = 0; s < 200; ++s) {
    adam.ZeroGrad();  // zero task gradient; only decay acts
    adam.Step();
  }
  EXPECT_LT(std::abs(w.value.at(0, 0)), 5.0f);
}

TEST(OptimizerTest, ClipGradNormRescalesLargeGradients) {
  Parameter w("w", Matrix(1, 2, 0.0f));
  w.grad.at(0, 0) = 3.0f;
  w.grad.at(0, 1) = 4.0f;  // norm 5
  Sgd opt({&w}, 0.1f);
  const double pre = opt.ClipGradNorm(1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(std::sqrt(w.grad.SquaredNorm()), 1.0, 1e-5);
}

// The update loop Adam::Step runs (vectorized, possibly on the pool) must
// write exactly what the plain per-element formula writes. The sizes cover
// a lone element, the 8- and 16-lane vector tails, and a tensor large
// enough to fan out across the pool; both with and without weight decay,
// at 1 and 4 threads.
TEST(OptimizerTest, AdamStepMatchesScalarReferenceBitForBit) {
  const int saved_threads = NumThreads();
  const float lr = 3e-3f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (float decay : {0.0f, 0.01f}) {
      for (int n : {1, 7, 8, 9, 17, 16385, 200003}) {
        Rng rng(static_cast<uint64_t>(n));
        Parameter w("w", Matrix::RandomNormal(1, n, &rng));
        Adam adam({&w}, lr, beta1, beta2, eps, decay);
        std::vector<float> value(w.value.data(), w.value.data() + n);
        std::vector<float> m(n, 0.0f), v(n, 0.0f);
        for (int64_t step = 1; step <= 3; ++step) {
          w.grad = Matrix::RandomNormal(1, n, &rng, 0.0f, 2.0f);
          w.grad.data()[0] = 0.0f;  // zero gradient: v stays tiny, eps acts
          if (n > 1) w.grad.data()[1] = -0.0f;  // decay 0 keeps the sign
          adam.Step();
          const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
          const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step));
          const float alpha = static_cast<float>(lr * std::sqrt(bc2) / bc1);
          for (int j = 0; j < n; ++j) {
            float g = w.grad.data()[j];
            if (decay > 0.0f) g += decay * value[j];
            m[j] = beta1 * m[j] + (1.0f - beta1) * g;
            v[j] = beta2 * v[j] + (1.0f - beta2) * g * g;
            value[j] -= alpha * m[j] / (std::sqrt(v[j]) + eps);
          }
          for (int j = 0; j < n; ++j) {
            ASSERT_EQ(std::bit_cast<uint32_t>(w.value.data()[j]),
                      std::bit_cast<uint32_t>(value[j]))
                << "n=" << n << " decay=" << decay << " threads=" << threads
                << " step=" << step << " j=" << j;
          }
        }
      }
    }
  }
  SetNumThreads(saved_threads);
}

TEST(OptimizerTest, ClipGradNormLeavesSmallGradients) {
  Parameter w("w", Matrix(1, 2, 0.0f));
  w.grad.at(0, 0) = 0.3f;
  Sgd opt({&w}, 0.1f);
  opt.ClipGradNorm(1.0);
  EXPECT_NEAR(w.grad.at(0, 0), 0.3f, 1e-7);
}

TEST(OptimizerTest, ZeroGradClearsAllParams) {
  Rng rng(1);
  Linear layer(3, 2, &rng);
  Matrix x = Matrix::RandomNormal(4, 3, &rng);
  layer.Forward(x, &rng);
  layer.Backward(Matrix(4, 2, 1.0f));
  Adam opt(layer.Parameters());
  opt.ZeroGrad();
  for (Parameter* p : layer.Parameters()) {
    EXPECT_DOUBLE_EQ(p->grad.SquaredNorm(), 0.0);
  }
}

TEST(OptimizerTest, TrainsLinearRegressionEndToEnd) {
  Rng rng(2);
  Linear layer(2, 1, &rng);
  Adam opt(layer.Parameters(), 0.02f);
  // y = 2 x0 - x1 + 0.5
  Matrix x = Matrix::RandomNormal(128, 2, &rng);
  Matrix y(128, 1);
  for (int r = 0; r < 128; ++r) {
    y.at(r, 0) = 2.0f * x.at(r, 0) - x.at(r, 1) + 0.5f;
  }
  double final_loss = 1.0;
  for (int s = 0; s < 800; ++s) {
    Matrix pred = layer.Forward(x, &rng);
    Matrix grad;
    final_loss = MseLoss(pred, y, &grad);
    opt.ZeroGrad();
    layer.Backward(grad);
    opt.Step();
  }
  EXPECT_LT(final_loss, 1e-3);
  EXPECT_NEAR(layer.weight().value.at(0, 0), 2.0f, 0.05);
  EXPECT_NEAR(layer.weight().value.at(1, 0), -1.0f, 0.05);
  EXPECT_NEAR(layer.bias().value.at(0, 0), 0.5f, 0.05);
}

}  // namespace
}  // namespace silofuse
