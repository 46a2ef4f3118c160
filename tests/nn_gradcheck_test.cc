// Finite-difference gradient checks for every differentiable layer.
//
// For a random input x and random upstream gradient g, the analytic
// gradients returned by Backward must match (J^T g) estimated by central
// differences of the scalar surrogate L(x) = sum(Forward(x) * g), both for
// the input and for every parameter.

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <cstring>

#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dropout.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

double Surrogate(Module* module, const Matrix& input, const Matrix& g) {
  Matrix out = module->Forward(input, /*train_rng=*/nullptr);
  return out.Mul(g).Sum();
}

/// Checks dSurrogate/dInput and dSurrogate/dParams by central differences.
void CheckGradients(Module* module, Matrix input, int out_rows, int out_cols,
                    double tol = 2e-2, double eps = 1e-3) {
  Rng rng(99);
  Matrix g = Matrix::RandomNormal(out_rows, out_cols, &rng);

  module->ZeroGrad();
  // Backward consumes caches that layers only populate in training mode
  // (inference forwards skip them to avoid the copies).
  Matrix out = module->Forward(input, &rng);
  ASSERT_EQ(out.rows(), out_rows);
  ASSERT_EQ(out.cols(), out_cols);
  Matrix grad_input = module->Backward(g);

  // Input gradient.
  for (int r = 0; r < input.rows(); ++r) {
    for (int c = 0; c < input.cols(); ++c) {
      const float orig = input.at(r, c);
      input.at(r, c) = orig + static_cast<float>(eps);
      const double up = Surrogate(module, input, g);
      input.at(r, c) = orig - static_cast<float>(eps);
      const double down = Surrogate(module, input, g);
      input.at(r, c) = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grad_input.at(r, c), numeric,
                  tol * std::max(1.0, std::abs(numeric)))
          << "input grad mismatch at (" << r << "," << c << ")";
    }
  }

  // Parameter gradients. Re-run forward/backward so caches match the
  // unperturbed input.
  module->ZeroGrad();
  module->Forward(input, &rng);
  module->Backward(g);
  for (Parameter* p : module->Parameters()) {
    for (int r = 0; r < p->value.rows(); ++r) {
      for (int c = 0; c < p->value.cols(); ++c) {
        const float orig = p->value.at(r, c);
        p->value.at(r, c) = orig + static_cast<float>(eps);
        const double up = Surrogate(module, input, g);
        p->value.at(r, c) = orig - static_cast<float>(eps);
        const double down = Surrogate(module, input, g);
        p->value.at(r, c) = orig;
        const double numeric = (up - down) / (2 * eps);
        EXPECT_NEAR(p->grad.at(r, c), numeric,
                    tol * std::max(1.0, std::abs(numeric)))
            << "param " << p->name << " grad mismatch at (" << r << "," << c
            << ")";
      }
    }
  }
}

TEST(GradCheckTest, Linear) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  Matrix input = Matrix::RandomNormal(5, 4, &rng);
  CheckGradients(&layer, input, 5, 3);
}

TEST(GradCheckTest, LinearWithoutBias) {
  Rng rng(2);
  Linear layer(3, 6, &rng, /*bias=*/false);
  Matrix input = Matrix::RandomNormal(4, 3, &rng);
  CheckGradients(&layer, input, 4, 6);
}

TEST(GradCheckTest, Gelu) {
  Rng rng(3);
  Gelu layer;
  Matrix input = Matrix::RandomNormal(4, 5, &rng);
  CheckGradients(&layer, input, 4, 5);
}

// Training forwards must stay on libm tanh (bit-identical to checkpoints
// and baselines recorded before the fast inference path existed); only
// inference forwards take the FastTanh approximation.
TEST(GeluNumericsTest, TrainingAndInferenceForwardsUseTheirOwnTanh) {
  Gelu layer;
  Rng rng(7);
  Matrix input = Matrix::RandomNormal(6, 3, &rng);
  Matrix train = layer.Forward(input, &rng);
  Matrix infer = layer.Forward(input, /*train_rng=*/nullptr);
  for (int r = 0; r < input.rows(); ++r) {
    for (int c = 0; c < input.cols(); ++c) {
      EXPECT_EQ(train.at(r, c), GeluTrainScalar(input.at(r, c)));
      EXPECT_EQ(infer.at(r, c), GeluScalar(input.at(r, c)));
    }
  }
  // Deep in the saturated tail libm tanh is exactly 1, so the libm GELU of
  // a large x is exactly x — a bit pattern the clamped rational
  // approximation need not reproduce. The training path must hit it.
  Matrix big(1, 1, 20.0f);
  EXPECT_EQ(layer.Forward(big, &rng).at(0, 0), 20.0f);
}

TEST(GradCheckTest, Relu) {
  Rng rng(4);
  Relu layer;
  // Keep inputs away from the kink at 0.
  Matrix input = Matrix::RandomNormal(4, 5, &rng).Apply(
      [](float v) { return std::abs(v) < 0.05f ? v + 0.2f : v; });
  CheckGradients(&layer, input, 4, 5);
}

TEST(GradCheckTest, LeakyRelu) {
  Rng rng(5);
  LeakyRelu layer(0.2f);
  Matrix input = Matrix::RandomNormal(4, 5, &rng).Apply(
      [](float v) { return std::abs(v) < 0.05f ? v + 0.2f : v; });
  CheckGradients(&layer, input, 4, 5);
}

TEST(GradCheckTest, TanhLayer) {
  Rng rng(6);
  Tanh layer;
  Matrix input = Matrix::RandomNormal(3, 4, &rng);
  CheckGradients(&layer, input, 3, 4);
}

TEST(GradCheckTest, SigmoidLayer) {
  Rng rng(7);
  Sigmoid layer;
  Matrix input = Matrix::RandomNormal(3, 4, &rng);
  CheckGradients(&layer, input, 3, 4);
}

TEST(GradCheckTest, LayerNormLayer) {
  Rng rng(8);
  LayerNorm layer(6);
  // Nudge gamma/beta off their init so gradients are generic.
  for (Parameter* p : layer.Parameters()) {
    for (int c = 0; c < p->value.cols(); ++c) {
      p->value.at(0, c) += static_cast<float>(rng.Normal(0.0, 0.2));
    }
  }
  Matrix input = Matrix::RandomNormal(5, 6, &rng);
  CheckGradients(&layer, input, 5, 6, /*tol=*/4e-2);
}

TEST(GradCheckTest, Conv1D) {
  Rng rng(9);
  Conv1D layer(/*in_channels=*/2, /*out_channels=*/3, /*length=*/8,
               /*kernel_size=*/3, /*stride=*/2, /*padding=*/1, &rng);
  Matrix input = Matrix::RandomNormal(3, 2 * 8, &rng);
  CheckGradients(&layer, input, 3, layer.out_features());
}

TEST(GradCheckTest, Conv1DNoPaddingUnitStride) {
  Rng rng(10);
  Conv1D layer(1, 2, 6, 3, 1, 0, &rng);
  Matrix input = Matrix::RandomNormal(2, 6, &rng);
  CheckGradients(&layer, input, 2, layer.out_features());
}

TEST(GradCheckTest, ConvTranspose1D) {
  Rng rng(11);
  ConvTranspose1D layer(/*in_channels=*/3, /*out_channels=*/2, /*length=*/4,
                        /*kernel_size=*/4, /*stride=*/2, /*padding=*/1, &rng);
  Matrix input = Matrix::RandomNormal(3, 3 * 4, &rng);
  CheckGradients(&layer, input, 3, layer.out_features());
}

TEST(GradCheckTest, SequentialMlp) {
  Rng rng(12);
  Sequential net;
  net.Emplace<Linear>(4, 8, &rng);
  net.Emplace<Gelu>();
  net.Emplace<Linear>(8, 3, &rng);
  Matrix input = Matrix::RandomNormal(4, 4, &rng);
  CheckGradients(&net, input, 4, 3);
}

TEST(GradCheckTest, SequentialConvStack) {
  Rng rng(13);
  Sequential net;
  net.Emplace<Conv1D>(1, 2, 8, 3, 2, 1, &rng);  // -> 2 x 4
  net.Emplace<LeakyRelu>(0.2f);
  net.Emplace<Linear>(8, 2, &rng);
  Matrix input = Matrix::RandomNormal(2, 8, &rng);
  CheckGradients(&net, input, 2, 2);
}

TEST(GradCheckTest, ResidualWrappedMlp) {
  Rng rng(16);
  auto inner = std::make_unique<Sequential>();
  inner->Emplace<Linear>(5, 5, &rng);
  inner->Emplace<Gelu>();
  Residual layer(std::move(inner));
  Matrix input = Matrix::RandomNormal(3, 5, &rng);
  CheckGradients(&layer, input, 3, 5);
}

TEST(GradCheckTest, ResidualIdentityWhenInnerIsZero) {
  Rng rng(17);
  auto inner = std::make_unique<Sequential>();
  auto* linear = new Linear(4, 4, &rng);
  linear->weight().value.Fill(0.0f);
  linear->bias().value.Fill(0.0f);
  inner->Add(std::unique_ptr<Module>(linear));
  Residual layer(std::move(inner));
  Matrix input = Matrix::RandomNormal(2, 4, &rng);
  EXPECT_EQ(layer.Forward(input, nullptr), input);
}

// ---- Fused-path coverage: the GEMM epilogue fusions (linear bias + GELU)
// and the LayerNorm inference fusion must neither perturb gradients nor
// change a single output byte relative to the unfused paths.

class ThreadSettingGuard {
 public:
  ThreadSettingGuard() : saved_(NumThreads()) {}
  ~ThreadSettingGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

bool BytesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

uint32_t Bits(float v) { return std::bit_cast<uint32_t>(v); }

// Gelu's training Forward computes y and dy/dx from one tanh and caches
// dy/dx; its outputs and its Backward must equal the scalar definitions
// bit for bit: signed zeros, the saturated tails, tiny and huge magnitudes,
// and random values, on matrices below (serial) and above (pool) the
// activation's parallel threshold, at 1 and 4 threads.
TEST(GeluNumericsTest, TrainingForwardAndBackwardEqualScalarsBitForBit) {
  ThreadSettingGuard guard;
  const std::vector<float> specials = {
      0.0f,    -0.0f,    20.0f,    -20.0f,   1e-30f,   -1e-30f, 1e-40f,
      -1e-40f, 1e12f,    -1e12f,   3.0f,     -3.0f,    0.5f,    -0.5f,
      1e-4f,   -1e-4f,   9.0f,     -9.0f,    1e6f,     -1e6f};
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (const auto& [rows, cols] : {std::pair{6, 3}, std::pair{128, 128}}) {
      Rng rng(41);
      Matrix input = Matrix::RandomNormal(rows, cols, &rng, 0.0f, 3.0f);
      for (size_t i = 0; i < specials.size() && i < input.size(); ++i) {
        input.data()[i] = specials[i];
      }
      const Matrix upstream = Matrix::RandomNormal(rows, cols, &rng);
      Gelu layer;
      const Matrix out = layer.Forward(input, &rng);
      const Matrix grad = layer.Backward(upstream);
      for (size_t i = 0; i < input.size(); ++i) {
        const float x = input.data()[i];
        ASSERT_EQ(Bits(out.data()[i]), Bits(GeluTrainScalar(x)))
            << rows << "x" << cols << " threads=" << threads << " x=" << x;
        ASSERT_EQ(Bits(grad.data()[i]),
                  Bits(upstream.data()[i] * GeluGradScalar(x)))
            << rows << "x" << cols << " threads=" << threads << " x=" << x;
      }
    }
  }
}

// Backward indexes its cache by the gradient's size, so a gradient whose
// shape does not match the last training Forward (or arrives with no
// training Forward at all) must stop the process, not read past the cache.
// Seal releases every such cache, so a Backward after Seal must stop at the
// same check even when its gradient has the right shape (a sealed Linear
// has no grad buffer for its dW GEMM to accumulate into).
TEST(ActivationBackwardDeathTest, ShapeMismatchWithCacheAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* kNoForward = "Backward.*no matching training Forward";
  const Matrix input(4, 3, 0.5f);
  const Matrix wrong_batch(8, 3, 1.0f);
  Rng rng(1);
  std::vector<std::unique_ptr<Module>> layers;
  layers.push_back(std::make_unique<Gelu>());
  layers.push_back(std::make_unique<Relu>());
  layers.push_back(std::make_unique<LeakyRelu>());
  layers.push_back(std::make_unique<Tanh>());
  layers.push_back(std::make_unique<Sigmoid>());
  layers.push_back(std::make_unique<Linear>(3, 3, &rng));
  layers.push_back(std::make_unique<LayerNorm>(3));
  layers.push_back(std::make_unique<Dropout>(0.5f));
  auto net = std::make_unique<Sequential>();
  net->Emplace<Linear>(3, 3, &rng);
  net->Emplace<Gelu>();
  net->Emplace<Linear>(3, 3, &rng);
  layers.push_back(std::move(net));
  for (auto& layer : layers) {
    // Dropout is the identity until a training Forward draws a mask.
    if (std::string(layer->TypeName()) != "dropout") {
      EXPECT_DEATH(layer->Backward(wrong_batch), kNoForward)
          << layer->TypeName();
    }
    layer->Forward(input, &rng);
    EXPECT_DEATH(layer->Backward(wrong_batch), kNoForward)
        << layer->TypeName();
    EXPECT_EQ(layer->Backward(Matrix(4, 3, 1.0f)).rows(), 4);
    layer->Seal();
    EXPECT_DEATH(layer->Backward(Matrix(4, 3, 1.0f)), kNoForward)
        << layer->TypeName() << " after Seal";
  }
}

// Gradcheck through the exact module stack the fused inference peephole
// targets — Linear feeding Gelu — at 1 and 8 threads. Training always runs
// unfused, but its forward GEMM and fused dW accumulation ride the same
// packed kernel whose epilogue contract the fusion depends on.
TEST(GradCheckTest, SequentialLinearGeluAtMultipleThreadCounts) {
  ThreadSettingGuard guard;
  for (int threads : {1, 8}) {
    SetNumThreads(threads);
    Rng rng(20);
    Sequential net;
    net.Emplace<Linear>(6, 12, &rng);
    net.Emplace<Gelu>();
    Matrix input = Matrix::RandomNormal(5, 6, &rng);
    CheckGradients(&net, input, 5, 12);
  }
}

TEST(GradCheckTest, LayerNormAtMultipleThreadCounts) {
  ThreadSettingGuard guard;
  for (int threads : {1, 8}) {
    SetNumThreads(threads);
    Rng rng(22);
    LayerNorm layer(8);
    for (Parameter* p : layer.Parameters()) {
      for (int c = 0; c < p->value.cols(); ++c) {
        p->value.at(0, c) += static_cast<float>(rng.Normal(0.0, 0.2));
      }
    }
    Matrix input = Matrix::RandomNormal(6, 8, &rng);
    CheckGradients(&layer, input, 6, 8, /*tol=*/4e-2);
  }
}

// Training gradients must be byte-identical across thread counts: batches
// big enough that the forward/backward GEMMs fan out across the pool.
TEST(FusedPathTest, TrainingGradientsByteIdenticalAcrossThreads) {
  ThreadSettingGuard guard;
  Rng data_rng(30);
  const Matrix input = Matrix::RandomNormal(64, 32, &data_rng);
  const Matrix upstream = Matrix::RandomNormal(64, 16, &data_rng);

  auto build = [] {
    Rng rng(31);
    auto net = std::make_unique<Sequential>();
    net->Emplace<Linear>(32, 48, &rng);
    net->Emplace<Gelu>();
    net->Emplace<LayerNorm>(48);
    net->Emplace<Linear>(48, 16, &rng);
    return net;
  };

  SetNumThreads(1);
  auto net_serial = build();
  net_serial->ZeroGrad();
  const Matrix out_serial = net_serial->Forward(input, &data_rng);
  const Matrix gin_serial = net_serial->Backward(upstream);

  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    auto net_parallel = build();
    net_parallel->ZeroGrad();
    const Matrix out_parallel = net_parallel->Forward(input, &data_rng);
    const Matrix gin_parallel = net_parallel->Backward(upstream);
    EXPECT_TRUE(BytesEqual(out_parallel, out_serial)) << "threads=" << threads;
    EXPECT_TRUE(BytesEqual(gin_parallel, gin_serial)) << "threads=" << threads;
    const auto params_serial = net_serial->Parameters();
    const auto params_parallel = net_parallel->Parameters();
    ASSERT_EQ(params_serial.size(), params_parallel.size());
    for (size_t i = 0; i < params_serial.size(); ++i) {
      EXPECT_TRUE(
          BytesEqual(params_parallel[i]->grad, params_serial[i]->grad))
          << "param " << params_serial[i]->name << " threads=" << threads;
    }
  }
}

// The Sequential inference peephole (fused linear+bias+gelu GEMM) must
// produce the same bytes as running the modules unfused, at any thread
// count — including shapes with register-tile remainders.
TEST(FusedPathTest, FusedLinearGeluInferenceMatchesUnfusedBytes) {
  ThreadSettingGuard guard;
  Rng rng(33);
  Linear linear(37, 29, &rng);  // remainder panels in both dimensions
  Gelu gelu;
  const Matrix input = Matrix::RandomNormal(23, 37, &rng);
  for (int threads : {1, 8}) {
    SetNumThreads(threads);
    const Matrix unfused =
        gelu.Forward(linear.Forward(input, /*train_rng=*/nullptr), nullptr);
    const Matrix fused = linear.ForwardFusedGelu(input);
    EXPECT_TRUE(BytesEqual(fused, unfused)) << "threads=" << threads;

    // And through Sequential, whose peephole triggers the fusion.
    Rng net_rng(34);
    Sequential net;
    net.Emplace<Linear>(37, 29, &net_rng);
    net.Emplace<Gelu>();
    auto* seq_linear = dynamic_cast<Linear*>(net.module(0));
    ASSERT_NE(seq_linear, nullptr);
    auto* seq_gelu = dynamic_cast<Gelu*>(net.module(1));
    ASSERT_NE(seq_gelu, nullptr);
    const Matrix via_net = net.Forward(input, /*train_rng=*/nullptr);
    const Matrix via_modules = seq_gelu->Forward(
        seq_linear->Forward(input, /*train_rng=*/nullptr), nullptr);
    EXPECT_TRUE(BytesEqual(via_net, via_modules)) << "threads=" << threads;
  }
}

// A packed Linear runs the prepacked kernel on every shape, including the
// small ones the unpacked path sends to the direct loop; both inference
// entry points must keep their bytes at the denoiser's shapes (input,
// hidden, output and skip projections at serving batch sizes).
TEST(FusedPathTest, PackedLinearMatchesUnpackedBytes) {
  Rng rng(36);
  const std::pair<int, int> shapes[] = {
      {45, 256}, {256, 256}, {256, 13}, {13, 13}};
  for (const auto& [in, out] : shapes) {
    Rng init_a(37), init_b(37);
    Linear unpacked(in, out, &init_a);
    Linear packed(in, out, &init_b);
    packed.PackWeights();
    ASSERT_TRUE(packed.packed());
    for (int m : {1, 4, 7, 13}) {
      const Matrix input = Matrix::RandomNormal(m, in, &rng);
      EXPECT_TRUE(BytesEqual(packed.Forward(input, /*train_rng=*/nullptr),
                             unpacked.Forward(input, /*train_rng=*/nullptr)))
          << "Forward m=" << m << " k=" << in << " n=" << out;
      EXPECT_TRUE(BytesEqual(packed.ForwardFusedGelu(input),
                             unpacked.ForwardFusedGelu(input)))
          << "ForwardFusedGelu m=" << m << " k=" << in << " n=" << out;
    }
    ASSERT_TRUE(packed.packed());
  }
}

// LayerNorm's inference forward skips the caches but must emit the exact
// bytes of the training forward.
TEST(FusedPathTest, LayerNormInferenceMatchesTrainingForwardBytes) {
  ThreadSettingGuard guard;
  Rng rng(35);
  LayerNorm layer(19);
  for (Parameter* p : layer.Parameters()) {
    for (int c = 0; c < p->value.cols(); ++c) {
      p->value.at(0, c) += static_cast<float>(rng.Normal(0.0, 0.2));
    }
  }
  const Matrix input = Matrix::RandomNormal(41, 19, &rng);
  for (int threads : {1, 8}) {
    SetNumThreads(threads);
    const Matrix train = layer.Forward(input, &rng);
    const Matrix infer = layer.Forward(input, /*train_rng=*/nullptr);
    EXPECT_TRUE(BytesEqual(infer, train)) << "threads=" << threads;
  }
}

TEST(GradCheckTest, ConvTransposeOutputLengthFormula) {
  Rng rng(14);
  ConvTranspose1D layer(1, 1, 5, 4, 2, 1, &rng);
  EXPECT_EQ(layer.out_length(), (5 - 1) * 2 - 2 * 1 + 4);
}

TEST(GradCheckTest, Conv1DOutputLengthFormula) {
  Rng rng(15);
  Conv1D layer(1, 1, 9, 3, 2, 1, &rng);
  EXPECT_EQ(layer.out_length(), (9 + 2 * 1 - 3) / 2 + 1);
}

}  // namespace
}  // namespace silofuse
