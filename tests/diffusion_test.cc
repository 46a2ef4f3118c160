#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "diffusion/gaussian_ddpm.h"
#include "diffusion/schedule.h"
#include "diffusion/time_embedding.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

// Schedule properties over several horizon lengths.
class ScheduleSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleSweep, AlphaBarMonotoneDecreasingFromOne) {
  VarianceSchedule s(GetParam());
  EXPECT_DOUBLE_EQ(s.alpha_bar(0), 1.0);
  for (int t = 1; t <= s.num_timesteps(); ++t) {
    EXPECT_LT(s.alpha_bar(t), s.alpha_bar(t - 1));
    EXPECT_GT(s.alpha_bar(t), 0.0);
  }
}

TEST_P(ScheduleSweep, BetasInUnitInterval) {
  VarianceSchedule s(GetParam());
  for (int t = 1; t <= s.num_timesteps(); ++t) {
    EXPECT_GT(s.beta(t), 0.0);
    EXPECT_LT(s.beta(t), 1.0);
    EXPECT_NEAR(s.alpha(t), 1.0 - s.beta(t), 1e-12);
  }
}

TEST_P(ScheduleSweep, SqrtHelpersConsistent) {
  VarianceSchedule s(GetParam());
  for (int t = 1; t <= s.num_timesteps(); ++t) {
    EXPECT_NEAR(s.sqrt_alpha_bar(t) * s.sqrt_alpha_bar(t), s.alpha_bar(t),
                1e-9);
    EXPECT_NEAR(s.sqrt_one_minus_alpha_bar(t) * s.sqrt_one_minus_alpha_bar(t),
                1.0 - s.alpha_bar(t), 1e-9);
  }
}

TEST_P(ScheduleSweep, TerminalAlphaBarSmall) {
  VarianceSchedule s(GetParam());
  // The forward process must end close to pure noise.
  EXPECT_LT(s.alpha_bar(s.num_timesteps()), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Horizons, ScheduleSweep,
                         ::testing::Values(50, 100, 200, 1000));

TEST(ScheduleTest, CosineScheduleAlsoMonotone) {
  VarianceSchedule s(100, ScheduleType::kCosine);
  for (int t = 1; t <= 100; ++t) {
    EXPECT_LT(s.alpha_bar(t), s.alpha_bar(t - 1));
  }
}

TEST(ScheduleTest, InferenceTimestepsDescendingCoverEnds) {
  VarianceSchedule s(200);
  const std::vector<int> ts = s.InferenceTimesteps(25);
  EXPECT_EQ(ts.front(), 200);
  EXPECT_EQ(ts.back(), 1);
  for (size_t i = 1; i < ts.size(); ++i) EXPECT_LT(ts[i], ts[i - 1]);
}

TEST(ScheduleTest, InferenceTimestepsClampedToHorizon) {
  VarianceSchedule s(10);
  EXPECT_LE(s.InferenceTimesteps(50).size(), 10u);
  EXPECT_EQ(s.InferenceTimesteps(1).size(), 1u);
  EXPECT_EQ(s.InferenceTimesteps(1)[0], 10);
}

TEST(ScheduleTest, PosteriorVarianceBounded) {
  VarianceSchedule s(200);
  for (int t = 1; t <= 200; ++t) {
    EXPECT_GE(s.posterior_variance(t), 0.0);
    EXPECT_LE(s.posterior_variance(t), s.beta(t) + 1e-12);
  }
}

TEST(TimeEmbeddingTest, ShapeAndRange) {
  Matrix emb = SinusoidalTimeEmbedding({1, 50, 200}, 16);
  EXPECT_EQ(emb.rows(), 3);
  EXPECT_EQ(emb.cols(), 16);
  EXPECT_GE(emb.Min(), -1.0f);
  EXPECT_LE(emb.Max(), 1.0f);
}

TEST(TimeEmbeddingTest, DistinctTimestepsDistinctEmbeddings) {
  Matrix emb = SinusoidalTimeEmbedding({3, 4}, 32);
  double diff = 0.0;
  for (int c = 0; c < 32; ++c) diff += std::abs(emb.at(0, c) - emb.at(1, c));
  EXPECT_GT(diff, 0.1);
}

TEST(GaussianDdpmTest, ForwardProcessMatchesClosedForm) {
  Rng rng(1);
  GaussianDdpmConfig config;
  config.data_dim = 3;
  config.num_timesteps = 100;
  GaussianDdpm ddpm(config, &rng);
  Matrix z0 = Matrix::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix eps(2, 3);  // zero noise
  Matrix z_t = ddpm.ForwardProcess(z0, {10, 50}, eps);
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(z_t.at(0, c),
                ddpm.schedule().sqrt_alpha_bar(10) * z0.at(0, c), 1e-5);
    EXPECT_NEAR(z_t.at(1, c),
                ddpm.schedule().sqrt_alpha_bar(50) * z0.at(1, c), 1e-5);
  }
}

TEST(GaussianDdpmTest, TrainLossDecreases) {
  Rng rng(2);
  GaussianDdpmConfig config;
  config.data_dim = 2;
  config.hidden_dim = 48;
  config.num_layers = 4;
  config.dropout = 0.0f;
  GaussianDdpm ddpm(config, &rng);
  // Simple correlated 2-D data.
  Matrix z0(256, 2);
  for (int r = 0; r < 256; ++r) {
    const float a = static_cast<float>(rng.Normal());
    z0.at(r, 0) = a;
    z0.at(r, 1) = 0.8f * a + 0.2f * static_cast<float>(rng.Normal());
  }
  double first = 0.0, last = 0.0;
  for (int s = 0; s < 300; ++s) {
    const double loss = ddpm.TrainStep(z0, &rng);
    if (s < 20) first += loss / 20;
    if (s >= 280) last += loss / 20;
  }
  EXPECT_LT(last, first);
}

// Both prediction parameterizations must learn a shifted Gaussian's moments.
class DdpmPredictionSweep
    : public ::testing::TestWithParam<DiffusionPrediction> {};

TEST_P(DdpmPredictionSweep, SampleMomentsMatchTrainingData) {
  Rng rng(3);
  GaussianDdpmConfig config;
  config.data_dim = 2;
  config.hidden_dim = 64;
  config.num_layers = 4;
  config.dropout = 0.0f;
  config.predict = GetParam();
  GaussianDdpm ddpm(config, &rng);
  Matrix z0(512, 2);
  for (int r = 0; r < 512; ++r) {
    z0.at(r, 0) = static_cast<float>(rng.Normal(0.0, 1.0));
    z0.at(r, 1) = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  for (int s = 0; s < 600; ++s) ddpm.TrainStep(z0, &rng);
  Matrix samples = ddpm.Sample(1500, 25, &rng);
  EXPECT_TRUE(samples.AllFinite());
  Matrix mean = samples.ColMean();
  Matrix stddev = samples.ColStd();
  // The x0 parameterization is known to be the weaker fit at this budget;
  // the check is that both learn the distribution's location and scale.
  const double tol = GetParam() == DiffusionPrediction::kEpsilon ? 0.25 : 0.45;
  for (int c = 0; c < 2; ++c) {
    EXPECT_NEAR(mean.at(0, c), 0.0, tol);
    EXPECT_NEAR(stddev.at(0, c), 1.0, tol);
  }
}

INSTANTIATE_TEST_SUITE_P(Parameterizations, DdpmPredictionSweep,
                         ::testing::Values(DiffusionPrediction::kEpsilon,
                                           DiffusionPrediction::kX0));

TEST(GaussianDdpmTest, DeterministicDdimSamplingIsReproducible) {
  Rng init(4);
  GaussianDdpmConfig config;
  config.data_dim = 2;
  config.hidden_dim = 32;
  config.num_layers = 3;
  config.dropout = 0.0f;
  GaussianDdpm ddpm(config, &init);
  Rng rng_a(5), rng_b(5);
  Matrix a = ddpm.Sample(10, 10, &rng_a, /*eta=*/0.0);
  Matrix b = ddpm.Sample(10, 10, &rng_b, /*eta=*/0.0);
  EXPECT_EQ(a, b);
}

// Ancestral sampling (eta = 1) draws each step's noise on whichever thread
// claims it, beside the previous step's tiles, in the serial draw order, so
// the trajectory must be byte-identical at any thread count.
TEST(GaussianDdpmTest, AncestralSamplingIsByteIdenticalAcrossThreadCounts) {
  Rng init(11);
  GaussianDdpmConfig config;
  config.data_dim = 16;
  config.num_timesteps = 50;
  config.hidden_dim = 128;
  config.num_layers = 4;
  config.dropout = 0.0f;
  GaussianDdpm ddpm(config, &init);
  const int saved_threads = NumThreads();
  const std::vector<int> thread_counts = {1, 2, 8};
  std::vector<Matrix> samples;
  for (int threads : thread_counts) {
    SetNumThreads(threads);
    Rng rng(123);
    samples.push_back(ddpm.Sample(256, 10, &rng, /*eta=*/1.0));
  }
  SetNumThreads(saved_threads);
  for (size_t i = 1; i < samples.size(); ++i) {
    ASSERT_EQ(samples[i].size(), samples[0].size());
    EXPECT_EQ(std::memcmp(samples[i].data(), samples[0].data(),
                          samples[0].size() * sizeof(float)),
              0)
        << "threads=" << thread_counts[i];
  }
}

GaussianDdpmConfig SmallDenoiserConfig() {
  GaussianDdpmConfig config;
  config.data_dim = 6;
  config.num_timesteps = 50;
  config.hidden_dim = 64;
  config.num_layers = 4;
  config.dropout = 0.05f;  // training forwards draw from the step's Rng
  return config;
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// PrepareForSampling packs the weights and releases the training state; a
// later TrainStep must re-create that state and retire the packs, so the
// model trains and samples exactly like a twin that was never prepared. A
// pack that survived a training step would make the prepared model's
// forwards read the pre-update weights.
TEST(GaussianDdpmTest, TrainingAfterPrepareMatchesNeverPreparedTwin) {
  Rng init_a(21), init_b(21);
  GaussianDdpm prepared(SmallDenoiserConfig(), &init_a);
  GaussianDdpm twin(SmallDenoiserConfig(), &init_b);
  prepared.PrepareForSampling();
  {
    Rng rng_a(5), rng_b(5);
    EXPECT_TRUE(SameBytes(prepared.Sample(7, 10, &rng_a),
                          twin.Sample(7, 10, &rng_b)))
        << "packed sampling changed the bytes";
  }
  Rng data_rng(22);
  const Matrix z0 = Matrix::RandomNormal(64, 6, &data_rng);
  Rng train_a(23), train_b(23);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(prepared.TrainStep(z0, &train_a), twin.TrainStep(z0, &train_b))
        << "step " << s;
  }
  Rng rng_a(24), rng_b(24);
  EXPECT_TRUE(SameBytes(prepared.Sample(7, 10, &rng_a),
                        twin.Sample(7, 10, &rng_b)))
      << "sampling after training read a stale pack";
}

// Sampling only reads the model (the packs, the weights, the schedule), so
// two threads may sample one loaded model at once. Each thread's output
// must equal its serial run. Runs under the TSan CI job.
TEST(GaussianDdpmTest, ConcurrentSamplingOfLoadedModelMatchesSerial) {
  Rng init(25);
  GaussianDdpm source(SmallDenoiserConfig(), &init);
  std::stringstream stream;
  BinaryWriter writer(&stream);
  source.Save(&writer);
  BinaryReader reader(&stream);
  auto loaded = GaussianDdpm::LoadFrom(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  GaussianDdpm* ddpm = loaded.Value().get();

  constexpr int kThreads = 2;
  const auto sample = [ddpm](int t) {
    Rng rng_a(100 + t), rng_b(200 + t);
    return ddpm->SampleCoalesced({3 + t, 4}, {&rng_a, &rng_b}, 10, 1.0);
  };
  std::vector<Matrix> serial;
  for (int t = 0; t < kThreads; ++t) serial.push_back(sample(t));
  std::vector<Matrix> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { concurrent[t] = sample(t); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(SameBytes(concurrent[t], serial[t])) << "thread " << t;
  }
}

int64_t RegionCount() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  auto it = snap.counters.find("runtime.regions");
  return it == snap.counters.end() ? 0 : it->second;
}

// Sampling denoises in row tiles of kSampleTileRows. These blocks straddle
// tile boundaries, so a block's rows are tiled differently in the coalesced
// batch than in its solo run; each block must still match its solo bytes,
// at every thread count and with and without per-step noise. The batch
// spans several tiles, so each step is one parallel region, and the
// kernels inside the tiles open none of their own.
TEST(GaussianDdpmTest, TiledSamplingMatchesSoloBlocks) {
  constexpr int kT = GaussianDdpm::kSampleTileRows;
  const std::vector<int> blocks = {1, kT - 1, kT + 1, 2 * kT, 7, 3 * kT + 5};
  Rng init(31);
  GaussianDdpm ddpm(SmallDenoiserConfig(), &init);
  const int saved_threads = NumThreads();
  for (double eta : {0.0, 1.0}) {
    for (int threads : {1, 2, 8}) {
      SetNumThreads(threads);
      std::vector<Rng> rngs;
      for (size_t b = 0; b < blocks.size(); ++b) rngs.emplace_back(300 + b);
      std::vector<Rng*> rng_ptrs;
      for (Rng& rng : rngs) rng_ptrs.push_back(&rng);
      const int64_t regions_before = RegionCount();
      const Matrix coalesced = ddpm.SampleCoalesced(blocks, rng_ptrs, 10, eta);
      EXPECT_EQ(RegionCount() - regions_before, 10)
          << "eta=" << eta << ", threads=" << threads;
      int row = 0;
      for (size_t b = 0; b < blocks.size(); ++b) {
        Rng solo_rng(300 + b);
        const Matrix solo = ddpm.Sample(blocks[b], 10, &solo_rng, eta);
        EXPECT_TRUE(SameBytes(coalesced.SliceRows(row, blocks[b]), solo))
            << "block " << b << " (" << blocks[b] << " rows), eta=" << eta
            << ", threads=" << threads;
        row += blocks[b];
      }
    }
  }
  SetNumThreads(saved_threads);
}

// The first inference forward after a training one resets each Dropout's
// training flag. With tiled sampling that first forward runs on several
// threads at once: here, a trained but unsealed model (as a mid-training
// quality probe sees it) sampled over more than four tiles. Runs under the
// TSan CI job; the bytes must not depend on the thread count either.
TEST(GaussianDdpmTest, TiledSamplingRightAfterTrainingIsRaceFree) {
  GaussianDdpmConfig config = SmallDenoiserConfig();
  config.dropout = 0.01f;
  const int rows = 4 * GaussianDdpm::kSampleTileRows + 3;
  Rng data_rng(41);
  const Matrix z0 = Matrix::RandomNormal(64, config.data_dim, &data_rng);
  const auto train_then_sample = [&](int threads) {
    Rng init(42), train_rng(43);
    GaussianDdpm ddpm(config, &init);
    for (int s = 0; s < 3; ++s) ddpm.TrainStep(z0, &train_rng);
    SetNumThreads(threads);
    Rng rng(44);
    return ddpm.Sample(rows, 10, &rng, /*eta=*/1.0);
  };
  const int saved_threads = NumThreads();
  const Matrix parallel = train_then_sample(4);
  const Matrix serial = train_then_sample(1);
  SetNumThreads(saved_threads);
  EXPECT_TRUE(SameBytes(parallel, serial));
}

// Leaves `rng` where a serial sampler leaves a block of `rows` rows: the
// initial x, then one draw per non-final step with sigma > 0. sigma is
// positive at every non-final step when eta > 0 (alpha_bar falls strictly),
// and zero at every step when eta == 0.
void ReplaySerialDraws(const GaussianDdpm& ddpm, int rows, int steps,
                       double eta, Rng* rng) {
  const int non_final =
      static_cast<int>(ddpm.schedule().InferenceTimesteps(steps).size()) - 1;
  const int draws = 1 + (eta > 0.0 ? non_final : 0);
  const int64_t per_draw = static_cast<int64_t>(rows) * ddpm.config().data_dim;
  for (int64_t e = 0; e < draws * per_draw; ++e) rng->Normal();
}

// Each step's noise is drawn by one item of the previous step's tile region
// (or after the tile, for a one-tile pass). Over eta, step counts and batch
// shapes on both sides of the one-tile cut, the bytes must not depend on the
// thread count, and every block's Rng must end where the serial draw order
// leaves it: decoding continues from that state, so the draw count and
// order are part of the byte contract.
TEST(GaussianDdpmTest, StepAheadNoiseKeepsBytesAndRngStreams) {
  constexpr int kT = GaussianDdpm::kSampleTileRows;
  const std::vector<std::vector<int>> shapes = {
      {3}, {kT}, {4 * kT + 3}, {5, kT + 6, 2 * kT + 1}};
  Rng init(51);
  GaussianDdpm ddpm(SmallDenoiserConfig(), &init);
  ddpm.PrepareForSampling();
  const int saved_threads = NumThreads();
  for (double eta : {0.0, 0.5, 1.0}) {
    for (int steps : {1, 2, 10}) {
      for (const std::vector<int>& blocks : shapes) {
        Matrix first;
        for (int threads : {1, 2, 4}) {
          SetNumThreads(threads);
          std::vector<Rng> rngs;
          for (size_t b = 0; b < blocks.size(); ++b) rngs.emplace_back(500 + b);
          Matrix out;
          if (blocks.size() == 1) {
            out = ddpm.Sample(blocks[0], steps, &rngs[0], eta);
          } else {
            std::vector<Rng*> rng_ptrs;
            for (Rng& rng : rngs) rng_ptrs.push_back(&rng);
            out = ddpm.SampleCoalesced(blocks, rng_ptrs, steps, eta);
          }
          const std::string where =
              "eta=" + std::to_string(eta) + " steps=" + std::to_string(steps) +
              " blocks=" + std::to_string(blocks.size()) + " rows[0]=" +
              std::to_string(blocks[0]) + " threads=" + std::to_string(threads);
          EXPECT_TRUE(out.AllFinite()) << where;
          if (threads == 1) {
            first = out;
          } else {
            EXPECT_TRUE(SameBytes(out, first)) << where;
          }
          for (size_t b = 0; b < blocks.size(); ++b) {
            Rng reference(500 + b);
            ReplaySerialDraws(ddpm, blocks[b], steps, eta, &reference);
            EXPECT_EQ(rngs[b].Uniform(), reference.Uniform())
                << where << " block " << b;
          }
        }
      }
    }
  }
  SetNumThreads(saved_threads);
}

int CountSpans(const std::vector<obs::TraceEvent>& events,
               const std::string& name) {
  int count = 0;
  for (const obs::TraceEvent& e : events) count += e.name == name ? 1 : 0;
  return count;
}

// One ddpm.sample.noise span per draw, on whichever thread ran it: the
// initial x plus one per noisy step, and only the initial x when eta == 0.
TEST(GaussianDdpmTest, EveryNoiseDrawHasASpan) {
  Rng init(61);
  GaussianDdpm ddpm(SmallDenoiserConfig(), &init);
  ddpm.PrepareForSampling();
  const int saved_threads = NumThreads();
  SetNumThreads(4);
  for (int rows : {3, 4 * GaussianDdpm::kSampleTileRows + 3}) {
    for (double eta : {0.0, 1.0}) {
      obs::ClearTraceEvents();
      obs::EnableTracing("");
      Rng rng(62);
      ddpm.Sample(rows, 10, &rng, eta);
      obs::DisableTracing();
      const std::vector<obs::TraceEvent> events = obs::SnapshotTraceEvents();
      EXPECT_EQ(CountSpans(events, "ddpm.sample.noise"), eta > 0.0 ? 10 : 1)
          << "rows=" << rows << " eta=" << eta;
      EXPECT_EQ(CountSpans(events, "ddpm.sample.step"), 10)
          << "rows=" << rows << " eta=" << eta;
    }
  }
  obs::ClearTraceEvents();
  SetNumThreads(saved_threads);
}

TEST(GaussianDdpmTest, BackwardBackboneReturnsDataDimGradient) {
  Rng rng(6);
  GaussianDdpmConfig config;
  config.data_dim = 5;
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.dropout = 0.0f;
  GaussianDdpm ddpm(config, &rng);
  Matrix z = Matrix::RandomNormal(4, 5, &rng);
  Matrix pred = ddpm.ForwardBackbone(z, {1, 2, 3, 4}, &rng);
  Matrix grad = ddpm.BackwardBackbone(Matrix(4, 5, 1.0f));
  EXPECT_EQ(grad.rows(), 4);
  EXPECT_EQ(grad.cols(), 5);
  (void)pred;
}

}  // namespace
}  // namespace silofuse
