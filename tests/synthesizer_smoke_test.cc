// End-to-end smoke tests: every synthesizer trains on a small generated
// dataset, produces a schema-valid synthetic table, and beats a trivial
// quality bar. Tiny budgets keep this suite fast; the bench harness runs
// the full-quality sweeps.

#include <memory>

#include <gtest/gtest.h>

#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "distributed/e2e_distributed.h"
#include "metrics/resemblance.h"
#include "models/e2e.h"
#include "models/gan.h"
#include "models/latent_diffusion.h"
#include "models/tabddpm.h"

namespace silofuse {
namespace {

LatentDiffusionConfig TinyLatentConfig() {
  LatentDiffusionConfig config;
  config.autoencoder.hidden_dim = 32;
  config.autoencoder_steps = 120;
  config.diffusion_train_steps = 200;
  config.batch_size = 64;
  config.diffusion.hidden_dim = 48;
  config.diffusion.num_layers = 4;
  return config;
}

Table SmallData() {
  return GeneratePaperDataset("loan", 300, /*seed=*/3).Value();
}

void ExpectValidSynthesis(Synthesizer* model, const Table& data,
                          double min_resemblance) {
  Rng rng(11);
  ASSERT_TRUE(model->Fit(data, &rng).ok());
  auto synth = model->Synthesize(data.num_rows(), &rng);
  ASSERT_TRUE(synth.ok()) << synth.status().ToString();
  const Table& s = synth.Value();
  EXPECT_EQ(s.num_rows(), data.num_rows());
  EXPECT_TRUE(s.schema() == data.schema());
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_TRUE(s.ToMatrix().AllFinite());
  auto res = ComputeResemblance(data, s, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res.Value().overall, min_resemblance)
      << "model " << model->name() << " resemblance too low";
}

TEST(SynthesizerSmokeTest, LatentDiff) {
  LatentDiffSynthesizer model(TinyLatentConfig());
  ExpectValidSynthesis(&model, SmallData(), 50.0);
}

TEST(SynthesizerSmokeTest, FittedLatentDiffDropsTrainingState) {
  // A fitted model holds what sampling reads: no gradients.
  LatentDiffusionConfig config = TinyLatentConfig();
  config.autoencoder_steps = 10;
  config.diffusion_train_steps = 10;
  LatentDiffSynthesizer model(config);
  Rng rng(11);
  ASSERT_TRUE(model.Fit(SmallData(), &rng).ok());
  for (Parameter* p : model.coordinator()->ddpm()->Parameters()) {
    EXPECT_EQ(p->grad.size(), 0u) << p->name;
  }
}

TEST(SynthesizerSmokeTest, SiloFuse) {
  SiloFuseOptions options;
  options.base = TinyLatentConfig();
  options.partition.num_clients = 3;
  SiloFuse model(options);
  ExpectValidSynthesis(&model, SmallData(), 50.0);
  // Exactly one training communication round.
  EXPECT_EQ(model.channel().bytes_with_tag("training_latents"),
            model.channel().total_bytes() -
                model.channel().bytes_with_tag("synthetic_latents"));
}

TEST(SynthesizerSmokeTest, SiloFusePartitionedSynthesisStaysAligned) {
  SiloFuseOptions options;
  options.base = TinyLatentConfig();
  options.partition.num_clients = 4;
  SiloFuse model(options);
  Table data = SmallData();
  Rng rng(12);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  auto parts = model.SynthesizePartitioned(100, &rng);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts.Value().size(), 4u);
  int total_cols = 0;
  for (const Table& p : parts.Value()) {
    EXPECT_EQ(p.num_rows(), 100);
    total_cols += p.num_columns();
  }
  EXPECT_EQ(total_cols, data.num_columns());
}

TEST(SynthesizerSmokeTest, TabDdpm) {
  TabDdpmConfig config;
  config.hidden_dim = 48;
  config.num_layers = 4;
  config.train_steps = 250;
  config.batch_size = 64;
  config.inference_steps = 20;
  TabDdpmSynthesizer model(config);
  ExpectValidSynthesis(&model, SmallData(), 50.0);
}

TEST(SynthesizerSmokeTest, GanLinear) {
  GanConfig config;
  config.hidden_dim = 48;
  config.train_steps = 250;
  config.batch_size = 64;
  GanSynthesizer model(config);
  // GANs are unstable at tiny budgets; only require validity + a weak bar.
  ExpectValidSynthesis(&model, SmallData(), 20.0);
}

TEST(SynthesizerSmokeTest, GanConv) {
  GanConfig config;
  config.backbone = GanBackbone::kConv;
  config.hidden_dim = 48;
  config.train_steps = 200;
  config.batch_size = 64;
  GanSynthesizer model(config);
  ExpectValidSynthesis(&model, SmallData(), 20.0);
}

TEST(SynthesizerSmokeTest, E2E) {
  E2ESynthesizer model(TinyLatentConfig());
  ExpectValidSynthesis(&model, SmallData(), 35.0);
}

TEST(SynthesizerSmokeTest, E2EDistr) {
  PartitionConfig partition;
  partition.num_clients = 3;
  E2EDistrSynthesizer model(TinyLatentConfig(), partition);
  ExpectValidSynthesis(&model, SmallData(), 35.0);
  // End-to-end training communicates every iteration.
  const auto& config = TinyLatentConfig();
  const int iterations =
      config.autoencoder_steps + config.diffusion_train_steps;
  EXPECT_GE(model.channel().rounds(), iterations);
  EXPECT_GT(model.bytes_per_training_round(), 0);
}

TEST(SynthesizerSmokeTest, HighCardinalityDatasetChurn) {
  // churn has a 512-way categorical column; exercise the latent path on it.
  Table data = GeneratePaperDataset("churn", 250, 5).Value();
  LatentDiffusionConfig config = TinyLatentConfig();
  LatentDiffSynthesizer model(config);
  Rng rng(13);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  auto synth = model.Synthesize(200, &rng);
  ASSERT_TRUE(synth.ok()) << synth.status().ToString();
  EXPECT_TRUE(synth.Value().Validate().ok());
}

TEST(SynthesizerSmokeTest, SynthesizeBeforeFitFails) {
  LatentDiffSynthesizer model(TinyLatentConfig());
  Rng rng(14);
  auto synth = model.Synthesize(10, &rng);
  EXPECT_FALSE(synth.ok());
  EXPECT_EQ(synth.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace silofuse
