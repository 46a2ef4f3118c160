// End-to-end smoke tests: every synthesizer trains on a small generated
// dataset, produces a schema-valid synthetic table, and beats a trivial
// quality bar. Tiny budgets keep this suite fast; the bench harness runs
// the full-quality sweeps.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "distributed/e2e_distributed.h"
#include "distributed/partition.h"
#include "distributed/vfl.h"
#include "metrics/resemblance.h"
#include "models/e2e.h"
#include "models/gan.h"
#include "models/latent_diffusion.h"
#include "models/tabddpm.h"
#include "runtime/parallel_for.h"

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

// Split-learning classifier over `data`'s non-target columns, held by
// three silos: class probabilities on the training rows after one Train.
Matrix VflProbabilities(const Table& data) {
  const DatasetTask task = GetPaperDatasetInfo("loan").Value().task;
  const int target = data.schema().ColumnIndex(task.target_column).Value();
  std::vector<int> feature_cols;
  for (int c = 0; c < data.num_columns(); ++c) {
    if (c != target) feature_cols.push_back(c);
  }
  PartitionConfig partition;
  partition.num_clients = 3;
  const std::vector<Table> parts =
      PartitionTable(data.SelectColumns(feature_cols), partition).Value();
  std::vector<double> labels;
  for (int r = 0; r < data.num_rows(); ++r) {
    labels.push_back(data.value(r, target));
  }
  VflConfig config;
  config.train_steps = 20;
  config.batch_size = 64;
  Rng rng(21);
  auto model = VflClassifier::Create(
                   parts, data.schema().column(target).cardinality, config,
                   &rng)
                   .Value();
  EXPECT_TRUE(model->Train(parts, labels, &rng).ok());
  return model->PredictProba(parts).Value();
}

// The baselines seal their networks when Fit ends, so sampling runs the
// packed GEMM path; training and sampling must give the same bytes at any
// thread count. 600 sampled rows span several 64-row denoising tiles. So
// must the VFL classifier's probabilities after one Train.
TEST(SynthesizerSmokeTest, BaselinesSampleSameBytesAtAnyThreadCount) {
  struct ThreadSettingGuard {
    int saved = NumThreads();
    ~ThreadSettingGuard() { SetNumThreads(saved); }
  } guard;
  const Table data = GeneratePaperDataset("loan", 160, /*seed=*/3).Value();
  LatentDiffusionConfig latent = TinyLatentConfig();
  latent.autoencoder_steps = 15;
  latent.diffusion_train_steps = 15;
  TabDdpmConfig tabddpm;
  tabddpm.hidden_dim = 32;
  tabddpm.num_layers = 3;
  tabddpm.train_steps = 20;
  tabddpm.batch_size = 64;
  tabddpm.inference_steps = 10;
  GanConfig gan_linear;
  gan_linear.hidden_dim = 32;
  gan_linear.train_steps = 20;
  gan_linear.batch_size = 64;
  GanConfig gan_conv = gan_linear;
  gan_conv.backbone = GanBackbone::kConv;
  PartitionConfig partition;
  partition.num_clients = 3;

  std::vector<Matrix> one_thread;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    std::vector<std::unique_ptr<Synthesizer>> models;
    models.push_back(std::make_unique<TabDdpmSynthesizer>(tabddpm));
    models.push_back(std::make_unique<GanSynthesizer>(gan_linear));
    models.push_back(std::make_unique<GanSynthesizer>(gan_conv));
    models.push_back(std::make_unique<E2ESynthesizer>(latent));
    models.push_back(std::make_unique<E2EDistrSynthesizer>(latent, partition));
    for (size_t i = 0; i < models.size(); ++i) {
      Rng rng(21);
      ASSERT_TRUE(models[i]->Fit(data, &rng).ok()) << models[i]->name();
      auto synth = models[i]->Synthesize(600, &rng);
      ASSERT_TRUE(synth.ok()) << models[i]->name();
      const Matrix values = synth.Value().ToMatrix();
      if (threads == 1) {
        one_thread.push_back(values);
      } else {
        EXPECT_EQ(values, one_thread[i]) << models[i]->name();
      }
    }
    const Matrix proba = VflProbabilities(data);
    if (threads == 1) {
      one_thread.push_back(proba);
    } else {
      EXPECT_EQ(proba, one_thread[models.size()]) << "VFL";
    }
  }
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
