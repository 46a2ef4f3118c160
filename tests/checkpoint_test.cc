// Serialization tests: the binary archive primitives, matrix round-trips,
// component Save/Load, and full SiloFuse checkpoint restore (synthesis from
// a reloaded model must be schema-correct and deterministic given a seed).

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/archive.h"
#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "diffusion/gaussian_ddpm.h"
#include "models/autoencoder.h"
#include "tensor/matrix_io.h"

namespace silofuse {
namespace {

TEST(ArchiveTest, PrimitiveRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(42);
  writer.WriteI64(-7);
  writer.WriteF32(1.5f);
  writer.WriteF64(-2.25);
  writer.WriteBool(true);
  writer.WriteString("hello");
  writer.WriteDoubleVector({1.0, 2.0});
  BinaryReader reader(&stream);
  EXPECT_EQ(reader.ReadU32().Value(), 42u);
  EXPECT_EQ(reader.ReadI64().Value(), -7);
  EXPECT_EQ(reader.ReadF32().Value(), 1.5f);
  EXPECT_EQ(reader.ReadF64().Value(), -2.25);
  EXPECT_EQ(reader.ReadBool().Value(), true);
  EXPECT_EQ(reader.ReadString().Value(), "hello");
  EXPECT_EQ(reader.ReadDoubleVector().Value(), (std::vector<double>{1.0, 2.0}));
}

TEST(ArchiveTest, TruncatedStreamIsIOError) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(1);
  BinaryReader reader(&stream);
  ASSERT_TRUE(reader.ReadU32().ok());
  EXPECT_EQ(reader.ReadU32().status().code(), StatusCode::kIOError);
}

TEST(ArchiveTest, TagMismatchDetected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteString("alpha");
  BinaryReader reader(&stream);
  EXPECT_FALSE(reader.ExpectTag("beta").ok());
}

TEST(ArchiveTest, CorruptLengthRejected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64(kMaxArchiveVectorLength + 1);  // absurd string length
  BinaryReader reader(&stream);
  EXPECT_FALSE(reader.ReadString().ok());
}

TEST(MatrixIoTest, RoundTripExact) {
  Rng rng(1);
  Matrix m = Matrix::RandomNormal(7, 5, &rng);
  std::stringstream stream;
  BinaryWriter writer(&stream);
  SaveMatrix(&writer, m);
  BinaryReader reader(&stream);
  auto back = LoadMatrix(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.Value(), m);
}

TEST(MatrixIoTest, EmptyMatrixRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  SaveMatrix(&writer, Matrix());
  BinaryReader reader(&stream);
  auto back = LoadMatrix(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.Value().empty());
}

TEST(SchemaIoTest, RoundTrip) {
  Schema schema({ColumnSpec::Numeric("x"), ColumnSpec::Categorical("c", 9)});
  std::stringstream stream;
  BinaryWriter writer(&stream);
  schema.Save(&writer);
  BinaryReader reader(&stream);
  auto back = Schema::Load(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.Value() == schema);
}

TEST(MixedEncoderIoTest, RestoredEncoderEncodesIdentically) {
  Table data = GeneratePaperDataset("loan", 200, 1).Value();
  MixedEncoder original(NumericScaling::kQuantileNormal);
  ASSERT_TRUE(original.Fit(data).ok());
  std::stringstream stream;
  BinaryWriter writer(&stream);
  original.Save(&writer);
  BinaryReader reader(&stream);
  MixedEncoder restored;
  ASSERT_TRUE(restored.Load(&reader).ok());
  EXPECT_EQ(restored.encoded_width(), original.encoded_width());
  EXPECT_EQ(restored.scaling(), NumericScaling::kQuantileNormal);
  EXPECT_EQ(restored.Encode(data), original.Encode(data));
}

TEST(AutoencoderIoTest, RestoredAutoencoderMatchesOriginal) {
  Rng rng(2);
  Table data = GeneratePaperDataset("loan", 300, 2).Value();
  AutoencoderConfig config;
  config.hidden_dim = 32;
  auto ae = TabularAutoencoder::Create(data, config, &rng).Value();
  ASSERT_TRUE(ae->Train(data, 150, 64, &rng).ok());
  std::stringstream stream;
  BinaryWriter writer(&stream);
  ae->Save(&writer);
  BinaryReader reader(&stream);
  auto restored = TabularAutoencoder::LoadFrom(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value()->latent_dim(), ae->latent_dim());
  // Encodings are bit-identical.
  EXPECT_EQ(restored.Value()->EncodeTable(data), ae->EncodeTable(data));
}

TEST(GaussianDdpmIoTest, RestoredModelSamplesIdentically) {
  Rng rng(3);
  GaussianDdpmConfig config;
  config.data_dim = 4;
  config.hidden_dim = 32;
  config.num_layers = 4;
  config.dropout = 0.0f;
  GaussianDdpm ddpm(config, &rng);
  Matrix z0 = Matrix::RandomNormal(128, 4, &rng);
  for (int s = 0; s < 50; ++s) ddpm.TrainStep(z0, &rng);
  std::stringstream stream;
  BinaryWriter writer(&stream);
  ddpm.Save(&writer);
  BinaryReader reader(&stream);
  auto restored = GaussianDdpm::LoadFrom(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Rng rng_a(9), rng_b(9);
  EXPECT_EQ(ddpm.Sample(10, 5, &rng_a, 0.0),
            restored.Value()->Sample(10, 5, &rng_b, 0.0));
}

// A loaded model is prepared for sampling: packed, with no grads or Adam
// moments. Training it again must still work (the state is re-created on
// the first TrainStep; dropout draws from the TrainStep's Rng), and a
// Save -> Load -> Save round trip must reproduce the archive byte for byte.
TEST(GaussianDdpmIoTest, LoadedModelTrainsAndRoundTripsBytes) {
  Rng rng(4);
  GaussianDdpmConfig config;
  config.data_dim = 4;
  config.hidden_dim = 32;
  config.num_layers = 4;
  config.dropout = 0.05f;
  GaussianDdpm ddpm(config, &rng);
  Matrix z0 = Matrix::RandomNormal(64, 4, &rng);
  for (int s = 0; s < 5; ++s) ddpm.TrainStep(z0, &rng);
  std::stringstream first;
  BinaryWriter first_writer(&first);
  ddpm.Save(&first_writer);
  const std::string saved = first.str();

  BinaryReader reader(&first);
  auto restored = GaussianDdpm::LoadFrom(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::stringstream second;
  BinaryWriter second_writer(&second);
  restored.Value()->Save(&second_writer);
  EXPECT_EQ(second.str(), saved);

  for (int s = 0; s < 3; ++s) {
    EXPECT_TRUE(std::isfinite(restored.Value()->TrainStep(z0, &rng)));
  }
  Rng sample_rng(9);
  const Matrix sample = restored.Value()->Sample(6, 5, &sample_rng);
  EXPECT_EQ(sample.rows(), 6);
  EXPECT_TRUE(std::isfinite(sample.Sum()));
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Sealing (PrepareForSampling) and Save -> LoadFrom reach one state: with
// dropout on, the two denoisers train and sample identically from there,
// since both draw dropout masks from the training call's Rng.
TEST(GaussianDdpmIoTest, SealedModelTrainsLikeItsReload) {
  Rng rng(5);
  GaussianDdpmConfig config;
  config.data_dim = 4;
  config.hidden_dim = 32;
  config.num_layers = 4;
  config.dropout = 0.1f;
  GaussianDdpm sealed(config, &rng);
  const Matrix z0 = Matrix::RandomNormal(64, 4, &rng);
  for (int s = 0; s < 5; ++s) sealed.TrainStep(z0, &rng);
  sealed.PrepareForSampling();
  std::stringstream stream;
  BinaryWriter writer(&stream);
  sealed.Save(&writer);
  BinaryReader reader(&stream);
  auto loaded = GaussianDdpm::LoadFrom(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Rng train_a(6), train_b(6);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(sealed.TrainStep(z0, &train_a),
              loaded.Value()->TrainStep(z0, &train_b))
        << "step " << s;
  }
  Rng sample_a(7), sample_b(7);
  EXPECT_TRUE(SameBytes(sealed.Sample(9, 5, &sample_a),
                        loaded.Value()->Sample(9, 5, &sample_b)));
}

class SiloFuseCheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "/silofuse.ckpt";
};

TEST_F(SiloFuseCheckpointTest, SaveLoadSynthesizeRoundTrip) {
  Table data = GeneratePaperDataset("loan", 300, 3).Value();
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 80;
  options.base.diffusion_train_steps = 120;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 3;
  SiloFuse model(options);
  Rng rng(4);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  ASSERT_TRUE(model.SaveCheckpoint(path_).ok());

  auto restored = SiloFuse::LoadCheckpoint(path_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value()->num_clients(), 3);
  EXPECT_EQ(restored.Value()->total_latent_dim(), model.total_latent_dim());

  // Same seed -> identical synthetic output from original and restored.
  Rng rng_a(11), rng_b(11);
  auto synth_a = model.Synthesize(40, &rng_a);
  auto synth_b = restored.Value()->Synthesize(40, &rng_b);
  ASSERT_TRUE(synth_a.ok());
  ASSERT_TRUE(synth_b.ok());
  EXPECT_TRUE(synth_a.Value().schema() == data.schema());
  EXPECT_TRUE(synth_b.Value().schema() == data.schema());
  for (int r = 0; r < 40; ++r) {
    for (int c = 0; c < data.num_columns(); ++c) {
      EXPECT_DOUBLE_EQ(synth_a.Value().value(r, c),
                       synth_b.Value().value(r, c));
    }
  }
}

// Serving restores checkpoints from concurrent request paths (model-cache
// misses on two deployments backed by one file, tests, tools); restore must
// be safe to run in parallel and each restored model fully independent.
// Runs under the TSan CI job.
TEST_F(SiloFuseCheckpointTest, ConcurrentRestoreIsIndependent) {
  Table data = GeneratePaperDataset("loan", 200, 7).Value();
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 40;
  options.base.diffusion_train_steps = 60;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 2;
  SiloFuse model(options);
  Rng rng(8);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  ASSERT_TRUE(model.SaveCheckpoint(path_).ok());

  constexpr int kThreads = 2;
  std::vector<Result<Table>> outputs(kThreads, Status::Internal("unset"));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &outputs] {
      auto restored = SiloFuse::LoadCheckpoint(path_);
      if (!restored.ok()) {
        outputs[t] = restored.status();
        return;
      }
      Rng synth_rng(21);  // same seed in both threads
      outputs[t] = restored.Value()->Synthesize(30, &synth_rng);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(outputs[t].ok()) << outputs[t].status().ToString();
    EXPECT_TRUE(outputs[t].Value().schema() == data.schema());
  }
  // Same file + same seed -> byte-identical tables from both threads.
  const Table& a = outputs[0].Value();
  const Table& b = outputs[1].Value();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      EXPECT_EQ(a.value(r, c), b.value(r, c));
    }
  }
}

TEST_F(SiloFuseCheckpointTest, ReferenceStatsSurviveCheckpointRoundTrip) {
  Table data = GeneratePaperDataset("loan", 250, 9).Value();
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 40;
  options.base.diffusion_train_steps = 60;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 2;
  options.reference_stats_rows = 64;
  SiloFuse model(options);
  Rng rng(10);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  ASSERT_TRUE(model.has_reference_stats());
  ASSERT_TRUE(model.SaveCheckpoint(path_).ok());

  auto restored = SiloFuse::LoadCheckpoint(path_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(restored.Value()->has_reference_stats());
  const ReferenceStats& original = model.reference_stats();
  const ReferenceStats& loaded = restored.Value()->reference_stats();
  EXPECT_TRUE(loaded.schema == data.schema());
  EXPECT_EQ(loaded.training_rows, original.training_rows);
  EXPECT_EQ(loaded.training_rows, 250);
  EXPECT_EQ(loaded.reference_sample.num_rows(), 64);
  ASSERT_EQ(loaded.columns.size(), original.columns.size());
  for (size_t c = 0; c < loaded.columns.size(); ++c) {
    EXPECT_EQ(loaded.columns[c].quantiles, original.columns[c].quantiles);
    EXPECT_EQ(loaded.columns[c].frequencies, original.columns[c].frequencies);
  }
  EXPECT_EQ(loaded.associations, original.associations);
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < data.num_columns(); ++c) {
      EXPECT_EQ(loaded.reference_sample.value(r, c),
                original.reference_sample.value(r, c));
    }
  }
}

// Backward compatibility: reference_stats_rows = 0 writes the exact
// pre-ReferenceStats checkpoint format (no trailing section), which stands
// in for checkpoints produced before the section existed. It must load and
// synthesize, just with no reference statistics for the auditor.
TEST_F(SiloFuseCheckpointTest, PreReferenceStatsCheckpointStillLoads) {
  Table data = GeneratePaperDataset("loan", 200, 12).Value();
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 40;
  options.base.diffusion_train_steps = 60;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 2;
  options.reference_stats_rows = 0;  // old wire format, byte for byte
  SiloFuse model(options);
  Rng rng(13);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  EXPECT_FALSE(model.has_reference_stats());
  ASSERT_TRUE(model.SaveCheckpoint(path_).ok());

  auto restored = SiloFuse::LoadCheckpoint(path_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(restored.Value()->has_reference_stats());
  Rng synth_rng(14);
  auto synth = restored.Value()->Synthesize(20, &synth_rng);
  ASSERT_TRUE(synth.ok()) << synth.status().ToString();
  EXPECT_TRUE(synth.Value().schema() == data.schema());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// SaveCheckpoint writes a temp file and renames it over the path, so a
// hot-reload poller that loads while a new version is being written sees
// the old file or the new one, never a half-written one. One thread
// re-saves two versions to one path while this thread loads in a loop:
// every load must succeed and re-save to the bytes of one version.
TEST_F(SiloFuseCheckpointTest, SaveIsAtomicUnderConcurrentLoads) {
  Table data = GeneratePaperDataset("loan", 200, 11).Value();
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 20;
  options.base.diffusion_train_steps = 20;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 64;
  options.base.diffusion.num_layers = 4;
  options.partition.num_clients = 2;
  SiloFuse v1(options), v2(options);
  Rng rng1(12), rng2(13);
  ASSERT_TRUE(v1.Fit(data, &rng1).ok());
  ASSERT_TRUE(v2.Fit(data, &rng2).ok());
  const std::string v1_path = path_ + ".v1";
  const std::string v2_path = path_ + ".v2";
  const std::string resave_path = path_ + ".resave";
  ASSERT_TRUE(v1.SaveCheckpoint(v1_path).ok());
  ASSERT_TRUE(v2.SaveCheckpoint(v2_path).ok());
  const std::string v1_bytes = ReadFileBytes(v1_path);
  const std::string v2_bytes = ReadFileBytes(v2_path);
  ASSERT_NE(v1_bytes, v2_bytes);
  ASSERT_TRUE(v1.SaveCheckpoint(path_).ok());

  std::atomic<bool> writing{true};
  Status writer_status;
  std::thread writer([&] {
    for (int i = 0; i < 30 && writer_status.ok(); ++i) {
      writer_status = (i % 2 == 0 ? v2 : v1).SaveCheckpoint(path_);
    }
    writing = false;
  });
  int loads = 0;
  while (writing || loads < 3) {
    auto loaded = SiloFuse::LoadCheckpoint(path_);
    ASSERT_TRUE(loaded.ok()) << "load " << loads << ": "
                             << loaded.status().ToString();
    ASSERT_TRUE(loaded.Value()->SaveCheckpoint(resave_path).ok());
    const std::string bytes = ReadFileBytes(resave_path);
    EXPECT_TRUE(bytes == v1_bytes || bytes == v2_bytes) << "load " << loads;
    ++loads;
  }
  writer.join();
  EXPECT_TRUE(writer_status.ok()) << writer_status.ToString();

  // No temp file is left next to the checkpoint.
  const std::filesystem::path target(path_);
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    EXPECT_EQ(entry.path().filename().string().rfind(
                  target.filename().string() + ".tmp", 0),
              std::string::npos)
        << "leftover " << entry.path();
  }
  for (const std::string& p : {v1_path, v2_path, resave_path}) {
    std::remove(p.c_str());
  }
}

TEST_F(SiloFuseCheckpointTest, UnfittedModelCannotBeSaved) {
  SiloFuse model;
  EXPECT_EQ(model.SaveCheckpoint(path_).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SiloFuseCheckpointTest, MissingFileFailsToLoad) {
  auto restored = SiloFuse::LoadCheckpoint("/nonexistent/model.ckpt");
  EXPECT_EQ(restored.status().code(), StatusCode::kIOError);
}

TEST_F(SiloFuseCheckpointTest, CorruptFileFailsToLoad) {
  std::ofstream out(path_, std::ios::binary);
  out << "garbage data, not a checkpoint";
  out.close();
  auto restored = SiloFuse::LoadCheckpoint(path_);
  EXPECT_FALSE(restored.ok());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

SiloFuseOptions TinyCheckpointOptions() {
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 40;
  options.base.diffusion_train_steps = 60;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 2;
  return options;
}

// A fitted model is its reload: Save -> Load -> Save gives the same bytes,
// and from there the fitted and the loaded model train and sample alike.
// The denoiser keeps its default dropout, so its training forwards draw
// masks; a layer that kept Fit's Rng would read a dead stack object here
// (ASan with detect_stack_use_after_return reports it).
TEST_F(SiloFuseCheckpointTest, FittedModelTrainsAndSamplesLikeItsReload) {
  const SiloFuseOptions options = TinyCheckpointOptions();
  ASSERT_GT(options.base.diffusion.dropout, 0.0f);
  SiloFuse fitted(options);
  Rng rng(12);
  ASSERT_TRUE(
      fitted.Fit(GeneratePaperDataset("loan", 200, 13).Value(), &rng).ok());
  ASSERT_TRUE(fitted.SaveCheckpoint(path_).ok());
  auto loaded = SiloFuse::LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string resaved_path = path_ + ".resaved";
  ASSERT_TRUE(loaded.Value()->SaveCheckpoint(resaved_path).ok());
  EXPECT_EQ(ReadFileBytes(resaved_path), ReadFileBytes(path_));
  std::remove(resaved_path.c_str());

  constexpr int kSteps = 3;
  GaussianDdpm* fitted_ddpm = fitted.coordinator()->ddpm();
  GaussianDdpm* loaded_ddpm = loaded.Value()->coordinator()->ddpm();
  Rng data_rng(14);
  const Matrix z0 =
      Matrix::RandomNormal(64, fitted_ddpm->config().data_dim, &data_rng);
  Rng train_a(15), train_b(15);
  for (int s = 0; s < kSteps; ++s) {
    EXPECT_EQ(fitted_ddpm->TrainStep(z0, &train_a),
              loaded_ddpm->TrainStep(z0, &train_b))
        << "denoiser step " << s;
  }
  Rng sample_a(16), sample_b(16);
  EXPECT_TRUE(SameBytes(fitted_ddpm->Sample(12, 5, &sample_a),
                        loaded_ddpm->Sample(12, 5, &sample_b)));

  TabularAutoencoder* fitted_ae = fitted.client(0)->autoencoder();
  TabularAutoencoder* loaded_ae = loaded.Value()->client(0)->autoencoder();
  const Table& features = fitted.client(0)->features();
  const Matrix x = fitted_ae->mixed_encoder().Encode(features);
  for (int s = 0; s < kSteps; ++s) {
    EXPECT_EQ(fitted_ae->TrainStep(x, &train_a),
              loaded_ae->TrainStep(x, &train_b))
        << "autoencoder step " << s;
  }
  const Matrix latents = fitted_ae->EncodeTable(features);
  EXPECT_TRUE(SameBytes(latents, loaded_ae->EncodeTable(features)));
  EXPECT_TRUE(SameBytes(fitted_ae->DecoderForward(latents, nullptr),
                        loaded_ae->DecoderForward(latents, nullptr)));
}

// Layer sizes and sampling settings the constructors or the first
// Synthesize would SF_CHECK must fail the load with kIOError instead, so a
// hot-reload of such a file leaves a serving process up. Patches each i32
// config field of both component archives (0 and -1; the enum fields, for
// which 0 is valid, -1 and one past their range), inference_steps, and a
// non-finite sampling_eta.
TEST_F(SiloFuseCheckpointTest, CorruptSizesAndSamplingSettingsAreIOError) {
  SiloFuse model(TinyCheckpointOptions());
  Rng rng(17);
  ASSERT_TRUE(
      model.Fit(GeneratePaperDataset("loan", 120, 18).Value(), &rng).ok());
  ASSERT_TRUE(model.SaveCheckpoint(path_).ok());
  const std::string bytes = ReadFileBytes(path_);
  // Offset just past a tag's characters: its archive's first field.
  const auto after_tag = [&bytes](const std::string& tag) {
    const size_t pos = bytes.find(tag);
    EXPECT_NE(pos, std::string::npos) << tag;
    return pos + tag.size();
  };
  struct Field {
    std::string name;
    size_t offset;
    std::vector<int32_t> bad_values;
  };
  const std::vector<int32_t> sizes = {0, -1};
  std::vector<Field> fields = {
      {"inference_steps", after_tag("SILOFUSE_CKPT_V1"), sizes}};
  const size_t ae = after_tag("tabular_autoencoder");
  fields.push_back({"autoencoder.hidden_dim", ae, sizes});
  fields.push_back({"autoencoder.latent_dim", ae + 4, sizes});
  fields.push_back({"autoencoder.num_layers", ae + 8, sizes});
  const size_t ddpm = after_tag("gaussian_ddpm");
  fields.push_back({"ddpm.data_dim", ddpm, sizes});
  fields.push_back({"ddpm.num_timesteps", ddpm + 4, sizes});
  fields.push_back({"ddpm.schedule", ddpm + 8, {-1, 2}});
  fields.push_back({"ddpm.predict", ddpm + 12, {-1, 2}});
  fields.push_back({"ddpm.time_embed_dim", ddpm + 16, sizes});
  fields.push_back({"ddpm.hidden_dim", ddpm + 20, sizes});
  fields.push_back({"ddpm.num_layers", ddpm + 24, sizes});
  for (const Field& field : fields) {
    for (int32_t value : field.bad_values) {
      std::string patched = bytes;
      std::memcpy(&patched[field.offset], &value, sizeof(value));
      WriteFileBytes(path_, patched);
      EXPECT_EQ(SiloFuse::LoadCheckpoint(path_).status().code(),
                StatusCode::kIOError)
          << field.name << " = " << value;
    }
  }
  const size_t eta_offset = after_tag("SILOFUSE_CKPT_V1") + sizeof(int32_t);
  for (double eta : {std::nan(""), HUGE_VAL}) {
    std::string patched = bytes;
    std::memcpy(&patched[eta_offset], &eta, sizeof(eta));
    WriteFileBytes(path_, patched);
    EXPECT_EQ(SiloFuse::LoadCheckpoint(path_).status().code(),
              StatusCode::kIOError)
        << "sampling_eta = " << eta;
  }
}

}  // namespace
}  // namespace silofuse
