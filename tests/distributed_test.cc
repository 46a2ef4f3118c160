#include <gtest/gtest.h>

#include <algorithm>

#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "distributed/channel.h"
#include "distributed/client.h"
#include "distributed/coordinator.h"
#include "distributed/fault.h"
#include "distributed/partition.h"
#include "obs/metrics.h"

namespace silofuse {
namespace {

TEST(ChannelTest, RecordsBytesMessagesRounds) {
  Channel channel;
  Matrix m(10, 4);
  channel.BeginRound();
  const int64_t bytes = MatrixWireBytes(m);
  channel.Send(bytes, "latents");
  channel.Send(100, "misc");
  EXPECT_EQ(channel.total_bytes(), bytes + 100);
  EXPECT_EQ(channel.message_count(), 2);
  EXPECT_EQ(channel.rounds(), 1);
  EXPECT_EQ(channel.bytes_with_tag("latents"), bytes);
  EXPECT_EQ(channel.bytes_with_tag("misc"), 100);
  EXPECT_EQ(channel.bytes_with_tag("unknown"), 0);
}

TEST(ChannelTest, MatrixWireBytesScalesWithPayload) {
  Matrix small(1, 1);
  Matrix big(100, 100);
  EXPECT_LT(MatrixWireBytes(small), MatrixWireBytes(big));
  EXPECT_EQ(MatrixWireBytes(big) - MatrixWireBytes(small),
            static_cast<int64_t>((100 * 100 - 1) * sizeof(float)));
}

TEST(ChannelTest, ResetClearsEverything) {
  Channel channel;
  channel.BeginRound();
  channel.Send(10, "x");
  channel.Reset();
  EXPECT_EQ(channel.total_bytes(), 0);
  EXPECT_EQ(channel.message_count(), 0);
  EXPECT_EQ(channel.rounds(), 0);
}

// Regression: Reset() used to zero only the channel's local totals while the
// global obs counters kept the pre-reset traffic, so channel totals and
// "channel.*" metrics drifted apart after the first refit. Reset must walk
// back exactly this channel's contribution — including reliability subtotals
// and per-tag bytes — and leave traffic metered by other channels alone.
TEST(ChannelTest, ResetWalksBackItsOwnObsCounters) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  Channel other;  // concurrent traffic that Reset() must not disturb
  other.Send(64, "latents");

  const int64_t bytes_before = registry.GetCounter("channel.bytes")->Value();
  const int64_t tag_before =
      registry.GetCounter("channel.bytes.latents")->Value();
  const int64_t messages_before =
      registry.GetCounter("channel.messages")->Value();
  const int64_t rounds_before = registry.GetCounter("channel.rounds")->Value();
  const int64_t retries_before =
      registry.GetCounter("channel.retries")->Value();
  const int64_t redelivered_before =
      registry.GetCounter("channel.redelivered_bytes")->Value();

  Channel channel;
  channel.BeginRound();
  channel.Send(10, "latents");
  channel.Send(7, "misc");
  channel.RecordRetry(10);
  channel.Reset();

  EXPECT_EQ(registry.GetCounter("channel.bytes")->Value(), bytes_before);
  EXPECT_EQ(registry.GetCounter("channel.bytes.latents")->Value(), tag_before);
  EXPECT_EQ(registry.GetCounter("channel.messages")->Value(), messages_before);
  EXPECT_EQ(registry.GetCounter("channel.rounds")->Value(), rounds_before);
  EXPECT_EQ(registry.GetCounter("channel.retries")->Value(), retries_before);
  EXPECT_EQ(registry.GetCounter("channel.redelivered_bytes")->Value(),
            redelivered_before);
  // The other channel's traffic survives the reset.
  EXPECT_EQ(other.total_bytes(), 64);
}

TEST(ChannelTest, ResetClearsReliabilitySubtotals) {
  Channel channel;
  channel.BeginRound();
  channel.Send(10, "x");
  channel.RecordRetry(10);
  channel.RecordRedelivered(10);
  EXPECT_EQ(channel.retries(), 1);
  EXPECT_EQ(channel.redelivered_bytes(), 20);
  channel.Reset();
  EXPECT_EQ(channel.retries(), 0);
  EXPECT_EQ(channel.redelivered_bytes(), 0);
}

// K-of-M degraded mode: when a silo dies before the latent upload, the
// surviving clients' schema/partition bookkeeping must stay consistent —
// the compacted partition is a permutation of the surviving columns in their
// original relative order, and the reassembled table's schema is exactly the
// surviving clients' schemas stitched back together.
TEST(DegradedModeTest, SchemaAndPartitionStayConsistentAfterSiloDrop) {
  Table data = GeneratePaperDataset("loan", 150, /*seed=*/31).Value();
  FaultPlan plan(/*seed=*/41);
  plan.DropSiloAtRound("client_1", 1);
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 24;
  options.base.autoencoder_steps = 30;
  options.base.diffusion_train_steps = 50;
  options.base.batch_size = 32;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = 3;
  options.fault.plan = &plan;
  options.min_clients = 2;

  // Capture the original 3-way split before fitting mutates bookkeeping.
  const auto full_partition =
      PartitionColumns(data.num_columns(), options.partition).Value();

  SiloFuse model(options);
  Rng rng(7);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  ASSERT_EQ(model.num_clients(), 2);
  ASSERT_EQ(model.degraded_silos(), std::vector<int>{1});

  // Surviving original columns, in original order: parts 0 and 2.
  std::vector<int> surviving_cols = full_partition[0];
  surviving_cols.insert(surviving_cols.end(), full_partition[2].begin(),
                        full_partition[2].end());
  std::sort(surviving_cols.begin(), surviving_cols.end());

  // The compacted partition must be a permutation of 0..K-1 (so reassembly
  // works) that preserves each part's internal order.
  const auto& compacted = model.partition();
  ASSERT_EQ(compacted.size(), 2u);
  std::vector<int> flat;
  for (const auto& part : compacted) {
    EXPECT_TRUE(std::is_sorted(part.begin(), part.end()));
    flat.insert(flat.end(), part.begin(), part.end());
  }
  std::sort(flat.begin(), flat.end());
  ASSERT_EQ(flat.size(), surviving_cols.size());
  for (size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i], static_cast<int>(i));
  }

  // Synthesized schema == surviving source columns, original relative order.
  Rng synth_rng(9);
  auto synth = model.Synthesize(20, &synth_rng);
  ASSERT_TRUE(synth.ok()) << synth.status().ToString();
  const Schema& got = synth.Value().schema();
  ASSERT_EQ(got.num_columns(), static_cast<int>(surviving_cols.size()));
  for (size_t i = 0; i < surviving_cols.size(); ++i) {
    EXPECT_EQ(got.column(static_cast<int>(i)).name,
              data.schema().column(surviving_cols[i]).name);
  }
}

TEST(ChannelTest, SummaryMentionsTags) {
  Channel channel;
  channel.Send(10, "latents");
  EXPECT_NE(channel.Summary().find("latents"), std::string::npos);
}

TEST(PartitionTest, EqualSplitWithRemainderToLast) {
  PartitionConfig config;
  config.num_clients = 4;
  auto parts = PartitionColumns(14, config).Value();
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].size(), 3u);
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
  EXPECT_EQ(parts[3].size(), 5u);  // remainder
  // Default is contiguous in schema order.
  EXPECT_EQ(parts[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(parts[3], (std::vector<int>{9, 10, 11, 12, 13}));
}

TEST(PartitionTest, RejectsTooManyClients) {
  PartitionConfig config;
  config.num_clients = 5;
  EXPECT_FALSE(PartitionColumns(4, config).ok());
  config.num_clients = 0;
  EXPECT_FALSE(PartitionColumns(4, config).ok());
}

TEST(PartitionTest, PermutedIsSeededPermutation) {
  PartitionConfig config;
  config.num_clients = 3;
  config.permute = true;
  config.permute_seed = 12343;
  auto a = PartitionColumns(9, config).Value();
  auto b = PartitionColumns(9, config).Value();
  EXPECT_EQ(a, b);  // deterministic
  // Covers all columns exactly once.
  std::vector<int> flat;
  for (const auto& p : a) flat.insert(flat.end(), p.begin(), p.end());
  std::sort(flat.begin(), flat.end());
  for (int i = 0; i < 9; ++i) EXPECT_EQ(flat[i], i);
  // Differs from the unshuffled order with overwhelming probability.
  config.permute = false;
  auto plain = PartitionColumns(9, config).Value();
  EXPECT_NE(a, plain);
}

// Sweep over client counts and permutation flags: partition must always be
// a cover of the column set with non-empty parts.
class PartitionSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PartitionSweep, CoversAllColumnsNonEmpty) {
  PartitionConfig config;
  config.num_clients = std::get<0>(GetParam());
  config.permute = std::get<1>(GetParam());
  const int columns = 24;
  auto parts = PartitionColumns(columns, config).Value();
  ASSERT_EQ(static_cast<int>(parts.size()), config.num_clients);
  std::vector<bool> seen(columns, false);
  for (const auto& p : parts) {
    EXPECT_FALSE(p.empty());
    for (int c : p) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, columns);
      EXPECT_FALSE(seen[c]);
      seen[c] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

INSTANTIATE_TEST_SUITE_P(ClientsByPermutation, PartitionSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Bool()));

TEST(PartitionTest, PartitionTableAndReassembleRoundTrip) {
  Table t(Schema({ColumnSpec::Numeric("a"), ColumnSpec::Numeric("b"),
                  ColumnSpec::Categorical("c", 2),
                  ColumnSpec::Numeric("d")}));
  ASSERT_TRUE(t.AppendRow({1, 2, 0, 4}).ok());
  ASSERT_TRUE(t.AppendRow({5, 6, 1, 8}).ok());
  PartitionConfig config;
  config.num_clients = 2;
  config.permute = true;
  config.permute_seed = 7;
  auto partition = PartitionColumns(t.num_columns(), config).Value();
  auto parts = PartitionTable(t, config).Value();
  auto restored = ReassembleColumns(parts, partition);
  ASSERT_TRUE(restored.ok());
  for (int r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      EXPECT_DOUBLE_EQ(restored.Value().value(r, c), t.value(r, c));
      EXPECT_EQ(restored.Value().schema().column(c).name,
                t.schema().column(c).name);
    }
  }
}

TEST(PartitionTest, ReassembleRejectsBadPartition) {
  Table t(Schema({ColumnSpec::Numeric("a"), ColumnSpec::Numeric("b")}));
  ASSERT_TRUE(t.AppendRow({1, 2}).ok());
  auto parts = std::vector<Table>{t.SelectColumns({0}), t.SelectColumns({1})};
  EXPECT_FALSE(ReassembleColumns(parts, {{0}, {0}}).ok());  // not a permutation
  EXPECT_FALSE(ReassembleColumns(parts, {{0}}).ok());       // size mismatch
}

TEST(SiloClientTest, EncodeDecodeShapes) {
  Rng rng(1);
  Table t(Schema({ColumnSpec::Numeric("x"), ColumnSpec::Categorical("c", 3)}));
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(t.AppendRow({rng.Normal(), static_cast<double>(i % 3)}).ok());
  }
  AutoencoderConfig config;
  config.hidden_dim = 16;
  auto client = SiloClient::Create(2, t, config, &rng).Value();
  EXPECT_EQ(client->id(), 2);
  EXPECT_EQ(client->party_name(), "client_2");
  EXPECT_EQ(client->latent_dim(), 2);  // defaults to column count
  client->TrainAutoencoder(60, 32, &rng);
  Matrix z = client->ComputeLatents();
  EXPECT_EQ(z.rows(), 120);
  EXPECT_EQ(z.cols(), 2);
  Table decoded = client->Decode(z, &rng, /*sample=*/false);
  EXPECT_EQ(decoded.num_rows(), 120);
  EXPECT_TRUE(decoded.schema() == t.schema());
}

TEST(SiloClientTest, RejectsEmptyFeatureSet) {
  Rng rng(2);
  Table empty{Schema{}};
  AutoencoderConfig config;
  EXPECT_FALSE(SiloClient::Create(0, empty, config, &rng).ok());
}

TEST(CoordinatorTest, TrainAndSampleLatents) {
  Rng rng(3);
  GaussianDdpmConfig config;
  config.hidden_dim = 32;
  config.num_layers = 3;
  config.dropout = 0.0f;
  Coordinator coordinator(config);
  EXPECT_FALSE(coordinator.trained());
  EXPECT_FALSE(coordinator.SampleLatents(10, 5, 1.0, &rng).ok());
  Matrix latents = Matrix::RandomNormal(300, 4, &rng, 2.0f, 3.0f);
  ASSERT_TRUE(coordinator.TrainOnLatents(latents, 200, 64, &rng).ok());
  EXPECT_TRUE(coordinator.trained());
  auto samples = coordinator.SampleLatents(500, 15, 1.0, &rng);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.Value().rows(), 500);
  EXPECT_EQ(samples.Value().cols(), 4);
  // De-standardization restores the training scale.
  EXPECT_NEAR(samples.Value().Mean(), 2.0, 0.8);
  // Non-positive rows or steps are a Status on both sampling entry points.
  for (const auto& [rows, steps] :
       {std::pair{0, 15}, std::pair{-1, 15}, std::pair{10, 0},
        std::pair{10, -1}}) {
    EXPECT_EQ(coordinator.SampleLatents(rows, steps, 1.0, &rng).status().code(),
              StatusCode::kInvalidArgument)
        << rows << " rows, " << steps << " steps";
    EXPECT_EQ(coordinator.SampleLatentsCoalesced({4, rows}, {&rng, &rng}, steps,
                                                 1.0)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << rows << " rows, " << steps << " steps";
  }
}

TEST(CoordinatorTest, RejectsTinyLatentSets) {
  Rng rng(4);
  GaussianDdpmConfig config;
  Coordinator coordinator(config);
  Matrix one_row(1, 3);
  EXPECT_FALSE(coordinator.TrainOnLatents(one_row, 10, 8, &rng).ok());
}

}  // namespace
}  // namespace silofuse
