// Deterministic chaos suite for the cross-silo fault-injection harness:
// checksummed wire framing, scripted drop/corrupt/duplicate/delay faults,
// bounded retry + exponential backoff on a virtual clock, K-of-M degraded
// training, and byte-identical synthesis whenever retries recover. Every
// fault trace is seeded/scripted, so the assertions below are exact counts,
// not tolerances — at any SILOFUSE_NUM_THREADS.

#include <gtest/gtest.h>

#include <cstring>

#include "common/clock.h"
#include "common/retry.h"
#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "distributed/e2e_distributed.h"
#include "distributed/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "runtime/parallel_for.h"

namespace silofuse {
namespace {

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

Matrix TestMatrix(int rows, int cols, uint64_t seed = 11) {
  Rng rng(seed);
  return Matrix::RandomNormal(rows, cols, &rng);
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.value(r, c), b.value(r, c))
          << "first mismatch at (" << r << ", " << c << ")";
    }
  }
}

SiloFuseOptions TinyOptions(int clients = 2) {
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 24;
  options.base.autoencoder_steps = 40;
  options.base.diffusion_train_steps = 60;
  options.base.batch_size = 32;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = clients;
  return options;
}

Table SmallData(int rows = 150) {
  return GeneratePaperDataset("loan", rows, /*seed=*/21).Value();
}

// ---- Wire framing ----------------------------------------------------------

TEST(FramingTest, RoundTripAcrossShapesIncludingDegenerate) {
  const std::pair<int, int> shapes[] = {{0, 0}, {0, 5},  {7, 0}, {1, 1},
                                        {3, 4}, {17, 9}, {64, 3}};
  uint64_t seq = 0;
  for (const auto& [rows, cols] : shapes) {
    Matrix m = TestMatrix(rows, cols, /*seed=*/seq + 3);
    const std::vector<uint8_t> frame = EncodeMatrixFrame(m, seq);
    EXPECT_EQ(static_cast<int64_t>(frame.size()), MatrixWireBytes(m))
        << rows << "x" << cols;
    uint64_t got_seq = 0;
    auto decoded = DecodeMatrixFrame(frame, &got_seq);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(got_seq, seq);
    ASSERT_EQ(decoded.Value().rows(), rows);
    ASSERT_EQ(decoded.Value().cols(), cols);
    if (m.size() > 0) {
      EXPECT_EQ(std::memcmp(decoded.Value().data(), m.data(),
                            m.size() * sizeof(float)),
                0);
    }
    ++seq;
  }
}

TEST(FramingTest, ChecksumDetectsAnySingleFlippedByte) {
  // Property: for EVERY byte position (header, payload, checksum) and both a
  // full-byte flip and a single-bit flip, decode must reject the frame.
  for (const auto& [rows, cols] : {std::pair<int, int>{3, 2}, {0, 0}}) {
    Matrix m = TestMatrix(rows, cols, /*seed=*/5);
    const std::vector<uint8_t> frame = EncodeMatrixFrame(m, /*seq=*/9);
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      std::vector<uint8_t> full_flip = frame;
      full_flip[pos] ^= 0xFF;
      EXPECT_FALSE(DecodeMatrixFrame(full_flip).ok())
          << "byte flip at " << pos << " undetected";
      std::vector<uint8_t> bit_flip = frame;
      bit_flip[pos] ^= static_cast<uint8_t>(1u << (pos % 8));
      EXPECT_FALSE(DecodeMatrixFrame(bit_flip).ok())
          << "bit flip at " << pos << " undetected";
    }
  }
}

TEST(FramingTest, RejectsTruncatedAndForeignFrames) {
  Matrix m = TestMatrix(2, 2);
  std::vector<uint8_t> frame = EncodeMatrixFrame(m, 1);
  std::vector<uint8_t> truncated(frame.begin(), frame.end() - 9);
  EXPECT_FALSE(DecodeMatrixFrame(truncated).ok());
  EXPECT_FALSE(DecodeMatrixFrame(std::vector<uint8_t>(8, 0)).ok());
  frame[0] ^= 0x01;  // magic
  EXPECT_FALSE(DecodeMatrixFrame(frame).ok());
}

TEST(FramingTest, RejectsChecksummedHeaderWithDimensionAboveIntMax) {
  // Empty, correctly checksummed frames whose header claims a dimension no
  // Matrix can hold: decode must report an error, not build the matrix.
  const std::pair<uint32_t, uint32_t> shapes[] = {
      {1u << 31, 0}, {0, 1u << 31}, {0xFFFFFFFFu, 0xFFFFFFFFu}};
  for (const auto& [rows, cols] : shapes) {
    std::vector<uint8_t> frame = EncodeMatrixFrame(Matrix(0, 0), /*seq=*/0);
    const size_t checksum_at = frame.size() - 8;
    for (int i = 0; i < 4; ++i) {
      frame[4 + i] = static_cast<uint8_t>(rows >> (8 * i));
      frame[8 + i] = static_cast<uint8_t>(cols >> (8 * i));
    }
    const uint64_t checksum = Fnv1a64(frame.data(), checksum_at);
    for (int i = 0; i < 8; ++i) {
      frame[checksum_at + i] = static_cast<uint8_t>(checksum >> (8 * i));
    }
    auto decoded = DecodeMatrixFrame(frame);
    ASSERT_FALSE(decoded.ok()) << rows << "x" << cols;
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError)
        << rows << "x" << cols << ": " << decoded.status().ToString();
  }
}

// ---- Retry / backoff on the virtual clock ----------------------------------

TEST(ReliableTransferTest, ScriptedDropsRetryWithExactBackoffAndMetrics) {
  const int64_t retries_before = CounterValue("channel.retries");
  const int64_t dropped_before = CounterValue("channel.dropped");

  Channel channel;
  FaultPlan plan(/*seed=*/7);
  FaultSpec spec;
  spec.drop_first = 2;
  plan.SetTagFaults("latents", spec);
  FaultyChannel wire(&channel, &plan);
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 2.0;
  ReliableTransfer transfer(&wire, policy, &clock);

  wire.BeginRound();
  Matrix m = TestMatrix(6, 3);
  auto delivered = transfer.SendMatrix("client_0", "coordinator", m, "latents");
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  EXPECT_EQ(std::memcmp(delivered.Value().data(), m.data(),
                        m.size() * sizeof(float)),
            0);

  // Exactly the injected fault count, everywhere it is reported.
  EXPECT_EQ(transfer.retries(), 2);
  EXPECT_EQ(channel.retries(), 2);
  EXPECT_EQ(CounterValue("channel.retries") - retries_before, 2);
  EXPECT_EQ(CounterValue("channel.dropped") - dropped_before, 2);

  // All three attempts consumed wire bandwidth under the same tag.
  const int64_t frame_bytes = MatrixWireBytes(m);
  EXPECT_EQ(channel.message_count(), 3);
  EXPECT_EQ(channel.total_bytes(), 3 * frame_bytes);
  EXPECT_EQ(channel.redelivered_bytes(), 2 * frame_bytes);

  // Round log carries the retry subtotals.
  const std::vector<ChannelRound> rounds = channel.RoundLog();
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].retries, 2);
  EXPECT_EQ(rounds[0].redelivered_bytes, 2 * frame_bytes);

  // Exponential backoff: 10ms then 20ms, exactly, on the virtual clock.
  EXPECT_EQ(clock.ElapsedNs(), (10 + 20) * 1'000'000);
}

TEST(ReliableTransferTest, RetryPathEmitsAttemptBackoffAndRecvSpans) {
  obs::ClearTraceEvents();
  obs::EnableTracing(/*export_path=*/"");
  Channel channel;
  FaultPlan plan(/*seed=*/7);
  FaultSpec spec;
  spec.drop_first = 2;
  plan.SetTagFaults("latents", spec);
  FaultyChannel wire(&channel, &plan);
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 2.0;
  ReliableTransfer transfer(&wire, policy, &clock);

  wire.BeginRound();
  auto delivered = transfer.SendMatrix("client_0", "coordinator",
                                       TestMatrix(6, 3), "latents");
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  obs::DisableTracing();

  // The retry dance is visible in the trace: one span per delivery attempt,
  // one span per backoff wait (with the scheduled 10ms/20ms durations), and
  // a single receive span once the frame finally decodes.
  int attempts = 0, recvs = 0;
  std::vector<int64_t> backoff_ms;
  for (const obs::TraceEvent& e : obs::SnapshotTraceEvents()) {
    if (e.name == "transfer.attempt") ++attempts;
    if (e.name == "transfer.recv") ++recvs;
    if (e.name == "transfer.backoff") {
      backoff_ms.push_back(e.dur_ns / 1'000'000);
    }
  }
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(recvs, 1);
  ASSERT_EQ(backoff_ms.size(), 2u);
  EXPECT_EQ(backoff_ms[0], 10);
  EXPECT_EQ(backoff_ms[1], 20);
  obs::ClearTraceEvents();
}

TEST(ReliableTransferTest, ExhaustedRetriesSurfaceUnavailable) {
  Channel channel;
  FaultPlan plan(/*seed=*/8);
  FaultSpec spec;
  spec.drop_first = 10;
  plan.SetTagFaults("latents", spec);
  FaultyChannel wire(&channel, &plan);
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 3;
  ReliableTransfer transfer(&wire, policy, &clock);

  auto result =
      transfer.SendMatrix("client_0", "coordinator", TestMatrix(2, 2),
                          "latents");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("after 3 attempts"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(transfer.retries(), 2);       // attempts 2 and 3
  EXPECT_EQ(channel.message_count(), 3);  // all three hit the wire and died
}

TEST(ReliableTransferTest, CorruptionIsDetectedAndRecovered) {
  const int64_t corrupt_before = CounterValue("channel.corrupt_detected");
  Channel channel;
  FaultPlan plan(/*seed=*/9);
  FaultSpec spec;
  spec.corrupt_first = 1;
  plan.SetTagFaults("latents", spec);
  FaultyChannel wire(&channel, &plan);
  VirtualClock clock;
  ReliableTransfer transfer(&wire, {}, &clock);

  Matrix m = TestMatrix(4, 4);
  auto delivered = transfer.SendMatrix("client_0", "coordinator", m, "latents");
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  EXPECT_EQ(std::memcmp(delivered.Value().data(), m.data(),
                        m.size() * sizeof(float)),
            0);
  EXPECT_EQ(transfer.retries(), 1);
  EXPECT_EQ(CounterValue("channel.corrupt_detected") - corrupt_before, 1);
}

TEST(ReliableTransferTest, DuplicateDeliveryIsSuppressedButMetered) {
  const int64_t dup_before = CounterValue("channel.duplicates");
  Channel channel;
  FaultPlan plan(/*seed=*/10);
  FaultSpec spec;
  spec.duplicate_first = 1;
  plan.SetTagFaults("latents", spec);
  FaultyChannel wire(&channel, &plan);
  VirtualClock clock;
  ReliableTransfer transfer(&wire, {}, &clock);

  Matrix m = TestMatrix(5, 2);
  auto delivered = transfer.SendMatrix("client_0", "coordinator", m, "latents");
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(transfer.retries(), 0);  // duplication is not a failure
  EXPECT_EQ(CounterValue("channel.duplicates") - dup_before, 1);
  EXPECT_EQ(channel.message_count(), 2);  // both copies were on the wire
  EXPECT_EQ(channel.redelivered_bytes(), MatrixWireBytes(m));
}

TEST(ReliableTransferTest, DelayWithinBudgetJustAddsLatency) {
  Channel channel;
  FaultPlan plan(/*seed=*/11);
  FaultSpec spec;
  spec.delay_first = 1;
  spec.delay_ms = 50;
  plan.SetTagFaults("latents", spec);
  FaultyChannel wire(&channel, &plan);
  VirtualClock clock;
  RetryPolicy policy;
  policy.attempt_timeout_ms = 100;
  ReliableTransfer transfer(&wire, policy, &clock);

  auto delivered = transfer.SendMatrix("client_0", "coordinator",
                                       TestMatrix(2, 3), "latents");
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(transfer.retries(), 0);
  EXPECT_EQ(clock.ElapsedNs(), 50 * 1'000'000);
}

TEST(ReliableTransferTest, DelayBeyondTimeoutTriggersRetry) {
  const int64_t timeouts_before = CounterValue("channel.timeouts");
  Channel channel;
  FaultPlan plan(/*seed=*/12);
  FaultSpec spec;
  spec.delay_first = 1;
  spec.delay_ms = 50;
  plan.SetTagFaults("latents", spec);
  FaultyChannel wire(&channel, &plan);
  VirtualClock clock;
  RetryPolicy policy;
  policy.attempt_timeout_ms = 20;
  policy.initial_backoff_ms = 10;
  ReliableTransfer transfer(&wire, policy, &clock);

  auto delivered = transfer.SendMatrix("client_0", "coordinator",
                                       TestMatrix(2, 3), "latents");
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(transfer.retries(), 1);
  EXPECT_EQ(CounterValue("channel.timeouts") - timeouts_before, 1);
  // Timeline: 50ms injected delay (attempt 1, times out) + 10ms backoff.
  EXPECT_EQ(clock.ElapsedNs(), (50 + 10) * 1'000'000);
}

TEST(ReliableTransferTest, DownSiloFailsFastWithoutWireTraffic) {
  Channel channel;
  FaultPlan plan(/*seed=*/13);
  plan.DropSiloAtRound("client_0", 1);
  FaultyChannel wire(&channel, &plan);
  VirtualClock clock;
  ReliableTransfer transfer(&wire, {}, &clock);

  wire.BeginRound();  // round 1: the silo is now down
  EXPECT_TRUE(wire.PartyDown("client_0"));
  auto result = transfer.SendMatrix("client_0", "coordinator",
                                    TestMatrix(2, 2), "latents");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(transfer.retries(), 0);       // permanent: no pointless retries
  EXPECT_EQ(channel.message_count(), 0);  // nothing reached the wire
  EXPECT_EQ(clock.ElapsedNs(), 0);
}

TEST(FaultPlanTest, SiloDropoutActivatesAtItsScheduledRound) {
  FaultPlan plan(/*seed=*/14);
  plan.DropSiloAtRound("client_1", 2);
  EXPECT_FALSE(plan.SiloDown("client_1"));  // round 0: still alive
  plan.AdvanceRound();
  EXPECT_FALSE(plan.SiloDown("client_1"));  // round 1
  plan.AdvanceRound();
  EXPECT_TRUE(plan.SiloDown("client_1"));  // round 2: gone
  EXPECT_FALSE(plan.SiloDown("client_0"));
  EXPECT_EQ(plan.current_round(), 2);
}

// ---- Stacked pipeline under injected faults --------------------------------

TEST(SiloFuseFaultTest, ScriptedDropRecoversByteIdenticalToFaultFreeRun) {
  Table data = SmallData();

  // Fault-free baseline.
  SiloFuse clean(TinyOptions(2));
  Rng fit_rng(5);
  ASSERT_TRUE(clean.Fit(data, &fit_rng).ok());
  Rng synth_rng(9);
  Table clean_synth = clean.Synthesize(40, &synth_rng).Value();

  // Same seeds, lossy wire: the first latent upload is dropped 3 times and
  // then recovers within the retry budget.
  const int64_t retries_before = CounterValue("channel.retries");
  FaultPlan plan(/*seed=*/6);
  FaultSpec spec;
  spec.drop_first = 3;
  plan.SetTagFaults("training_latents", spec);
  VirtualClock clock;
  SiloFuseOptions options = TinyOptions(2);
  options.fault.plan = &plan;
  options.fault.clock = &clock;
  options.fault.retry.max_attempts = 5;
  SiloFuse faulty(options);
  Rng faulty_fit_rng(5);
  ASSERT_TRUE(faulty.Fit(data, &faulty_fit_rng).ok());
  Rng faulty_synth_rng(9);
  Table faulty_synth = faulty.Synthesize(40, &faulty_synth_rng).Value();

  // Retries recovered every loss, so synthesis is byte-identical.
  ExpectTablesIdentical(clean_synth, faulty_synth);
  // ... and the retry metric reports exactly the injected fault count.
  EXPECT_EQ(faulty.channel().retries(), 3);
  EXPECT_EQ(CounterValue("channel.retries") - retries_before, 3);
  EXPECT_TRUE(faulty.degraded_silos().empty());
  // The redelivered latent upload is visible in the round log.
  const std::vector<ChannelRound> rounds = faulty.channel().RoundLog();
  ASSERT_GE(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].retries, 3);
}

TEST(SiloFuseFaultTest, ExhaustedRetriesAbortFitWithUnavailable) {
  FaultPlan plan(/*seed=*/15);
  FaultSpec spec;
  spec.drop_first = 99;
  plan.SetTagFaults("training_latents", spec);
  VirtualClock clock;
  SiloFuseOptions options = TinyOptions(2);
  options.fault.plan = &plan;
  options.fault.clock = &clock;
  options.fault.retry.max_attempts = 3;
  SiloFuse model(options);
  Rng rng(5);
  Status s = model.Fit(SmallData(), &rng);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_NE(s.message().find("client_0"), std::string::npos) << s.ToString();
}

TEST(SiloFuseFaultTest, KOfMDegradedTrainingDropsTheDeadSilo) {
  FaultPlan plan(/*seed=*/16);
  plan.DropSiloAtRound("client_1", 1);  // vanishes before the latent upload
  VirtualClock clock;
  SiloFuseOptions options = TinyOptions(2);
  options.fault.plan = &plan;
  options.fault.clock = &clock;
  options.min_clients = 1;  // 1-of-2 is acceptable
  SiloFuse model(options);
  Rng rng(5);
  ASSERT_TRUE(model.Fit(SmallData(), &rng).ok());
  EXPECT_EQ(model.num_clients(), 1);
  ASSERT_EQ(model.degraded_silos().size(), 1u);
  EXPECT_EQ(model.degraded_silos()[0], 1);
  // Synthesis still works over the surviving silo.
  Rng synth_rng(9);
  auto synth = model.Synthesize(20, &synth_rng);
  ASSERT_TRUE(synth.ok()) << synth.status().ToString();
  EXPECT_TRUE(synth.Value().schema() == model.client(0)->schema());

  // The same dropout without K-of-M configured is fatal.
  FaultPlan strict_plan(/*seed=*/17);
  strict_plan.DropSiloAtRound("client_1", 1);
  SiloFuseOptions strict = TinyOptions(2);
  strict.fault.plan = &strict_plan;
  strict.fault.clock = &clock;
  strict.min_clients = 0;
  SiloFuse strict_model(strict);
  Rng strict_rng(5);
  Status s = strict_model.Fit(SmallData(), &strict_rng);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

// Seed-determinism regression: with an active but always-recovering fault
// plan, the distributed stacked pipeline must produce byte-identical
// synthetic tables at 1, 2, and 8 runtime threads.
TEST(SiloFuseFaultTest, RecoveringFaultsAreByteIdenticalAcrossThreadCounts) {
  const int saved_threads = NumThreads();
  Table data = SmallData();
  Table reference;
  for (const int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    FaultPlan plan(/*seed=*/18);  // fresh plan: identical scripted trace
    FaultSpec upload;
    upload.drop_first = 2;
    plan.SetTagFaults("training_latents", upload);
    FaultSpec download;
    download.corrupt_first = 1;
    plan.SetTagFaults("synthetic_latents", download);
    VirtualClock clock;
    SiloFuseOptions options = TinyOptions(2);
    options.fault.plan = &plan;
    options.fault.clock = &clock;
    options.fault.retry.max_attempts = 4;
    SiloFuse model(options);
    Rng fit_rng(5);
    ASSERT_TRUE(model.Fit(data, &fit_rng).ok()) << threads << " threads";
    Rng synth_rng(9);
    Table synth = model.Synthesize(30, &synth_rng).Value();
    EXPECT_EQ(model.channel().retries(), 3);  // 2 drops + 1 corrupt, exactly
    if (reference.num_rows() == 0) {
      reference = std::move(synth);
    } else {
      ExpectTablesIdentical(reference, synth);
    }
  }
  SetNumThreads(saved_threads);
}

// ---- End-to-end (split learning) under injected faults ---------------------

TEST(E2EDistrFaultTest, RecoveringFaultsTrainAndSynthesize) {
  Table data = GeneratePaperDataset("loan", 150, 2).Value();
  PartitionConfig partition;
  partition.num_clients = 2;
  LatentDiffusionConfig config;
  config.autoencoder.hidden_dim = 24;
  config.autoencoder_steps = 8;
  config.diffusion_train_steps = 8;
  config.batch_size = 32;
  config.diffusion.hidden_dim = 24;
  config.diffusion.num_layers = 2;

  FaultPlan plan(/*seed=*/19);
  FaultSpec spec;
  spec.drop_first = 2;  // first two forward activations are lost, then fine
  plan.SetTagFaults("forward_activations", spec);
  VirtualClock clock;
  E2EDistrSynthesizer model(config, partition);
  FaultInjection fault;
  fault.plan = &plan;
  fault.clock = &clock;
  model.set_fault(fault);
  Rng rng(3);
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  EXPECT_EQ(model.channel().retries(), 2);
  auto synth = model.Synthesize(20, &rng);
  ASSERT_TRUE(synth.ok()) << synth.status().ToString();
  EXPECT_EQ(synth.Value().num_rows(), 20);
}

TEST(E2EDistrFaultTest, ExhaustedRetriesAbortTraining) {
  Table data = GeneratePaperDataset("loan", 150, 2).Value();
  PartitionConfig partition;
  partition.num_clients = 2;
  LatentDiffusionConfig config;
  config.autoencoder.hidden_dim = 24;
  config.autoencoder_steps = 8;
  config.diffusion_train_steps = 8;
  config.batch_size = 32;
  config.diffusion.hidden_dim = 24;
  config.diffusion.num_layers = 2;

  FaultPlan plan(/*seed=*/20);
  FaultSpec spec;
  spec.drop_first = 1000;
  plan.SetDefaultFaults(spec);
  VirtualClock clock;
  E2EDistrSynthesizer model(config, partition);
  FaultInjection fault;
  fault.plan = &plan;
  fault.clock = &clock;
  fault.retry.max_attempts = 2;
  model.set_fault(fault);
  Rng rng(3);
  Status s = model.Fit(data, &rng);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

TEST(E2EDistrFaultTest, NoOpFaultPlanIsByteIdenticalToPlainWire) {
  // The reliable path itself (framing, decode, per-send bookkeeping) must
  // not perturb results: an installed-but-silent plan matches the original
  // wire bit for bit.
  Table data = GeneratePaperDataset("loan", 120, 4).Value();
  PartitionConfig partition;
  partition.num_clients = 2;
  LatentDiffusionConfig config;
  config.autoencoder.hidden_dim = 24;
  config.autoencoder_steps = 6;
  config.diffusion_train_steps = 6;
  config.batch_size = 32;
  config.diffusion.hidden_dim = 24;
  config.diffusion.num_layers = 2;

  E2EDistrSynthesizer plain(config, partition);
  Rng rng_a(4);
  ASSERT_TRUE(plain.Fit(data, &rng_a).ok());
  Table plain_synth = plain.Synthesize(15, &rng_a).Value();

  FaultPlan quiet_plan(/*seed=*/21);  // no faults configured
  VirtualClock clock;
  E2EDistrSynthesizer wired(config, partition);
  FaultInjection fault;
  fault.plan = &quiet_plan;
  fault.clock = &clock;
  wired.set_fault(fault);
  Rng rng_b(4);
  ASSERT_TRUE(wired.Fit(data, &rng_b).ok());
  Table wired_synth = wired.Synthesize(15, &rng_b).Value();

  ExpectTablesIdentical(plain_synth, wired_synth);
  EXPECT_EQ(wired.channel().retries(), 0);
  EXPECT_EQ(clock.ElapsedNs(), 0);
}

}  // namespace
}  // namespace silofuse
