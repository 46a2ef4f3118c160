// Cross-silo trace-context propagation: pack/unpack, the frame-header ride
// (byte-accounting invariance included), ambient-context flow across the
// runtime pool, retry/backoff spans from the reliability layer, the linked
// transfer spans of a fault-free SiloFuse run, and profile aggregation
// determinism.

#include "obs/trace_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "distributed/channel.h"
#include "distributed/fault.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "tensor/matrix.h"

namespace silofuse {
namespace {

class TraceContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::DisableTracing();
    obs::ClearTraceEvents();
  }
  void TearDown() override {
    obs::DisableTracing();
    obs::ClearTraceEvents();
  }
};

Matrix TestMatrix(int rows, int cols) {
  Rng rng(17);
  return Matrix::RandomNormal(rows, cols, &rng);
}

// ---- Packing ---------------------------------------------------------------

TEST_F(TraceContextTest, PackUnpackRoundTrip) {
  obs::TraceContext ctx;
  ctx.run_id = 1234;
  ctx.round = 7;
  ctx.silo_id = 3;
  ctx.tag = obs::InternTraceString("training_latents");
  const obs::TraceContext back = obs::TraceContext::Unpack(ctx.Pack());
  EXPECT_EQ(back.run_id, 1234u);
  EXPECT_EQ(back.round, 7);
  EXPECT_EQ(back.silo_id, 3);
  ASSERT_NE(back.tag, nullptr);
  EXPECT_STREQ(back.tag, "training_latents");
}

TEST_F(TraceContextTest, UnsetContextPacksToZero) {
  obs::TraceContext ctx;
  EXPECT_EQ(ctx.Pack(), 0u);
  EXPECT_FALSE(ctx.set());
  const obs::TraceContext back = obs::TraceContext::Unpack(0);
  EXPECT_EQ(back.run_id, 0u);
  EXPECT_EQ(back.silo_id, -1);
  EXPECT_EQ(back.tag, nullptr);
}

TEST_F(TraceContextTest, PackSaturatesOutOfRangeFields) {
  obs::TraceContext ctx;
  ctx.run_id = (1u << 24) + 5;  // wraps to low 24 bits
  ctx.round = 1 << 20;          // saturates at 0xFFFF
  ctx.silo_id = 1000;           // out of the u8 range: becomes unset
  const obs::TraceContext back = obs::TraceContext::Unpack(ctx.Pack());
  EXPECT_EQ(back.run_id, 5u);
  EXPECT_EQ(back.round, 0xFFFF);
  EXPECT_EQ(back.silo_id, -1);
}

TEST_F(TraceContextTest, InterningIsIdempotentPerContent) {
  const char* a = obs::InternTraceString("some_tag_x");
  const char* b = obs::InternTraceString("some_tag_x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(obs::TraceStringById(obs::TraceStringId(a)), a);
}

// ---- Ambient context -------------------------------------------------------

TEST_F(TraceContextTest, ScopedContextNestsAndRestores) {
  EXPECT_FALSE(obs::CurrentTraceContext().set());
  obs::TraceContext outer;
  outer.run_id = 1;
  outer.round = 2;
  {
    obs::ScopedTraceContext outer_scope(outer);
    EXPECT_EQ(obs::CurrentTraceContext().round, 2);
    obs::TraceContext inner = obs::CurrentTraceContext();
    inner.silo_id = 4;
    {
      obs::ScopedTraceContext inner_scope(inner);
      EXPECT_EQ(obs::CurrentTraceContext().silo_id, 4);
      EXPECT_EQ(obs::CurrentTraceContext().round, 2);
    }
    EXPECT_EQ(obs::CurrentTraceContext().silo_id, -1);
  }
  EXPECT_FALSE(obs::CurrentTraceContext().set());
}

TEST_F(TraceContextTest, ContextCrossesTheThreadPool) {
  obs::EnableTracing("");
  obs::TraceContext ctx;
  ctx.run_id = 77;
  ctx.round = 3;
  ctx.silo_id = 1;
  {
    obs::ScopedTraceContext scope(ctx);
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([] { obs::ContextSpan span("test.pool_work"); });
    }
  }  // destructor drains + joins
  int found = 0;
  for (const obs::TraceEvent& e : obs::SnapshotTraceEvents()) {
    if (e.name != "test.pool_work") continue;
    ++found;
    EXPECT_EQ(e.run_id, 77u);
    EXPECT_EQ(e.round, 3);
    EXPECT_EQ(e.silo_id, 1);
  }
  EXPECT_EQ(found, 8);
}

// ---- Wire propagation ------------------------------------------------------

TEST_F(TraceContextTest, FrameSizeUnchangedByContext) {
  for (const auto& [rows, cols] : {std::pair{1, 1}, {5, 3}, {64, 17}}) {
    const Matrix m = TestMatrix(rows, cols);
    obs::TraceContext ctx;
    ctx.run_id = 99;
    ctx.round = 2;
    ctx.silo_id = 1;
    ctx.tag = obs::InternTraceString("training_latents");
    const auto plain = EncodeMatrixFrame(m, /*seq=*/4);
    const auto stamped = EncodeMatrixFrame(m, /*seq=*/4, ctx);
    // The context rides in previously idle header bytes: same frame size,
    // same MatrixWireBytes, so every Fig. 10 byte count is unchanged.
    EXPECT_EQ(plain.size(), stamped.size());
    EXPECT_EQ(static_cast<int64_t>(stamped.size()), MatrixWireBytes(m));
  }
}

TEST_F(TraceContextTest, ContextSurvivesEncodeDecode) {
  const Matrix m = TestMatrix(6, 4);
  obs::TraceContext ctx;
  ctx.run_id = 321;
  ctx.round = 1;
  ctx.silo_id = 2;
  ctx.tag = obs::InternTraceString("synthetic_latents");
  const auto frame = EncodeMatrixFrame(m, /*seq=*/12, ctx);
  uint64_t seq = 0;
  obs::TraceContext got;
  auto decoded = DecodeMatrixFrame(frame, &seq, &got);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(seq, 12u);
  EXPECT_EQ(got.run_id, 321u);
  EXPECT_EQ(got.round, 1);
  EXPECT_EQ(got.silo_id, 2);
  ASSERT_NE(got.tag, nullptr);
  EXPECT_STREQ(got.tag, "synthetic_latents");
}

TEST_F(TraceContextTest, ContextRoundTripsAcrossFaultyChannelWithFaults) {
  obs::EnableTracing("");
  Channel channel;
  FaultPlan plan(0xfeed);
  FaultSpec spec;
  spec.drop_first = 2;       // first two attempts vanish
  spec.duplicate_first = 1;  // the delivering attempt is duplicated
  plan.SetTagFaults("ctx_tag", spec);
  FaultyChannel wire(&channel, &plan);
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 5;
  ReliableTransfer transfer(&wire, policy, &clock);

  obs::TraceContext ctx;
  ctx.run_id = 555;
  ctx.round = 1;
  ctx.silo_id = 0;
  obs::ScopedTraceContext scope(ctx);
  const Matrix m = TestMatrix(8, 3);
  auto delivered = transfer.SendMatrix("client_0", "coordinator", m, "ctx_tag");
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  EXPECT_EQ(transfer.retries(), 2);

  const auto events = obs::SnapshotTraceEvents();
  // Three delivery attempts, each with its own flow start; exactly one
  // receive closing the delivered attempt's flow; two backoff spans.
  int attempts = 0, recvs = 0, backoffs = 0, flow_starts = 0, flow_ends = 0;
  uint64_t recv_flow = 0, last_attempt_flow = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "transfer.attempt") {
      ++attempts;
      EXPECT_EQ(e.run_id, 555u);
      EXPECT_EQ(e.silo_id, 0);
      ASSERT_NE(e.tag, nullptr);
      EXPECT_STREQ(e.tag, "ctx_tag");
      ASSERT_NE(e.party, nullptr);
      EXPECT_STREQ(e.party, "client_0");
    } else if (e.name == "transfer.recv") {
      ++recvs;
      // The receive span's context was unpacked from the decoded frame —
      // this is the cross-wire propagation the tentpole is about.
      EXPECT_EQ(e.run_id, 555u);
      EXPECT_EQ(e.round, 1);
      EXPECT_EQ(e.silo_id, 0);
      ASSERT_NE(e.tag, nullptr);
      EXPECT_STREQ(e.tag, "ctx_tag");
      ASSERT_NE(e.party, nullptr);
      EXPECT_STREQ(e.party, "coordinator");
    } else if (e.name == "transfer.backoff") {
      ++backoffs;
      EXPECT_EQ(e.run_id, 555u);
    } else if (e.name == "transfer" && e.phase == 's') {
      ++flow_starts;
      last_attempt_flow = e.flow_id;
    } else if (e.name == "transfer" && e.phase == 'f') {
      ++flow_ends;
      recv_flow = e.flow_id;
    }
  }
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(recvs, 1);
  EXPECT_EQ(backoffs, 2);
  EXPECT_EQ(flow_starts, 3);  // dropped attempts leave dangling flow starts
  EXPECT_EQ(flow_ends, 1);
  // The closed flow belongs to the final (delivered) attempt.
  EXPECT_EQ(recv_flow, last_attempt_flow);
}

// The event of `phase` on `tid` recorded inside `span`, or nullptr when
// there is not exactly one.
const obs::TraceEvent* FlowInside(const std::vector<obs::TraceEvent>& events,
                                  const obs::TraceEvent& span, char phase) {
  const obs::TraceEvent* found = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.name != "transfer" || e.phase != phase || e.tid != span.tid ||
        e.start_ns < span.start_ns ||
        e.start_ns > span.start_ns + span.dur_ns) {
      continue;
    }
    if (found != nullptr) return nullptr;
    found = &e;
  }
  return found;
}

TEST_F(TraceContextTest, FaultFreeSiloFuseLinksOneTransferPerSiloAndRound) {
  constexpr int kSilos = 3;
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 24;
  options.base.autoencoder_steps = 10;
  options.base.diffusion_train_steps = 10;
  options.base.batch_size = 32;
  options.base.diffusion.hidden_dim = 16;
  options.base.diffusion.num_layers = 2;
  options.partition.num_clients = kSilos;
  SiloFuse model(options);
  const Table data = GeneratePaperDataset("loan", 120, /*seed=*/9).Value();
  Rng rng(4);
  obs::EnableTracing("");
  ASSERT_TRUE(model.Fit(data, &rng).ok());
  ASSERT_TRUE(model.Synthesize(20, &rng).ok());
  obs::DisableTracing();
  const uint32_t run_id = model.trace_run_id();
  ASSERT_NE(run_id, 0u);

  const auto events = obs::SnapshotTraceEvents();
  // Round 1 uploads training latents, round 2 ships synthetic slices back.
  for (const int round : {1, 2}) {
    for (int silo = 0; silo < kSilos; ++silo) {
      SCOPED_TRACE("round " + std::to_string(round) + " silo " +
                   std::to_string(silo));
      const std::string client = "client_" + std::to_string(silo);
      const std::string sender = round == 1 ? client : "coordinator";
      const std::string receiver = round == 1 ? "coordinator" : client;
      const obs::TraceEvent* attempt = nullptr;
      const obs::TraceEvent* recv = nullptr;
      int attempts = 0, recvs = 0;
      for (const obs::TraceEvent& e : events) {
        if (e.run_id != run_id || e.round != round || e.silo_id != silo) {
          continue;
        }
        if (e.name == "transfer.attempt") {
          ++attempts;
          attempt = &e;
        } else if (e.name == "transfer.recv") {
          ++recvs;
          recv = &e;
        }
      }
      ASSERT_EQ(attempts, 1);
      ASSERT_EQ(recvs, 1);
      ASSERT_NE(attempt->party, nullptr);
      EXPECT_EQ(attempt->party, sender);
      ASSERT_NE(recv->party, nullptr);
      EXPECT_EQ(recv->party, receiver);
      // The receive span's run id, round and silo were unpacked from the
      // frame header (matched above); so was its tag.
      ASSERT_NE(recv->tag, nullptr);
      EXPECT_STREQ(recv->tag,
                   round == 1 ? "training_latents" : "synthetic_latents");
      // One flow joins the pair: it starts inside the attempt span and
      // finishes inside the receive span.
      const obs::TraceEvent* start = FlowInside(events, *attempt, 's');
      const obs::TraceEvent* finish = FlowInside(events, *recv, 'f');
      ASSERT_NE(start, nullptr);
      ASSERT_NE(finish, nullptr);
      EXPECT_NE(start->flow_id, 0u);
      EXPECT_EQ(start->flow_id, finish->flow_id);
      EXPECT_EQ(start->party, sender);
      EXPECT_EQ(finish->party, receiver);
    }
  }

  const obs::ProfileReport report = obs::BuildProfile(events);
  int rounds_seen = 0;
  for (const obs::RoundCritical& r : report.rounds) {
    if (r.round != 1 && r.round != 2) continue;
    ++rounds_seen;
    EXPECT_EQ(r.transfer_attempts, kSilos) << "round " << r.round;
    EXPECT_EQ(r.retries, 0) << "round " << r.round;
  }
  EXPECT_EQ(rounds_seen, 2);
}

// ---- Profile aggregation ---------------------------------------------------

obs::TraceEvent Span(const char* name, int tid, int64_t start_us,
                     int64_t dur_us, const char* party = nullptr,
                     uint32_t run_id = 0, int32_t round = 0) {
  obs::TraceEvent e;
  e.name = name;
  e.tid = tid;
  e.start_ns = start_us * 1000;
  e.dur_ns = dur_us * 1000;
  e.party = party == nullptr ? nullptr : obs::InternTraceString(party);
  e.run_id = run_id;
  e.round = round;
  return e;
}

TEST_F(TraceContextTest, ProfileExclusiveTimeSubtractsDirectChildren) {
  // tid 1: parent [0, 100], child [20, 60], grandchild [30, 40].
  std::vector<obs::TraceEvent> events;
  events.push_back(Span("parent", 1, 0, 100));
  events.push_back(Span("child", 1, 20, 40));
  events.push_back(Span("grandchild", 1, 30, 10));
  const obs::ProfileReport report = obs::BuildProfile(events);
  ASSERT_EQ(report.hotspots.size(), 3u);
  auto row = [&](const std::string& name) -> const obs::HotspotRow& {
    for (const auto& h : report.hotspots) {
      if (h.name == name) return h;
    }
    ADD_FAILURE() << "missing row " << name;
    return report.hotspots[0];
  };
  EXPECT_EQ(row("parent").inclusive_ns, 100'000);
  EXPECT_EQ(row("parent").exclusive_ns, 60'000);  // minus the child only
  EXPECT_EQ(row("child").exclusive_ns, 30'000);   // minus the grandchild
  EXPECT_EQ(row("grandchild").exclusive_ns, 10'000);
}

TEST_F(TraceContextTest, ProfileCriticalPathNamesBoundingPhase) {
  std::vector<obs::TraceEvent> events;
  // Round 1: client_1's encode work dominates; coordinator does a little.
  events.push_back(Span("round.container", 1, 0, 100, nullptr, 9, 1));
  events.push_back(Span("encode", 1, 0, 70, "client_1", 9, 1));
  events.push_back(Span("denoise", 1, 70, 20, "coordinator", 9, 1));
  // Round 2: coordinator dominates.
  events.push_back(Span("denoise", 1, 200, 90, "coordinator", 9, 2));
  events.push_back(Span("encode", 1, 290, 10, "client_0", 9, 2));
  const obs::ProfileReport report = obs::BuildProfile(events);
  ASSERT_EQ(report.rounds.size(), 2u);
  EXPECT_EQ(report.rounds[0].round, 1);
  EXPECT_EQ(report.rounds[0].bounding_party, "client_1");
  EXPECT_EQ(report.rounds[0].bounding_phase, "encode");
  EXPECT_DOUBLE_EQ(report.rounds[0].wall_ms, 0.1);
  EXPECT_EQ(report.rounds[1].round, 2);
  EXPECT_EQ(report.rounds[1].bounding_party, "coordinator");
  EXPECT_EQ(report.rounds[1].bounding_phase, "denoise");
}

TEST_F(TraceContextTest, ProfileAggregationDeterministicAcrossThreadCounts) {
  // The same fixed workload through 1/2/8 worker threads must aggregate to
  // identical span names and counts — tids differ, the rollup must not.
  constexpr int kTasks = 24;
  std::vector<std::pair<std::string, int64_t>> baseline;
  for (const int threads : {1, 2, 8}) {
    obs::ClearTraceEvents();
    obs::EnableTracing("");
    obs::TraceContext ctx;
    ctx.run_id = 13;
    ctx.round = 1;
    {
      obs::ScopedTraceContext scope(ctx);
      ThreadPool pool(threads);
      for (int i = 0; i < kTasks; ++i) {
        pool.Submit([] { obs::ContextSpan span("det.work"); });
      }
    }
    const obs::ProfileReport report =
        obs::BuildProfile(obs::SnapshotTraceEvents());
    std::vector<std::pair<std::string, int64_t>> rollup;
    for (const auto& h : report.hotspots) rollup.emplace_back(h.name, h.count);
    if (baseline.empty()) {
      baseline = rollup;
      // Sanity: both the instrumented task span and the pool's own span
      // appear exactly once per task.
      bool saw_work = false;
      for (const auto& [name, count] : rollup) {
        if (name == "det.work" || name == "pool.task") {
          EXPECT_EQ(count, kTasks) << name;
          saw_work = true;
        }
      }
      EXPECT_TRUE(saw_work);
    } else {
      EXPECT_EQ(rollup, baseline) << "at " << threads << " threads";
    }
    ASSERT_EQ(report.rounds.size(), 1u);
    EXPECT_EQ(report.rounds[0].round, 1);
    obs::DisableTracing();
  }
}

}  // namespace
}  // namespace silofuse
