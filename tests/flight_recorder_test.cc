// Tests of the always-on serving flight recorder (src/obs/flight_recorder):
// ring round-trip and overwrite semantics, Perfetto-JSON dump validity
// (parsed back with the repo's own JSON reader), dump-directory plumbing,
// and writer/reader race freedom (this test runs under the TSan CI job).

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lib/json.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace silofuse {
namespace obs {
namespace {

/// Fresh recorder state per test: the recorder is process-global, so each
/// test clears the rings (and re-enables recording) before scripting events.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::Global().SetEnabled(true);
    FlightRecorder::Global().SetDumpDir("");
    FlightRecorder::Global().Clear();
  }
};

TEST_F(FlightRecorderTest, RecordRoundTripsThroughSnapshot) {
  auto& flight = FlightRecorder::Global();
  flight.Record(FlightPhase::kQueue, /*request_id=*/42, /*batch_id=*/7,
                "loan", /*rows=*/12, /*start_ns=*/1000, /*end_ns=*/2000);
  flight.Record(FlightPhase::kSample, 42, 7, "loan", 12, 2000, 5000);

  const std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot is sorted by start time.
  EXPECT_EQ(events[0].phase, FlightPhase::kQueue);
  EXPECT_EQ(events[0].request_id, 42u);
  EXPECT_EQ(events[0].batch_id, 7u);
  EXPECT_EQ(events[0].start_ns, 1000);
  EXPECT_EQ(events[0].end_ns, 2000);
  EXPECT_EQ(events[0].rows, 12);
  EXPECT_STREQ(events[0].deployment, "loan");
  EXPECT_EQ(events[1].phase, FlightPhase::kSample);
  EXPECT_GT(events[1].tid, 0);
}

TEST_F(FlightRecorderTest, RingOverwritesOldestButCountsEverything) {
  auto& flight = FlightRecorder::Global();
  const int64_t before = flight.TotalRecorded();
  const int extra = 100;
  const int total = static_cast<int>(FlightRecorder::kRingSlots) + extra;
  for (int i = 0; i < total; ++i) {
    flight.Record(FlightPhase::kQueue, static_cast<uint64_t>(i + 1), 0,
                  nullptr, 1, i, i + 1);
  }
  EXPECT_EQ(flight.TotalRecorded() - before, total);

  const std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kRingSlots);
  // The survivors are exactly the newest kRingSlots events: the oldest
  // `extra` were overwritten.
  EXPECT_EQ(events.front().request_id, static_cast<uint64_t>(extra + 1));
  EXPECT_EQ(events.back().request_id, static_cast<uint64_t>(total));
}

TEST_F(FlightRecorderTest, DisabledRecorderDropsEvents) {
  auto& flight = FlightRecorder::Global();
  flight.SetEnabled(false);
  const int64_t before = flight.TotalRecorded();
  flight.Record(FlightPhase::kQueue, 1, 0, nullptr, 1, 0, 1);
  EXPECT_EQ(flight.TotalRecorded(), before);
  EXPECT_TRUE(flight.Snapshot().empty());
  flight.SetEnabled(true);
  flight.Record(FlightPhase::kQueue, 1, 0, nullptr, 1, 0, 1);
  EXPECT_EQ(flight.TotalRecorded(), before + 1);
}

TEST_F(FlightRecorderTest, RowsSaturateAtFieldWidth) {
  auto& flight = FlightRecorder::Global();
  flight.Record(FlightPhase::kSample, 1, 0, nullptr, (1 << 24) + 5, 0, 1);
  flight.Record(FlightPhase::kSample, 2, 0, nullptr, -3, 1, 2);
  const std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].rows, (1 << 24) - 1);  // clamped, phase bits intact
  EXPECT_EQ(events[0].phase, FlightPhase::kSample);
  EXPECT_EQ(events[1].rows, 0);  // negative clamps to zero
}

TEST_F(FlightRecorderTest, WriteJsonIsValidPerfettoWithFlowArrows) {
  auto& flight = FlightRecorder::Global();
  // One request walking queue -> sample -> decode, plus an unrelated
  // batch-scoped cache load (request_id 0 must NOT join a flow chain).
  flight.Record(FlightPhase::kCacheLoad, 0, 3, "loan", 0, 500, 900);
  flight.Record(FlightPhase::kQueue, 9, 3, "loan", 4, 1000, 2000);
  flight.Record(FlightPhase::kSample, 9, 3, "loan", 4, 2000, 8000);
  flight.Record(FlightPhase::kDecode, 9, 3, "loan", 4, 8000, 9000);

  const std::string path = ::testing::TempDir() + "/flight_roundtrip.json";
  ASSERT_TRUE(flight.WriteJson(path).ok());
  auto doc = json::ParseFile(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::remove(path.c_str());

  const json::Value* events = doc.Value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int slices = 0, flow_starts = 0, flow_finishes = 0;
  bool saw_process_name = false;
  std::set<std::string> slice_names;
  std::set<double> flow_ids;
  for (const json::Value& event : events->AsArray()) {
    const std::string ph = event.StringOr("ph", "");
    if (ph == "M") {
      saw_process_name = event.StringOr("name", "") == "process_name";
    } else if (ph == "X") {
      ++slices;
      slice_names.insert(event.StringOr("name", ""));
      const json::Value* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_GE(args->NumberOr("rows", -1), 0.0);
    } else if (ph == "s") {
      ++flow_starts;
      flow_ids.insert(event.NumberOr("id", -1));
    } else if (ph == "f") {
      ++flow_finishes;
      // Perfetto binds the finish point to the enclosing slice only with
      // binding point "e" (enclosing); without it the arrow chain breaks.
      EXPECT_EQ(event.StringOr("bp", ""), "e");
      flow_ids.insert(event.NumberOr("id", -1));
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_EQ(slices, 4);
  EXPECT_TRUE(slice_names.count("serve.queue"));
  EXPECT_TRUE(slice_names.count("serve.sample"));
  EXPECT_TRUE(slice_names.count("serve.decode"));
  EXPECT_TRUE(slice_names.count("serve.cache_load"));
  // Two hops (queue->sample, sample->decode): two distinct flow ids, each
  // with exactly one start and one finish.
  EXPECT_EQ(flow_starts, 2);
  EXPECT_EQ(flow_finishes, 2);
  EXPECT_EQ(flow_ids.size(), 2u);
}

TEST_F(FlightRecorderTest, DumpRequiresConfiguredDirectory) {
  auto& flight = FlightRecorder::Global();
  flight.Record(FlightPhase::kQueue, 1, 0, nullptr, 1, 0, 1);
  auto no_dir = flight.Dump("test");
  ASSERT_FALSE(no_dir.ok());
  EXPECT_EQ(no_dir.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(flight.RecentDumps().empty());

  flight.SetDumpDir(::testing::TempDir());
  auto dumped = flight.Dump("test");
  ASSERT_TRUE(dumped.ok()) << dumped.status().ToString();
  EXPECT_NE(dumped.Value().find("flight_test_"), std::string::npos);
  EXPECT_TRUE(json::ParseFile(dumped.Value()).ok());
  ASSERT_EQ(flight.RecentDumps().size(), 1u);
  EXPECT_EQ(flight.RecentDumps()[0], dumped.Value());
  std::remove(dumped.Value().c_str());
  flight.SetDumpDir("");
}

TEST_F(FlightRecorderTest, ClearDropsEventsAndDumpHistory) {
  auto& flight = FlightRecorder::Global();
  flight.SetDumpDir(::testing::TempDir());
  flight.Record(FlightPhase::kQueue, 1, 0, nullptr, 1, 0, 1);
  auto dumped = flight.Dump("clear");
  ASSERT_TRUE(dumped.ok());
  std::remove(dumped.Value().c_str());
  flight.Clear();
  EXPECT_TRUE(flight.Snapshot().empty());
  EXPECT_TRUE(flight.RecentDumps().empty());
  // The ring keeps working after a Clear (generations stay monotone).
  flight.Record(FlightPhase::kQueue, 2, 0, nullptr, 1, 5, 6);
  ASSERT_EQ(flight.Snapshot().size(), 1u);
  EXPECT_EQ(flight.Snapshot()[0].request_id, 2u);
  flight.SetDumpDir("");
}

TEST_F(FlightRecorderTest, ConcurrentWritersAndSnapshotReadersAreRaceFree) {
  auto& flight = FlightRecorder::Global();
  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 20000;
  std::atomic<bool> stop{false};

  std::thread reader([&flight, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightEvent& event : flight.Snapshot()) {
        // Every surfaced event must be internally consistent — a torn
        // read would surface a mixed-generation (start > end) slot.
        ASSERT_LE(event.start_ns, event.end_ns);
        ASSERT_NE(event.phase, FlightPhase::kNone);
      }
    }
  });
  // Every writer holds its ring (from its first event) before any goes on,
  // so each writes its own: an exited writer would hand its ring to a
  // later one.
  std::atomic<int> holding{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &flight, &holding] {
      for (int i = 0; i < kEventsPerWriter; ++i) {
        const int64_t t = static_cast<int64_t>(i) * 10;
        flight.Record(FlightPhase::kSample,
                      static_cast<uint64_t>(w * kEventsPerWriter + i + 1),
                      1, "concurrent", 8, t, t + 5);
        if (i == 0) {
          holding.fetch_add(1);
          while (holding.load() < kWriters) std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Quiescent now: every ring is fully stable, so the snapshot returns one
  // full ring per writer thread (plus nothing from this thread).
  const std::vector<FlightEvent> events = flight.Snapshot();
  EXPECT_EQ(events.size(), kWriters * FlightRecorder::kRingSlots);
}

TEST_F(FlightRecorderTest, ExitedThreadsHandTheirRingsOn) {
  auto& flight = FlightRecorder::Global();
  const size_t rings_before = flight.RingCount();
  constexpr int kThreads = 64;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([i, &flight] {
      flight.Record(FlightPhase::kSample, static_cast<uint64_t>(i + 1), 1,
                    "short-lived", 4, 10 * i, 10 * i + 5);
    }).join();
  }
  // Each thread exits before the next starts, so they share one ring at
  // most (none when an earlier test left a free one).
  EXPECT_LE(flight.RingCount(), rings_before + 1);

  // The exited threads' events are still there, each under its own tid.
  const std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads));
  std::set<int> tids;
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(events[i].request_id, static_cast<uint64_t>(i + 1));
    tids.insert(events[i].tid);
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

}  // namespace
}  // namespace obs
}  // namespace silofuse
