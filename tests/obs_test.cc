#include "obs/metrics.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "distributed/channel.h"
#include "obs/trace.h"
#include "tensor/matrix.h"

namespace silofuse {
namespace obs {
namespace {

/// Every test starts from a clean registry/trace state so suite order does
/// not leak counts between tests.
class ObsTestEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    ClearTraceEvents();
    DisableTracing();
  }
  void TearDown() override {
    DisableTracing();
    ClearTraceEvents();
    SetMetricsExportPath("");
  }
};

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Minimal structural JSON validation: non-empty object with balanced
/// braces/brackets outside of strings. Catches truncated or interleaved
/// writes without needing a JSON library.
bool LooksLikeJsonObject(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool saw_open = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
      saw_open = true;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return saw_open && depth == 0 && !in_string;
}

using ObsMetricsTest = ObsTestEnv;
using ObsTraceTest = ObsTestEnv;
using ObsExportTest = ObsTestEnv;
using ObsChannelTest = ObsTestEnv;

TEST_F(ObsMetricsTest, CounterConcurrentAddsSumExactly) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(),
            static_cast<int64_t>(kThreads) * kAddsPerThread);
}

TEST_F(ObsMetricsTest, RegistryReturnsSameHandleForSameName) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("test.same"), registry.GetCounter("test.same"));
  EXPECT_EQ(registry.GetGauge("test.g"), registry.GetGauge("test.g"));
  EXPECT_NE(registry.GetCounter("test.same"),
            registry.GetCounter("test.other"));
}

TEST_F(ObsMetricsTest, GaugeLastWriteWins) {
  Gauge* gauge = MetricsRegistry::Global().GetGauge("test.gauge");
  gauge->Set(1.5);
  gauge->Set(-2.25);
  EXPECT_DOUBLE_EQ(gauge->Value(), -2.25);
}

TEST_F(ObsMetricsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test.hist", {1.0, 10.0, 100.0});
  // Bucket i counts bounds[i-1] < v <= bounds[i]; last bucket = overflow.
  h->Observe(0.5);    // bucket 0
  h->Observe(1.0);    // bucket 0 (inclusive upper edge)
  h->Observe(1.0001); // bucket 1
  h->Observe(10.0);   // bucket 1
  h->Observe(99.9);   // bucket 2
  h->Observe(100.0);  // bucket 2
  h->Observe(100.5);  // overflow
  const std::vector<int64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h->TotalCount(), 7);
  EXPECT_NEAR(h->TotalSum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 + 100.5,
              1e-9);
}

TEST_F(ObsMetricsTest, HistogramConcurrentObservesCountExactly) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.hist.mt", {10.0, 100.0});
  constexpr int kThreads = 4;
  constexpr int kObsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kObsPerThread; ++i) h->Observe(5.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h->TotalCount(), static_cast<int64_t>(kThreads) * kObsPerThread);
  EXPECT_EQ(h->BucketCounts()[0],
            static_cast<int64_t>(kThreads) * kObsPerThread);
}

TEST_F(ObsMetricsTest, FirstHistogramBoundsWin) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram* first = registry.GetHistogram("test.bounds", {1.0, 2.0});
  Histogram* second = registry.GetHistogram("test.bounds", {5.0});
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST_F(ObsMetricsTest, SnapshotCarriesAllMetricKindsAndValidJson) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("snap.counter")->Add(42);
  registry.GetGauge("snap.gauge")->Set(3.5);
  registry.GetHistogram("snap.hist", {1.0})->Observe(0.5);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("snap.counter"), 42);
  EXPECT_DOUBLE_EQ(snap.gauges.at("snap.gauge"), 3.5);
  EXPECT_EQ(snap.histograms.at("snap.hist").count, 1);
  EXPECT_TRUE(LooksLikeJsonObject(snap.ToJson())) << snap.ToJson();
}

TEST_F(ObsMetricsTest, TrainLoopTelemetryRegistersStepsAndGauges) {
  {
    TrainLoopTelemetry telemetry("test.loop", /*batch_size=*/32);
    for (int s = 0; s < 5; ++s) {
      telemetry.Step({{"loss", 1.0 / (s + 1)}});
    }
  }
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters.at("test.loop.steps"), 5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.loop.loss"), 1.0 / 5);
  EXPECT_GT(snap.gauges.at("test.loop.examples_per_sec"), 0.0);
}

TEST_F(ObsTraceTest, SpansAreNoOpsWhenDisabled) {
  ASSERT_FALSE(TraceEnabled());
  { SF_TRACE_SPAN("disabled.span"); }
  EXPECT_TRUE(SnapshotTraceEvents().empty());
}

TEST_F(ObsTraceTest, NestedSpansRecordOrderingAndContainment) {
  EnableTracing(/*export_path=*/"");
  {
    SF_TRACE_SPAN("outer");
    {
      SF_TRACE_SPAN("inner");
    }
  }
  DisableTracing();

  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer opens first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
}

TEST_F(ObsTraceTest, SpansFromMultipleThreadsGetDistinctTids) {
  EnableTracing(/*export_path=*/"");
  std::thread t1([] { SF_TRACE_SPAN("thread.a"); });
  std::thread t2([] { SF_TRACE_SPAN("thread.b"); });
  t1.join();
  t2.join();
  DisableTracing();

  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(ObsExportTest, WriteTraceJsonProducesChromeLoadableObject) {
  EnableTracing(/*export_path=*/"");
  { SF_TRACE_SPAN("export.span"); }
  DisableTracing();

  const std::string path = TempPath("sf_trace_test.json");
  ASSERT_TRUE(WriteTraceJson(path).ok());
  const std::string text = ReadFile(path);
  EXPECT_TRUE(LooksLikeJsonObject(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("export.span"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsExportTest, EnvGatedMetricsExportWritesValidJson) {
  const std::string path = TempPath("sf_metrics_env_test.json");
  ::setenv("SILOFUSE_METRICS", path.c_str(), /*overwrite=*/1);
  ReinitTelemetryFromEnv();
  ::unsetenv("SILOFUSE_METRICS");
  EXPECT_EQ(MetricsExportPath(), path);

  MetricsRegistry::Global().GetCounter("env.export.counter")->Add(7);
  FlushTelemetry();

  const std::string text = ReadFile(path);
  EXPECT_TRUE(LooksLikeJsonObject(text)) << text;
  EXPECT_NE(text.find("env.export.counter"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsExportTest, InitTelemetryFromArgsStripsRecognizedFlags) {
  const std::string metrics_path = TempPath("sf_metrics_args_test.json");
  std::string flag = "--metrics-out=" + metrics_path;
  char prog[] = "prog";
  char positional[] = "dataset";
  char trailing[] = "42";
  std::vector<char*> argv = {prog, flag.data(), positional, trailing};
  const int argc =
      InitTelemetryFromArgs(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "dataset");
  EXPECT_STREQ(argv[2], "42");
  EXPECT_EQ(MetricsExportPath(), metrics_path);
}

TEST_F(ObsTestEnv, LogSinkReceivesWholeLines) {
  struct CaptureSink : LogSink {
    std::vector<LogRecord> records;
    void Write(const LogRecord& record) override { records.push_back(record); }
  };
  CaptureSink capture;
  LogSink* previous = SetLogSink(&capture);
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  SF_LOG(Info) << "part one " << 42 << " part two";
  SetLogLevel(saved_level);
  SetLogSink(previous);

  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(capture.records[0].message, "part one 42 part two");
  EXPECT_EQ(capture.records[0].level, LogLevel::kInfo);
  EXPECT_STREQ(capture.records[0].file, "obs_test.cc");
}

TEST_F(ObsChannelTest, RoundLogTracksPerRoundSubtotals) {
  Channel channel;
  Rng rng(3);
  const Matrix payload = Matrix::RandomNormal(4, 8, &rng);
  const int64_t wire = MatrixWireBytes(payload);

  channel.BeginRound();
  channel.Send(wire, "embeddings");
  channel.Send(wire, "embeddings");
  channel.BeginRound();
  channel.Send(wire, "gradients");

  const std::vector<ChannelRound> rounds = channel.RoundLog();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].bytes, 2 * wire);
  EXPECT_EQ(rounds[0].messages, 2);
  EXPECT_EQ(rounds[1].bytes, wire);
  EXPECT_EQ(rounds[1].messages, 1);
  EXPECT_GE(rounds[0].wall_ms, 0.0);

  // Cumulative accessors agree with the per-round subtotals.
  EXPECT_EQ(channel.total_bytes(), 3 * wire);
  EXPECT_EQ(channel.message_count(), 3);
  EXPECT_EQ(channel.rounds(), 2);
  EXPECT_EQ(channel.bytes_with_tag("embeddings"), 2 * wire);
}

TEST_F(ObsChannelTest, ConcurrentSendsRecordEveryMessage) {
  Channel channel;
  channel.BeginRound();
  constexpr int kThreads = 4;
  constexpr int kSends = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&channel] {
      for (int i = 0; i < kSends; ++i) {
        channel.Send(/*bytes=*/16, "stress");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(channel.message_count(), kThreads * kSends);
  EXPECT_EQ(channel.total_bytes(), kThreads * kSends * 16);
  const std::vector<ChannelRound> rounds = channel.RoundLog();
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].messages, kThreads * kSends);
}

TEST_F(ObsMetricsTest, HistogramQuantilesInterpolateWithinBuckets) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.q", {10.0, 100.0});
  // 8 observations in (0, 10], 2 in (10, 100].
  for (int i = 0; i < 8; ++i) h->Observe(5.0);
  h->Observe(50.0);
  h->Observe(60.0);
  const HistogramSnapshot snap =
      MetricsRegistry::Global().Snapshot().histograms.at("test.q");
  // p50: rank 5 of 8 inside bucket 0 [0, 10] -> 10 * 5/8 = 6.25.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.50), 6.25);
  // p90: rank 9, the first of the 2 in (10, 100] -> 10 + 90 * 1/2 = 55.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.90), 55.0);
  // q = 0 and q = 1 clamp to the distribution's edges.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 100.0);
}

TEST_F(ObsMetricsTest, HistogramQuantileOverflowAndEmptyEdgeCases) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.q.edge", {10.0});
  HistogramSnapshot empty =
      MetricsRegistry::Global().Snapshot().histograms.at("test.q.edge");
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  // All mass in the overflow bucket: quantiles report the last finite bound
  // (the histogram cannot see beyond it).
  h->Observe(1e6);
  h->Observe(2e6);
  const HistogramSnapshot snap =
      MetricsRegistry::Global().Snapshot().histograms.at("test.q.edge");
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 10.0);
}

TEST_F(ObsMetricsTest, SnapshotJsonCarriesQuantiles) {
  MetricsRegistry::Global().GetHistogram("test.q.json", {10.0})->Observe(5.0);
  const std::string json = MetricsRegistry::Global().Snapshot().ToJson();
  EXPECT_TRUE(LooksLikeJsonObject(json)) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
}

TEST_F(ObsChannelTest, RoundWallTimeIsDeterministicOnVirtualClock) {
  Channel channel;
  VirtualClock clock;
  channel.SetClock(&clock);
  channel.BeginRound();
  clock.SleepFor(15'000'000);  // 15ms of virtual time
  channel.Send(/*bytes=*/64, "t");
  channel.BeginRound();  // closes round 1 at the virtual 15ms mark
  clock.SleepFor(40'000'000);
  channel.Send(/*bytes=*/64, "t");
  const std::vector<ChannelRound> rounds = channel.RoundLog();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_DOUBLE_EQ(rounds[0].wall_ms, 15.0);
  // The open round is timed up to the snapshot instant.
  EXPECT_DOUBLE_EQ(rounds[1].wall_ms, 40.0);
}

}  // namespace
}  // namespace obs
}  // namespace silofuse
