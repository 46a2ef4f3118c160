#include "runtime/parallel_for.h"

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/matrix.h"

namespace silofuse {
namespace {

// Restores the global thread setting when a test exits, so the suite order
// cannot leak one test's pool configuration into the next.
class ThreadSettingGuard {
 public:
  ThreadSettingGuard() : saved_(NumThreads()) {}
  ~ThreadSettingGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

int64_t RegionCount() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  auto it = snap.counters.find("runtime.regions");
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(ThreadPoolTest, StartStopRunsAllSubmittedTasks) {
  for (int workers : {1, 2, 4}) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(workers);
      EXPECT_EQ(pool.num_threads(), workers);
      for (int i = 0; i < 100; ++i) {
        pool.Submit([&ran] { ran.fetch_add(1); });
      }
      // ~ThreadPool drains the queue before joining.
    }
    EXPECT_EQ(ran.load(), 100);
  }
}

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlock) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&pool, &ran] {
        EXPECT_TRUE(ThreadPool::InWorker());
        pool.Submit([&ran] { ran.fetch_add(1); });
      });
    }
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadSettingGuard guard;
  for (int threads : {1, 2, 4}) {
    SetNumThreads(threads);
    std::vector<int> hits(10000, 0);
    ParallelFor(0, static_cast<int64_t>(hits.size()), 16,
                [&hits](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i) hits[i] += 1;
                });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10000)
        << "threads=" << threads;
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelForTest, EmptyAndNegativeRangesAreNoOps) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  ParallelFor(7, 3, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SingleThreadSettingBypassesPool) {
  ThreadSettingGuard guard;
  SetNumThreads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  // Large range: would certainly fan out if a pool were in play.
  ParallelFor(0, 1 << 20, 1, [&](int64_t, int64_t) {
    seen.push_back(std::this_thread::get_id());  // safe: serial by contract
  });
  ASSERT_FALSE(seen.empty());
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelForTest, ParseNumThreadsHandlesEnvValues) {
  EXPECT_EQ(ParseNumThreads(nullptr, 7), 7);
  EXPECT_EQ(ParseNumThreads("", 7), 7);
  EXPECT_EQ(ParseNumThreads("abc", 7), 7);
  EXPECT_EQ(ParseNumThreads("0", 7), 7);
  EXPECT_EQ(ParseNumThreads("-3", 7), 7);
  EXPECT_EQ(ParseNumThreads("4x", 7), 7);
  EXPECT_EQ(ParseNumThreads("1", 7), 1);
  EXPECT_EQ(ParseNumThreads("16", 7), 16);
  EXPECT_EQ(ParseNumThreads("100000", 7), 256);  // clamped
}

TEST(ParallelForTest, NestedCallFromChunkRunsInlineWithoutDeadlock) {
  ThreadSettingGuard guard;
  SetNumThreads(4);
  std::vector<int> hits(4096, 0);
  ParallelFor(0, 64, 1, [&hits](int64_t lo, int64_t hi) {
    for (int64_t outer = lo; outer < hi; ++outer) {
      // Inner region over this outer index's disjoint slice.
      ParallelFor(outer * 64, (outer + 1) * 64, 1,
                  [&hits](int64_t l2, int64_t h2) {
                    for (int64_t i = l2; i < h2; ++i) hits[i] += 1;
                  });
    }
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ParallelForTest, RegionNestedInCallersChunkRunsInlineUncounted) {
  ThreadSettingGuard guard;
  SetNumThreads(4);
  const std::thread::id caller = std::this_thread::get_id();
  // The caller claims chunks of its own region alongside the pool; a region
  // nested in one of its chunks must stay on the caller too. Which thread
  // claims which chunk is up to the scheduler, so repeat until the caller
  // has run at least one.
  int outer_regions = 0;
  int caller_chunks = 0;
  std::atomic<int> inner_off_thread{0};
  const int64_t regions_before = RegionCount();
  while (caller_chunks == 0 && outer_regions < 100) {
    ++outer_regions;
    std::vector<int> hits(64 * 64, 0);
    ParallelFor(0, 64, 1, [&](int64_t lo, int64_t hi) {
      const std::thread::id self = std::this_thread::get_id();
      if (self == caller) ++caller_chunks;  // only the caller writes it
      for (int64_t outer = lo; outer < hi; ++outer) {
        // Large enough to fan out if it were an outermost region.
        ParallelFor(outer * 64, (outer + 1) * 64, 1,
                    [&](int64_t l2, int64_t h2) {
                      if (std::this_thread::get_id() != self) {
                        inner_off_thread.fetch_add(1);
                      }
                      for (int64_t i = l2; i < h2; ++i) hits[i] += 1;
                    });
      }
    });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
  EXPECT_GT(caller_chunks, 0);
  EXPECT_EQ(inner_off_thread.load(), 0);
  // Only the outer regions went through the region machinery.
  EXPECT_EQ(RegionCount(), regions_before + outer_regions);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadSettingGuard guard;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    EXPECT_THROW(
        ParallelFor(0, 10000, 1,
                    [](int64_t lo, int64_t) {
                      if (lo == 0) throw std::runtime_error("chunk failed");
                    }),
        std::runtime_error)
        << "threads=" << threads;
    // The pool must stay usable after an exception.
    std::atomic<int64_t> total{0};
    ParallelFor(0, 1000, 1, [&total](int64_t lo, int64_t hi) {
      total.fetch_add(hi - lo);
    });
    EXPECT_EQ(total.load(), 1000);
  }
}

TEST(ParallelReduceSumTest, MatchesSerialSumExactlyAtAnyThreadCount) {
  ThreadSettingGuard guard;
  std::vector<double> values(1 << 17);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(static_cast<double>(i)) * 1e-3;
  }
  const auto chunk_sum = [&values](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += values[i];
    return acc;
  };
  SetNumThreads(1);
  const double serial =
      ParallelReduceSum(0, static_cast<int64_t>(values.size()), 4096, chunk_sum);
  for (int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    const double parallel = ParallelReduceSum(
        0, static_cast<int64_t>(values.size()), 4096, chunk_sum);
    // Bit-identical, not just close: chunking is thread-count independent
    // and partials combine in fixed order.
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(RuntimeTest, SetNumThreadsClampsAndReports) {
  ThreadSettingGuard guard;
  SetNumThreads(-5);
  EXPECT_EQ(NumThreads(), 1);
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
}

// ---- Cost-based grain selection.

TEST(AutoGrainTest, SizesChunksToTheMinimumCostFloor) {
  // 50us floor / 1000 ns per iter -> 50 iterations per chunk.
  EXPECT_EQ(AutoGrain(1 << 20, 1000.0), 50);
  // Cheap elements: 0.5 ns/iter -> 100k iterations per chunk.
  EXPECT_EQ(AutoGrain(1 << 20, 0.5), 100000);
  // Expensive rows: one row already clears the floor -> grain 1.
  EXPECT_EQ(AutoGrain(1 << 20, 1e6), 1);
  // Grain never exceeds the range.
  EXPECT_EQ(AutoGrain(10, 0.5), 10);
  // Degenerate ranges.
  EXPECT_EQ(AutoGrain(0, 1.0), 1);
  EXPECT_EQ(AutoGrain(1, 1.0), 1);
  // Non-positive cost is clamped, not UB.
  EXPECT_GE(AutoGrain(100, 0.0), 1);
}

TEST(AutoGrainTest, GrainIsThreadCountIndependent) {
  ThreadSettingGuard guard;
  std::vector<int64_t> grains;
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    grains.push_back(AutoGrain(1 << 16, 7.5));
  }
  EXPECT_EQ(grains[0], grains[1]);
  EXPECT_EQ(grains[0], grains[2]);
}

TEST(ParallelForCostTest, SmallRangesRunInlineWithoutARegion) {
  ThreadSettingGuard guard;
  SetNumThreads(8);  // a pool is available — it must not be used
  const std::thread::id caller = std::this_thread::get_id();
  const int64_t regions_before = RegionCount();
  // 1000 iterations x 10 ns = 10us, far below the two-minimum-chunks
  // threshold: must run inline on the caller with no region bookkeeping.
  int64_t covered = 0;
  ParallelForCost(0, 1000, 10.0, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += hi - lo;
  });
  EXPECT_EQ(covered, 1000);
  // Small matrix ops ride the same dispatch: none of these may fan out.
  Matrix small(8, 8, 1.5f);
  (void)small.Add(small);
  small.ScaleInPlace(2.0f);
  (void)small.Transpose();
  (void)small.ColSum();
  EXPECT_EQ(RegionCount(), regions_before)
      << "a small-range ParallelForCost or small matrix op fanned out";
}

TEST(ParallelForCostTest, LargeTotalCostFansOutOnThePool) {
  ThreadSettingGuard guard;
  SetNumThreads(4);
  const int64_t regions_before = RegionCount();
  std::atomic<int64_t> covered{0};
  // 1M iterations x 10 ns = 10ms of work: must create a parallel region.
  ParallelForCost(0, 1 << 20, 10.0, [&](int64_t lo, int64_t hi) {
    covered.fetch_add(hi - lo);
  });
  EXPECT_EQ(covered.load(), 1 << 20);
  EXPECT_EQ(RegionCount(), regions_before + 1);
}

}  // namespace
}  // namespace silofuse
