#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace silofuse {
namespace {

// Hard cap on pool size; protects against absurd env values.
constexpr int kMaxThreadSetting = 256;
// Minimum useful chunk cost in nanoseconds. The pool's measured
// enqueue-to-start latency is p50 ~5-6.5µs (runtime.pool.task_us histogram,
// reported by sf_bench --trace 1); a chunk must carry ~10x that in real work
// before fan-out wins. AutoGrain sizes chunks to this floor and ParallelForCost
// stays serial below two such chunks.
constexpr double kMinChunkCostNs = 50'000.0;
// True while this thread runs chunks of a parallel region (as its caller or
// as a pool worker); a region started then runs inline, unaccounted.
thread_local bool tls_in_region = false;
// Static cap on chunks per region. Together with `grain` this fully
// determines chunk boundaries from the range alone, never from the thread
// count — the root of the determinism contract in parallel_for.h.
constexpr int64_t kMaxChunks = 64;

std::mutex g_pool_mu;
int g_num_threads = 0;  // 0 = not yet initialized from the environment
std::unique_ptr<ThreadPool> g_pool;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Applies a new setting under g_pool_mu. A setting of 1 drops the pool; a
// setting of n >= 2 keeps n-1 workers because the calling thread always
// participates in parallel regions.
void ReconfigureLocked(int num_threads) {
  num_threads = std::max(1, std::min(num_threads, kMaxThreadSetting));
  if (num_threads == g_num_threads) return;
  g_pool.reset();
  if (num_threads > 1) {
    g_pool = std::make_unique<ThreadPool>(num_threads - 1);
  }
  g_num_threads = num_threads;
}

// Returns the pool (may be null) and the current setting, initializing from
// SILOFUSE_NUM_THREADS on first use.
ThreadPool* GetPool(int* num_threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_num_threads == 0) {
    ReconfigureLocked(
        ParseNumThreads(std::getenv("SILOFUSE_NUM_THREADS"), HardwareThreads()));
  }
  *num_threads = g_num_threads;
  return g_pool.get();
}

// Shared state of one parallel region. Runners (pool tasks + the caller)
// claim chunk indices from an atomic cursor; the caller waits until every
// chunk has finished. Held by shared_ptr so a runner that wakes up after
// the region completed only observes an empty cursor and exits.
struct Region {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t chunk = 1;
  int64_t num_chunks = 0;
  std::function<void(int64_t, int64_t, int64_t)> chunk_fn;  // (idx, lo, hi)

  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;
  std::mutex error_mu;

  void RunChunks() {
    int64_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < num_chunks) {
      const int64_t lo = begin + i * chunk;
      const int64_t hi = std::min(end, lo + chunk);
      try {
        chunk_fn(i, lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] {
      return done.load(std::memory_order_acquire) == num_chunks;
    });
  }
};

int64_t ChunkSize(int64_t n, int64_t grain) {
  grain = std::max<int64_t>(1, grain);
  return std::max(grain, (n + kMaxChunks - 1) / kMaxChunks);
}

// Marks the current thread as running region chunks until destroyed.
class InRegionScope {
 public:
  InRegionScope() : prev_(tls_in_region) { tls_in_region = true; }
  ~InRegionScope() { tls_in_region = prev_; }
  InRegionScope(const InRegionScope&) = delete;
  InRegionScope& operator=(const InRegionScope&) = delete;

 private:
  bool prev_;
};

// Runs chunks [0, num_chunks) inline on the calling thread, in index order.
void RunChunksInline(int64_t begin, int64_t end, int64_t chunk,
                     int64_t num_chunks,
                     const std::function<void(int64_t, int64_t, int64_t)>&
                         chunk_fn) {
  InRegionScope in_region;
  for (int64_t i = 0; i < num_chunks; ++i) {
    const int64_t lo = begin + i * chunk;
    chunk_fn(i, lo, std::min(end, lo + chunk));
  }
}

// Runs chunk_fn over the static partition, in parallel when the pool is
// available and the region has more than one chunk. Returns after every
// chunk finished; rethrows the first chunk exception on the caller.
void RunRegion(int64_t begin, int64_t end, int64_t grain,
               std::function<void(int64_t, int64_t, int64_t)> chunk_fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int64_t chunk = ChunkSize(n, grain);
  const int64_t num_chunks = (n + chunk - 1) / chunk;

  // Nested region: every thread of the enclosing region (its caller
  // included) is already busy with one of its chunks, so this one runs
  // inline, uncounted and untraced. Waiting on the pool from here could
  // deadlock, and fanning out would only contend with sibling chunks.
  if (tls_in_region || ThreadPool::InWorker()) {
    RunChunksInline(begin, end, chunk, num_chunks, chunk_fn);
    return;
  }

  // Region-granular telemetry only: one counter add (and, when tracing is
  // on, one span) per outermost parallel region, never per chunk or per
  // element.
  static obs::Counter* region_counter =
      obs::MetricsRegistry::Global().GetCounter("runtime.regions");
  static obs::Counter* chunk_counter =
      obs::MetricsRegistry::Global().GetCounter("runtime.chunks");
  region_counter->Increment();
  chunk_counter->Add(num_chunks);
  SF_TRACE_SPAN("runtime.region");

  // A lone chunk is not a fan-out: the kernels inside it may still use
  // the pool.
  if (num_chunks == 1) {
    chunk_fn(0, begin, end);
    return;
  }
  int num_threads = 1;
  ThreadPool* pool = GetPool(&num_threads);
  // Single-thread setting: the chunks run inline, in index order, and
  // regions nested in them count as nested at every thread count.
  if (pool == nullptr) {
    RunChunksInline(begin, end, chunk, num_chunks, chunk_fn);
    return;
  }

  auto region = std::make_shared<Region>();
  region->begin = begin;
  region->end = end;
  region->chunk = chunk;
  region->num_chunks = num_chunks;
  region->chunk_fn = std::move(chunk_fn);
  const int runners = static_cast<int>(
      std::min<int64_t>(pool->num_threads(), num_chunks - 1));
  for (int i = 0; i < runners; ++i) {
    pool->Submit([region] { region->RunChunks(); });
  }
  {
    InRegionScope in_region;
    region->RunChunks();  // the caller participates
  }
  region->Wait();
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(region->error_mu);
    error = region->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

int ParseNumThreads(const char* value, int fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == nullptr || *end != '\0' || parsed < 1) return fallback;
  return static_cast<int>(std::min<long>(parsed, kMaxThreadSetting));
}

int NumThreads() {
  int num_threads = 1;
  GetPool(&num_threads);
  return num_threads;
}

void SetNumThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  ReconfigureLocked(num_threads);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (end - begin <= 0) return;
  // The serial bypass in RunRegion still walks chunk-by-chunk; for range
  // functions that is equivalent to one fn(begin, end) call because every
  // chunk owns a disjoint slice, so no special-casing is needed here.
  RunRegion(begin, end, grain,
            [&fn](int64_t /*idx*/, int64_t lo, int64_t hi) { fn(lo, hi); });
}

int64_t AutoGrain(int64_t n, double cost_per_iter_ns) {
  if (n <= 1) return 1;
  const double cost = std::max(cost_per_iter_ns, 1e-3);
  // ceil(kMinChunkCostNs / cost) without drifting through double for the
  // common small results; clamp to the range size.
  double iters = kMinChunkCostNs / cost;
  if (iters <= 1.0) return 1;
  if (iters >= static_cast<double>(n)) return n;
  return static_cast<int64_t>(iters + 0.999999);
}

void ParallelForCost(int64_t begin, int64_t end, double cost_per_iter_ns,
                     const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  // Below two minimum-size chunks there is nothing to split: run inline
  // without touching the region machinery (or its counters) at all. The
  // threshold is a function of (n, cost) only, so the serial/parallel
  // decision — and therefore chunking — is thread-count independent.
  const double total_cost = static_cast<double>(n) * cost_per_iter_ns;
  if (total_cost < 2.0 * kMinChunkCostNs) {
    fn(begin, end);
    return;
  }
  ParallelFor(begin, end, AutoGrain(n, cost_per_iter_ns), fn);
}

double ParallelReduceSum(int64_t begin, int64_t end, int64_t grain,
                         const std::function<double(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return 0.0;
  const int64_t chunk = ChunkSize(n, grain);
  const int64_t num_chunks = (n + chunk - 1) / chunk;
  std::vector<double> partials(static_cast<size_t>(num_chunks), 0.0);
  RunRegion(begin, end, grain,
            [&fn, &partials](int64_t idx, int64_t lo, int64_t hi) {
              partials[static_cast<size_t>(idx)] = fn(lo, hi);
            });
  // Fixed chunk order: the combination sequence is a function of the range
  // alone, so the sum is bit-identical at any thread count.
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

}  // namespace silofuse
