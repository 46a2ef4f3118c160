#ifndef SILOFUSE_RUNTIME_PARALLEL_FOR_H_
#define SILOFUSE_RUNTIME_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace silofuse {

/// Parallel execution runtime.
///
/// A process-wide thread pool drives `ParallelFor` / `ParallelReduceSum`.
/// Its size is taken from the `SILOFUSE_NUM_THREADS` environment variable on
/// first use (fallback: `std::thread::hardware_concurrency()`), and can be
/// changed at runtime with `SetNumThreads`. A setting of 1 bypasses the pool
/// entirely: every kernel runs on the calling thread exactly as the original
/// serial code did, so single-thread baselines stay bit-exact.
///
/// Determinism contract: chunk boundaries depend only on (begin, end, grain)
/// — never on the thread count — and each chunk writes a disjoint slice of
/// the output (ParallelFor) or its own partial slot combined in fixed chunk
/// order on the caller (ParallelReduceSum). Results are therefore identical
/// for ANY thread count, including 1.

/// Current global thread setting (>= 1). First call reads
/// SILOFUSE_NUM_THREADS.
int NumThreads();

/// Reconfigures the global pool to `num_threads` workers in total (the
/// calling thread participates in parallel regions, so `n` means n-way
/// parallelism). `num_threads` < 1 is clamped to 1; 1 disables the pool.
void SetNumThreads(int num_threads);

/// Parses a SILOFUSE_NUM_THREADS-style string: returns the parsed value
/// clamped to [1, 256], or `fallback` when `value` is null/empty/invalid.
/// Exposed for tests.
int ParseNumThreads(const char* value, int fallback);

/// Invokes `fn(chunk_begin, chunk_end)` over a static partition of
/// [begin, end) into chunks of at least `grain` iterations, possibly in
/// parallel and in any order. `fn` must write only state owned by its range.
/// Exceptions thrown by `fn` are rethrown on the calling thread after all
/// chunks finish. With 1 thread, or when the range fits one chunk, the
/// chunks run inline on the caller.
///
/// Nesting: a region started from inside a chunk of another region — on
/// any thread of the enclosing region, its caller included — runs inline
/// on that thread, in chunk order, and skips the region machinery (no pool
/// task, no `runtime.regions` / `runtime.chunks` count, no
/// `runtime.region` span). The outer region owns the parallelism; its
/// chunks' kernels run serial. A one-chunk region does not count as
/// enclosing: its kernels may still fan out.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// Picks a grain for a range of `n` iterations whose per-iteration cost is
/// roughly `cost_per_iter_ns` nanoseconds, such that one chunk amortizes the
/// measured pool task overhead (p50 ~5-6.5µs enqueue-to-start) by at least
/// ~10x. The result depends only on (n, cost_per_iter_ns) — never on the
/// thread count — so chunk boundaries, and therefore bytes, stay
/// deterministic. Returns a value in [1, max(1, n)].
int64_t AutoGrain(int64_t n, double cost_per_iter_ns);

/// Cost-hinted ParallelFor: replaces fixed grain/threshold magic numbers at
/// call sites. When the whole range is cheaper than two minimum-size chunks
/// the body runs inline on the caller — no region, no pool task, no
/// telemetry counters — which is what keeps sub-100µs ops off the pool.
/// Otherwise dispatches ParallelFor(begin, end, AutoGrain(n, cost), fn).
/// Same determinism contract as ParallelFor.
void ParallelForCost(int64_t begin, int64_t end, double cost_per_iter_ns,
                     const std::function<void(int64_t, int64_t)>& fn);

/// Cost-gated ParallelFor over items of uneven cost (a network's
/// parameters, its layers): runs fn(begin, end) inline when the summed cost
/// `total_cost_ns` is below ParallelForCost's threshold, and otherwise as
/// a region of one item per chunk, which the threads claim one at a time,
/// so a few large items do not end up in one chunk. The decision depends
/// only on (end - begin, total_cost_ns). Same determinism contract as
/// ParallelFor.
void ParallelForItems(int64_t begin, int64_t end, double total_cost_ns,
                      const std::function<void(int64_t, int64_t)>& fn);

/// Sum-reduction companion to ParallelFor: `fn(chunk_begin, chunk_end)`
/// returns a double partial for its chunk; partials are combined in fixed
/// chunk order on the calling thread. Because the chunking is thread-count
/// independent, the result is bit-identical at any thread count — though it
/// may differ in the last ulp from a single straight-line accumulation, so
/// callers keep their serial loop below a size threshold.
double ParallelReduceSum(int64_t begin, int64_t end, int64_t grain,
                         const std::function<double(int64_t, int64_t)>& fn);

}  // namespace silofuse

#endif  // SILOFUSE_RUNTIME_PARALLEL_FOR_H_
