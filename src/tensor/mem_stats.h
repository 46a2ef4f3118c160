#ifndef SILOFUSE_TENSOR_MEM_STATS_H_
#define SILOFUSE_TENSOR_MEM_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace silofuse {
namespace memstats {

/// Matrix allocation accounting, off by default. When enabled (the
/// SILOFUSE_MEM_STATS environment variable, SetEnabled, or ReinitFromEnv),
/// every Matrix buffer allocation/free updates process-wide live/peak byte
/// counters that obs::FlushTelemetry publishes as `mem.matrix.*` gauges and
/// sf_bench reports as `matrix.peak_mb`. Disabled cost: one
/// relaxed atomic load per Matrix allocation.

bool Enabled();

/// Flips accounting on/off. Enabling resets the counters so live bytes
/// count only buffers allocated from this point on (buffers allocated
/// before enabling free without going negative — see LiveBytes).
void SetEnabled(bool enabled);

/// Applies SILOFUSE_MEM_STATS (EnvFlag vocabulary; unset or not a flag word
/// = off). The normal lazy env read runs
/// once at static init; tests that setenv() later call this.
void ReinitFromEnv();

void RecordAlloc(size_t bytes);
void RecordFree(size_t bytes);

/// Bytes currently allocated to Matrix buffers (clamped at 0: frees of
/// buffers that predate SetEnabled(true) are ignored in the clamp).
int64_t LiveBytes();
/// High-water mark of LiveBytes since the last enable/reset.
int64_t PeakBytes();
/// Number of Matrix buffer allocations since the last enable/reset.
int64_t AllocCount();

void Reset();

/// std::allocator<T> plus RecordAlloc/RecordFree bookkeeping; the element
/// type of Matrix's backing vector.
template <typename T>
struct TrackingAllocator {
  using value_type = T;

  TrackingAllocator() = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    RecordAlloc(n * sizeof(T));
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, size_t n) {
    RecordFree(n * sizeof(T));
    std::allocator<T>().deallocate(p, n);
  }

  bool operator==(const TrackingAllocator&) const { return true; }
  bool operator!=(const TrackingAllocator&) const { return false; }
};

}  // namespace memstats
}  // namespace silofuse

#endif  // SILOFUSE_TENSOR_MEM_STATS_H_
