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

/// Matrix buffers of at least this many bytes map their own pages and
/// unmap them when freed, so a large buffer is resident only while it
/// lives. In malloc's heap a freed large block stays resident, and where
/// the next one fits depends on the heap's layout, which varies with
/// which pool runner (the caller included) takes which sampling tile: the
/// pipeline's peak RSS moved by up to ~1 MB between runs of one seed.
/// Training batches (128 x 128 floats, 64 KiB) stay in malloc.
inline constexpr size_t kMappedBufferBytes = size_t{256} << 10;

/// The Matrix buffer allocator: `bytes` of storage, mapped from
/// kMappedBufferBytes up and from malloc below. FreeBuffer takes a block
/// back with the size it was allocated with.
void* AllocateBuffer(size_t bytes);
void FreeBuffer(void* p, size_t bytes);

/// Hands the free pages of malloc's heaps back to the kernel (glibc
/// malloc_trim; a no-op with other C libraries). For the end of a long
/// phase that freed much more than it keeps, such as training.
void ReleaseFreeMemory();

/// Bytes currently allocated to Matrix buffers (clamped at 0: frees of
/// buffers that predate SetEnabled(true) are ignored in the clamp).
int64_t LiveBytes();
/// High-water mark of LiveBytes since the last enable/reset.
int64_t PeakBytes();
/// Number of Matrix buffer allocations since the last enable/reset.
int64_t AllocCount();

void Reset();

/// AllocateBuffer/FreeBuffer plus RecordAlloc/RecordFree bookkeeping; the
/// allocator of Matrix's backing vector.
template <typename T>
struct TrackingAllocator {
  using value_type = T;

  TrackingAllocator() = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    RecordAlloc(n * sizeof(T));
    return static_cast<T*>(AllocateBuffer(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) {
    RecordFree(n * sizeof(T));
    FreeBuffer(p, n * sizeof(T));
  }

  bool operator==(const TrackingAllocator&) const { return true; }
  bool operator!=(const TrackingAllocator&) const { return false; }
};

}  // namespace memstats
}  // namespace silofuse

#endif  // SILOFUSE_TENSOR_MEM_STATS_H_
