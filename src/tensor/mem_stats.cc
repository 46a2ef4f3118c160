#include "tensor/mem_stats.h"

#include <malloc.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <new>

#include "common/string_util.h"

namespace silofuse {
namespace memstats {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
std::atomic<int64_t> g_alloc_count{0};

// Reads SILOFUSE_MEM_STATS as soon as this TU is linked in, so accounting
// covers allocations from the very first Matrix.
const bool g_env_init = [] {
  ReinitFromEnv();
  return true;
}();

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  const bool was = g_enabled.exchange(enabled, std::memory_order_relaxed);
  if (enabled && !was) Reset();
}

void ReinitFromEnv() {
  SetEnabled(EnvFlag("SILOFUSE_MEM_STATS", false));
}

void RecordAlloc(size_t bytes) {
  if (!Enabled() || bytes == 0) return;
  const int64_t delta = static_cast<int64_t>(bytes);
  const int64_t live =
      g_live_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // Racy-max CAS: peak may briefly trail a concurrent allocation but never
  // settles below the true high-water mark.
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void RecordFree(size_t bytes) {
  if (!Enabled() || bytes == 0) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(bytes),
                         std::memory_order_relaxed);
}

void* AllocateBuffer(size_t bytes) {
  if (bytes < kMappedBufferBytes) {
    void* p = std::malloc(bytes);
    if (p == nullptr && bytes != 0) throw std::bad_alloc();
    return p;
  }
  // Every Matrix writes its whole buffer at once (zeros or a copy), so the
  // pages are mapped in one call rather than faulted in one by one.
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void FreeBuffer(void* p, size_t bytes) {
  if (bytes < kMappedBufferBytes) {
    std::free(p);
  } else {
    munmap(p, bytes);
  }
}

void ReleaseFreeMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

int64_t LiveBytes() {
  return std::max<int64_t>(0, g_live_bytes.load(std::memory_order_relaxed));
}

int64_t PeakBytes() { return g_peak_bytes.load(std::memory_order_relaxed); }

int64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

void Reset() {
  g_live_bytes.store(0, std::memory_order_relaxed);
  g_peak_bytes.store(0, std::memory_order_relaxed);
  g_alloc_count.store(0, std::memory_order_relaxed);
}

}  // namespace memstats
}  // namespace silofuse
