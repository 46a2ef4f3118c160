#include "tensor/mem_stats.h"

#include <algorithm>

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
