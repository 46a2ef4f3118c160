#ifndef SILOFUSE_SERVE_MODEL_CACHE_H_
#define SILOFUSE_SERVE_MODEL_CACHE_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/silofuse.h"

namespace silofuse {
namespace serve {

struct ModelCacheOptions {
  /// Maximum number of deployments resident in memory at once. Loading the
  /// (capacity+1)-th model evicts the least-recently-used resident one;
  /// requests already holding the evicted model's shared_ptr finish on it.
  int capacity = 4;
  /// Re-stat the checkpoint file on every Get and atomically swap in a
  /// fresh load when its mtime/size changed (checkpoint hot-reload).
  bool hot_reload = true;
};

/// LRU cache of decode-only SiloFuse deployments restored via
/// SiloFuse::LoadCheckpoint.
///
/// Get() is the only hot call: it returns a shared_ptr to the deployment,
/// loading it on first use and hot-reloading it when the checkpoint file
/// changes on disk (mtime/size generation check). Loads are single-flight
/// per deployment — concurrent Get()s of the same name wait for one load —
/// while different deployments load concurrently. The swap is atomic under
/// the cache lock: in-flight batches keep their shared_ptr and drain on the
/// old model, new batches pick up the new one.
///
/// Counters: serve.cache.{hits,misses,evictions,reloads,reload_failures}
/// and gauge serve.cache.loaded.
class ModelCache {
 public:
  explicit ModelCache(ModelCacheOptions options = {});

  ModelCache(const ModelCache&) = delete;
  ModelCache& operator=(const ModelCache&) = delete;

  /// Registers `name` -> checkpoint path. No load happens until Get().
  /// Re-registering an existing name with a new path drops the resident
  /// model (the next Get loads from the new path).
  Status Register(const std::string& name, const std::string& checkpoint_path);

  /// Returns the deployment's model, loading or hot-reloading as needed.
  /// kNotFound for unregistered names. A failed first load surfaces the
  /// LoadCheckpoint status and is retried on the next Get. A failed hot
  /// reload keeps serving the resident model, counts
  /// serve.cache.reload_failures, and is retried only once the file's
  /// generation changes again.
  Result<std::shared_ptr<SiloFuse>> Get(const std::string& name);

  /// True when `name` has been registered (no load, no residency check).
  /// Cheap enough for per-request admission: lets the server reject
  /// unknown deployments before allocating any per-deployment state.
  bool Registered(const std::string& name) const;

  /// Registered deployment names, sorted.
  std::vector<std::string> Deployments() const;

  /// Number of models currently resident (tests/metrics).
  int LoadedCount() const;

  /// Test-only: runs on the loading thread after it drops the cache lock
  /// and before LoadCheckpoint, letting tests deterministically interleave
  /// Register() with an in-flight load. Set before any concurrent use.
  void SetLoadHookForTest(std::function<void()> hook) {
    load_hook_for_test_ = std::move(hook);
  }

 private:
  struct Entry {
    std::string path;
    std::shared_ptr<SiloFuse> model;  // null until first Get / after evict
    // Generation of the resident load, or of the last failed hot reload.
    int64_t mtime_ns = -1;
    int64_t size_bytes = -1;
    uint64_t last_use = 0;
    bool loading = false;  // single-flight latch
  };

  /// Evicts least-recently-used resident entries until <= capacity stay
  /// resident. Caller holds mu_.
  void EvictIfNeededLocked();

  /// Number of resident models. Caller holds mu_.
  int LoadedCountLocked() const;

  ModelCacheOptions options_;
  std::function<void()> load_hook_for_test_;  // called with mu_ NOT held
  mutable std::mutex mu_;
  std::condition_variable loaded_cv_;
  std::map<std::string, Entry> entries_;
  uint64_t use_tick_ = 0;
};

}  // namespace serve
}  // namespace silofuse

#endif  // SILOFUSE_SERVE_MODEL_CACHE_H_
