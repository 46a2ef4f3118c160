#include "serve/model_cache.h"

#include <sys/stat.h>

#include "common/logging.h"
#include "obs/metrics.h"

namespace silofuse {
namespace serve {

namespace {

struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* reloads;
  obs::Counter* reload_failures;
  obs::Gauge* loaded;
};

const CacheMetrics& Metrics() {
  static const CacheMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    CacheMetrics m;
    m.hits = registry.GetCounter("serve.cache.hits");
    m.misses = registry.GetCounter("serve.cache.misses");
    m.evictions = registry.GetCounter("serve.cache.evictions");
    m.reloads = registry.GetCounter("serve.cache.reloads");
    m.reload_failures = registry.GetCounter("serve.cache.reload_failures");
    m.loaded = registry.GetGauge("serve.cache.loaded");
    return m;
  }();
  return metrics;
}

/// Checkpoint generation: (mtime ns, size). A rewritten checkpoint changes
/// at least one of the two; both unreadable -> {-1, -1}, which never
/// matches a successful load's generation, so a vanished file counts as a
/// change (its reload fails, and the resident model keeps serving).
bool StatGeneration(const std::string& path, int64_t* mtime_ns,
                    int64_t* size_bytes) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    *mtime_ns = -1;
    *size_bytes = -1;
    return false;
  }
  *mtime_ns =
      static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 + st.st_mtim.tv_nsec;
  *size_bytes = static_cast<int64_t>(st.st_size);
  return true;
}

}  // namespace

ModelCache::ModelCache(ModelCacheOptions options) : options_(options) {
  if (options_.capacity < 1) options_.capacity = 1;
}

Status ModelCache::Register(const std::string& name,
                            const std::string& checkpoint_path) {
  if (name.empty()) return Status::InvalidArgument("deployment name is empty");
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.model != nullptr && entry.path != checkpoint_path) {
    entry.model.reset();
    Metrics().loaded->Set(static_cast<double>(LoadedCountLocked()));
  }
  entry.path = checkpoint_path;
  return Status::OK();
}

Result<std::shared_ptr<SiloFuse>> ModelCache::Get(const std::string& name) {
  const CacheMetrics& metrics = Metrics();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("deployment '" + name + "' is not registered");
    }
    Entry& entry = it->second;
    if (entry.loading) {
      // Another caller is loading this deployment; wait for its verdict and
      // re-evaluate (it may have failed, making us the next loader).
      loaded_cv_.wait(lock);
      continue;
    }
    int64_t mtime_ns = -1;
    int64_t size_bytes = -1;
    const bool resident = entry.model != nullptr;
    bool stale = false;
    if (!resident || options_.hot_reload) {
      StatGeneration(entry.path, &mtime_ns, &size_bytes);
      stale = resident && (mtime_ns != entry.mtime_ns ||
                           size_bytes != entry.size_bytes);
    }
    if (resident && !stale) {
      entry.last_use = ++use_tick_;
      metrics.hits->Increment();
      return entry.model;
    }
    // Miss or stale: this caller becomes the single-flight loader.
    entry.loading = true;
    const std::string path = entry.path;
    lock.unlock();
    if (load_hook_for_test_) load_hook_for_test_();
    auto loaded = SiloFuse::LoadCheckpoint(path);
    lock.lock();
    // Re-find: the entry may have been re-registered while we loaded
    // (hot-redeploy swaps the path without waiting for in-flight loads).
    it = entries_.find(name);
    if (it == entries_.end() || it->second.path != path) {
      // This loader still owns the single-flight latch even though its
      // target changed under it: release the latch before bailing, or every
      // later Get() of this name waits on loaded_cv_ for a verdict that
      // never comes, permanently wedging the deployment.
      if (it != entries_.end()) it->second.loading = false;
      loaded_cv_.notify_all();
      return Status::Unavailable("deployment '" + name +
                                 "' was re-registered during load");
    }
    Entry& target = it->second;
    target.loading = false;
    loaded_cv_.notify_all();
    if (!loaded.ok()) {
      if (stale && target.model != nullptr) {
        // A bad file replaced a good checkpoint: keep serving the resident
        // model, and remember the bad generation so the file is parsed
        // again only once it changes again.
        target.mtime_ns = mtime_ns;
        target.size_bytes = size_bytes;
        target.last_use = ++use_tick_;
        metrics.reload_failures->Increment();
        SF_LOG(Warning) << "serve: hot reload of deployment '" << name
                        << "' from " << path << " failed, still serving the "
                        << "previous model: " << loaded.status().ToString();
        return target.model;
      }
      return Status(loaded.status().code(),
                    "loading deployment '" + name + "' from '" + path +
                        "': " + loaded.status().message());
    }
    if (stale) {
      metrics.reloads->Increment();
      SF_LOG(Info) << "serve: hot-reloaded deployment '" << name << "' from "
                   << path;
    } else {
      metrics.misses->Increment();
    }
    // Atomic swap: in-flight batches holding the old shared_ptr drain on
    // the old model; everyone after this point sees the new one.
    target.model = std::shared_ptr<SiloFuse>(std::move(loaded).Value());
    target.mtime_ns = mtime_ns;
    target.size_bytes = size_bytes;
    target.last_use = ++use_tick_;
    EvictIfNeededLocked();
    metrics.loaded->Set(static_cast<double>(LoadedCountLocked()));
    return target.model;
  }
}

bool ModelCache::Registered(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> ModelCache::Deployments() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

int ModelCache::LoadedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return LoadedCountLocked();
}

int ModelCache::LoadedCountLocked() const {
  int loaded = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry.model != nullptr) ++loaded;
  }
  return loaded;
}

void ModelCache::EvictIfNeededLocked() {
  for (;;) {
    int loaded = 0;
    std::map<std::string, Entry>::iterator lru = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.model == nullptr) continue;
      ++loaded;
      if (lru == entries_.end() ||
          it->second.last_use < lru->second.last_use) {
        lru = it;
      }
    }
    if (loaded <= options_.capacity || lru == entries_.end()) return;
    lru->second.model.reset();  // registration (path) survives eviction
    lru->second.mtime_ns = -1;
    lru->second.size_bytes = -1;
    Metrics().evictions->Increment();
  }
}

}  // namespace serve
}  // namespace silofuse
