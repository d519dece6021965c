// Keyed, thread-safe memoisation of FusePlanner plans.
//
// The paper's workflow derives a complete execution plan offline and then
// implements the network from it — a serve-shape: plan once, execute many
// times. PlanCache makes that explicit. Plans are keyed on (model name,
// device name, dtype, PlanOptions); lookups are O(1) under a mutex, capacity
// is bounded by LRU eviction, and a cache directory (via plan_io
// serialize/deserialize + reconcile) lets a warm cache survive process
// restarts. Concurrent misses on the same key are single-flighted: one
// thread plans, the rest wait and share the result. Across processes (or
// several caches sharing one directory) there is no coordination: a cold
// cache plans the key itself, since planning costs about a millisecond, and
// stores it write-then-rename under a staging name no other writer shares,
// so a reader only ever sees a whole plan file.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/thread_annotations.hpp"
#include "gpusim/device_spec.hpp"
#include "layers/model_graph.hpp"
#include "obs/metrics.hpp"
#include "planner/fuse_planner.hpp"

namespace fcm::serving {

/// Identity of one cached plan. Two requests share a plan exactly when all
/// four components match (PlanOptions compares member-wise).
struct PlanKey {
  std::string model;
  std::string device;
  DType dtype = DType::kF32;
  planner::PlanOptions options;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;

  /// Filesystem-safe slug, e.g. "Mob_v2__RTX-A4000__fp32__pair" — the stem
  /// of the file a persistent cache directory stores this plan under. Every
  /// PlanOptions field must appear here (and in PlanKeyHash): two keys that
  /// compare unequal but share a slug would alias one disk file.
  std::string slug() const;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept;
};

/// Cache counters. `misses` counts every lookup that had to leave the
/// in-memory map; of those, `disk_hits` were satisfied by the cache
/// directory and the rest ran the planner. `coalesced` lookups piggybacked
/// on another thread's in-flight planning of the same key.
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t disk_hits = 0;
  std::int64_t coalesced = 0;
};

/// Thread-safe LRU cache of FusePlanner plans.
class PlanCache {
 public:
  /// Signature of the planning function memoised by the cache.
  using PlanFn = std::function<planner::Plan(
      const gpusim::DeviceSpec&, const ModelGraph&, DType,
      const planner::PlanOptions&)>;

  /// `capacity` bounds the number of in-memory plans (>= 1). A non-empty
  /// `cache_dir` enables persistence: fresh plans are serialised into it and
  /// misses consult it before planning (deserialize + reconcile against the
  /// live model, so stale or foreign files — including another device's plan
  /// and a triple plan under a pair-only key — are rejected, then replanned
  /// and overwritten).
  /// The directory is created on first store; eviction never deletes files —
  /// the directory is the durable tier, the LRU bounds memory only.
  explicit PlanCache(std::size_t capacity = 64, std::string cache_dir = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Return the cached plan for (model.name, dev.name, dt, opt), planning it
  /// on first use. Safe to call from any number of threads; the planner runs
  /// outside the cache lock and at most once per key.
  std::shared_ptr<const planner::Plan> get_or_plan(
      const gpusim::DeviceSpec& dev, const ModelGraph& model, DType dt,
      const planner::PlanOptions& opt = {}) EXCLUDES(mu_);

  std::size_t size() const EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }
  const std::string& cache_dir() const { return cache_dir_; }
  CacheStats stats() const EXCLUDES(mu_);

  /// Drop every in-memory entry (stats and on-disk files are kept).
  void clear() EXCLUDES(mu_);

  /// Replace the planning function (default: planner::plan_model). Lets
  /// tests instrument call counts and inject synthetic planners; must not
  /// race with in-flight get_or_plan calls.
  void set_plan_fn(PlanFn fn) EXCLUDES(mu_);

 private:
  struct Entry {
    PlanKey key;
    std::shared_ptr<const planner::Plan> plan;
  };
  /// One in-flight planning of a key; later arrivals block on `cv`. Taken
  /// strictly AFTER the cache mutex is released, never nested inside it
  /// (see the lock-ordering rule in thread_annotations.hpp).
  struct InFlight {
    Mutex m;
    CondVar cv;
    bool done GUARDED_BY(m) = false;
    std::shared_ptr<const planner::Plan> plan GUARDED_BY(m);
    std::exception_ptr error GUARDED_BY(m);
  };

  /// Insert under the lock, evicting LRU tails beyond capacity.
  void insert_locked(const PlanKey& key,
                     std::shared_ptr<const planner::Plan> plan) REQUIRES(mu_);
  /// Produce the plan for a key: disk first (when enabled), planner second,
  /// then store the planned key to disk.
  std::shared_ptr<const planner::Plan> produce(const gpusim::DeviceSpec& dev,
                                               const ModelGraph& model,
                                               DType dt, const PlanKey& key)
      EXCLUDES(mu_);
  /// Load + reconcile the key's plan file; nullptr when absent or invalid.
  std::shared_ptr<const planner::Plan> try_load_disk(
      const gpusim::DeviceSpec& dev, const ModelGraph& model,
      const PlanKey& key) EXCLUDES(mu_);
  std::string file_path(const PlanKey& key) const;

  const std::size_t capacity_;
  const std::string cache_dir_;

  /// Registry handles mirroring CacheStats (process-wide totals across every
  /// cache), bound once at construction; plan_time samples the wall time of
  /// actual planner runs (not disk loads), labeled by (model, dtype).
  struct Metrics {
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* evictions;
    obs::Counter* disk_hits;
    obs::Counter* coalesced;
    obs::Family<obs::Histogram>* plan_time;
  };
  Metrics m_;

  mutable Mutex mu_;
  PlanFn plan_fn_ GUARDED_BY(mu_);
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> map_
      GUARDED_BY(mu_);
  std::unordered_map<PlanKey, std::shared_ptr<InFlight>, PlanKeyHash> inflight_
      GUARDED_BY(mu_);
  CacheStats stats_ GUARDED_BY(mu_);
};

}  // namespace fcm::serving
