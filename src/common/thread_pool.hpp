// Minimal work-stealing-free thread pool used by the GPU simulator to run
// thread blocks in parallel across host cores (each worker plays the role of
// a streaming multiprocessor executing blocks from the grid).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace fcm {

/// Fixed-size thread pool. Construction spawns `n` workers; destruction joins
/// them. parallel_for partitions [0, n) into contiguous chunks, one per
/// worker, and blocks until all complete — the only pattern the simulator
/// needs (a grid of independent thread blocks).
class ThreadPool {
 public:
  /// `threads` == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Run fn(i) for every i in [0, count). Blocks until done. Exceptions from
  /// workers are rethrown on the calling thread. After the first throw the
  /// remaining indices are abandoned (fail fast); when several indices would
  /// throw, *which* exception surfaces depends on scheduling — only the
  /// fact of failure is deterministic, not the message.
  ///
  /// Workers claim contiguous [i, i+grain) chunks off one shared atomic
  /// cursor, so the synchronisation cost is one fetch_add per `grain`
  /// indices instead of one per index. `grain` <= 0 picks an automatic
  /// size: count / (8 * workers), clamped to >= 1 — small enough to keep
  /// load balanced when per-index cost varies, large enough to amortise the
  /// atomic for the planner's big candidate sweeps. Which indices land on
  /// which worker never affects results for the sharded-slot-write pattern
  /// all callers use, so outputs stay bit-identical to a serial loop for
  /// any grain and worker count.
  ///
  /// Re-entrant: a parallel_for issued from inside a worker runs inline on
  /// that worker. Nested parallel sections (planner layer loop → tile search
  /// → simulated kernel launch) would otherwise deadlock, with every worker
  /// blocked waiting for queued sub-tasks no one is free to run.
  void parallel_for(std::int64_t count,
                    const std::function<void(std::int64_t)>& fn,
                    std::int64_t grain = 0) EXCLUDES(mu_);

  /// Process-wide pool shared by the planner, runtime and simulator.
  static ThreadPool& global();

  /// Redirect global() to `pool` (nullptr restores the default pool) and
  /// return the previous override. Lets tests and CLIs pin the worker count —
  /// e.g. force a 1-worker pool to compare against a parallel run. Must not
  /// race with concurrent global() users.
  static ThreadPool* set_global_override(ThreadPool* pool);

 private:
  struct Task {
    std::function<void()> fn;
  };

  /// Binds the metric handles to `registry`: the public constructor passes
  /// MetricsRegistry::global(), global() the process registry.
  ThreadPool(unsigned threads, obs::MetricsRegistry& registry);

  void worker_loop() EXCLUDES(mu_);

  /// Registry handles (process-wide totals across every pool), bound once at
  /// construction: tasks executed, wall time per task, and the queue depth
  /// sampled at every push/pop under mu_.
  struct Metrics {
    obs::Counter* tasks;
    obs::Histogram* task_time;
    obs::Gauge* depth;
  };
  Metrics m_;

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::queue<Task> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
};

/// RAII pool override: global() returns `pool` for this object's lifetime,
/// then the previous pool again — exception-safe, unlike calling
/// set_global_override by hand around code that may throw.
class ScopedPoolOverride {
 public:
  explicit ScopedPoolOverride(ThreadPool& pool)
      : prev_(ThreadPool::set_global_override(&pool)) {}
  ~ScopedPoolOverride() { ThreadPool::set_global_override(prev_); }

  ScopedPoolOverride(const ScopedPoolOverride&) = delete;
  ScopedPoolOverride& operator=(const ScopedPoolOverride&) = delete;

 private:
  ThreadPool* prev_;
};

}  // namespace fcm
