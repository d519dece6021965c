#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace fcm {

namespace {
/// Set while a thread runs pool work so nested parallel_for calls inline.
thread_local bool t_on_worker = false;

std::atomic<ThreadPool*> g_override{nullptr};
}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : ThreadPool(threads, obs::MetricsRegistry::global()) {}

ThreadPool::ThreadPool(unsigned threads, obs::MetricsRegistry& reg) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  m_.tasks = &reg.counter_family("fcm_pool_tasks_total",
                                 "Tasks executed by thread-pool workers", {})
                  .get();
  m_.task_time =
      &reg.histogram_family("fcm_pool_task_seconds",
                            "Wall time of each thread-pool task", {})
           .get();
  m_.depth = &reg.gauge_family("fcm_pool_queue_depth",
                               "Tasks waiting in the thread-pool queue", {})
                  .get();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    Task task;
    {
      MutexLock lk(mu_);
      cv_.wait(lk, [this] {
        mu_.assert_held();
        return stop_ || !queue_.empty();
      });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      if (obs::enabled()) m_.depth->set(static_cast<double>(queue_.size()));
    }
    if (obs::enabled()) {
      const SteadyTime t0 = steady_now();
      task.fn();
      m_.task_time->observe(seconds_since(t0));
      m_.tasks->inc();
    } else {
      task.fn();
    }
  }
}

void ThreadPool::parallel_for(std::int64_t count,
                              const std::function<void(std::int64_t)>& fn,
                              std::int64_t grain) {
  if (count <= 0) return;
  const std::int64_t nworkers = static_cast<std::int64_t>(size());
  // Small grids, a single worker, or a nested call from inside a worker: run
  // inline — the last case would deadlock if it queued and waited.
  if (count == 1 || nworkers <= 1 || t_on_worker) {
    for (std::int64_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Auto grain: ~8 chunks per worker balances load vs dispatch overhead.
  if (grain <= 0) grain = std::max<std::int64_t>(1, count / (8 * nworkers));
  const std::int64_t chunks =
      std::min<std::int64_t>(nworkers, ceil_div(count, grain));
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<bool> aborted{false};
  std::exception_ptr first_error;
  std::mutex err_mu;
  std::condition_variable done_cv;
  std::mutex done_mu;

  auto body = [&] {
    for (;;) {
      // Fail fast: once any index threw, stop claiming the rest.
      if (aborted.load(std::memory_order_relaxed)) break;
      const std::int64_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= count) break;
      const std::int64_t end = std::min(count, begin + grain);
      try {
        for (std::int64_t i = begin; i < end; ++i) {
          if (aborted.load(std::memory_order_relaxed)) break;
          fn(i);
        }
      } catch (...) {
        aborted.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lk(done_mu);
    done.fetch_add(1, std::memory_order_release);
    done_cv.notify_one();
  };

  {
    MutexLock lk(mu_);
    for (std::int64_t c = 0; c < chunks; ++c) {
      queue_.push(Task{body});
    }
    if (obs::enabled()) m_.depth->set(static_cast<double>(queue_.size()));
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lk(done_mu);
  done_cv.wait(lk, [&] { return done.load(std::memory_order_acquire) == chunks; });

  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  if (ThreadPool* p = g_override.load(std::memory_order_acquire)) return *p;
  // Bound to the process registry even when first used under a test's
  // registry override: the pool outlives that registry.
  static ThreadPool pool(0, obs::MetricsRegistry::process());
  return pool;
}

ThreadPool* ThreadPool::set_global_override(ThreadPool* pool) {
  return g_override.exchange(pool, std::memory_order_acq_rel);
}

}  // namespace fcm
