// Clang thread-safety (capability) annotations and the annotated mutex shim.
//
// Every mutex-protected member in the concurrent subsystems (ThreadPool,
// PlanCache, Scheduler, InferenceEngine, ServingCluster, ManualClock) is
// declared GUARDED_BY its mutex and every locking function carries the
// matching ACQUIRE/RELEASE/REQUIRES/EXCLUDES attribute, so a Clang build with
// -Wthread-safety -Werror machine-checks the locking discipline the comments
// used to merely describe. Under compilers without the capability attributes
// (GCC included) every macro expands to nothing and the shim classes below
// degrade to thin wrappers over the std primitives.
//
// ---------------------------------------------------------------------------
// REPO-WIDE LOCK-ORDERING RULE
// ---------------------------------------------------------------------------
// Deadlock freedom rests on one rule: subsystem mutexes are LEAVES. A thread
// never holds two subsystem mutexes at once; code paths that consult several
// subsystems (a worker popping the Scheduler, then building a runner under
// InferenceEngine::mu_, then planning under PlanCache::mu_) take and release
// them strictly in sequence. Concretely:
//
//  * ServingCluster::route_mu_ — serialises the routing pick + routed
//    counters only. Shard gauges (Scheduler::load(), load_seconds(), the
//    memoised cost) are gathered BEFORE it is taken; no shard mutex is ever
//    acquired while route_mu_ is held, so route_mu_ never nests with
//    Scheduler::mu_.
//  * Scheduler::mu_, PlanCache::mu_, InferenceEngine::mu_,
//    InferenceEngine::workers_mu_, ThreadPool::mu_ — leaf mutexes; none of
//    them is acquired while another FCM mutex is held.
//  * PlanCache::InFlight::m — taken strictly AFTER PlanCache::mu_ has been
//    RELEASED (lookup drops the cache lock, then waits on the flight), never
//    nested inside it.
//  * ManualClock::wmu_ → waiter mutex (Scheduler::mu_) — the ONE sanctioned
//    subsystem nesting: advancing virtual time locks each registered
//    waiter's mutex to fence the classic missed wakeup. The reverse edge
//    cannot form because Clock methods called under Scheduler::mu_ (now_s,
//    wait_until) never touch wmu_, and register_/unregister_waiter are
//    documented to be called without the waiter's mutex held.
//  * any mutex → obs sink mutexes (obs::Tracer::mu_, obs::Family::mu_,
//    obs::MetricsRegistry::mu_) — instrumentation sinks are TERMINAL
//    leaves: record()/with()/family getters touch only their own state and
//    never acquire another FCM mutex while held, so no cycle through them
//    can form. Export paths (prometheus_text/json_text/chrome_trace_json)
//    snapshot pointers under these mutexes, then RELEASE them and format
//    lock-free — a scrape never blocks a writer beyond the snapshot copy.
//
// New code should keep new mutexes leaves; any new nesting must be added to
// this list with the cycle argument spelled out.
#pragma once

#include <condition_variable>
#include <mutex>

// Attribute plumbing: real attributes under Clang, no-ops elsewhere.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FCM_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef FCM_THREAD_ANNOTATION__
#define FCM_THREAD_ANNOTATION__(x)
#endif

/// Class attribute: instances of this type are lockable capabilities.
#define CAPABILITY(x) FCM_THREAD_ANNOTATION__(capability(x))
/// Class attribute: RAII objects that acquire on construction, release on
/// destruction (and may relock/unlock in between).
#define SCOPED_CAPABILITY FCM_THREAD_ANNOTATION__(scoped_lockable)
/// Data member attribute: reads and writes require holding the capability.
#define GUARDED_BY(x) FCM_THREAD_ANNOTATION__(guarded_by(x))
/// Pointer member attribute: dereferencing requires holding the capability.
#define PT_GUARDED_BY(x) FCM_THREAD_ANNOTATION__(pt_guarded_by(x))
/// Function attribute: the caller must already hold the capability.
#define REQUIRES(...) FCM_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
/// Function attribute: acquires the capability (not held on entry).
#define ACQUIRE(...) FCM_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
/// Function attribute: releases the capability (held on entry).
#define RELEASE(...) FCM_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
/// Function attribute: acquires the capability when returning `b`.
#define TRY_ACQUIRE(b, ...) \
  FCM_THREAD_ANNOTATION__(try_acquire_capability(b, __VA_ARGS__))
/// Function attribute: the caller must NOT hold the capability (deadlock
/// guard on public entry points that lock internally).
#define EXCLUDES(...) FCM_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
/// Function attribute: tells the analysis the capability IS held here —
/// the escape hatch for lambdas (condition-variable predicates) whose
/// call-with-lock-held context the analysis cannot see.
#define ASSERT_CAPABILITY(x) FCM_THREAD_ANNOTATION__(assert_capability(x))
/// Function attribute: returns a reference to the given capability.
#define RETURN_CAPABILITY(x) FCM_THREAD_ANNOTATION__(lock_returned(x))
/// Function attribute: opt this function out of the analysis entirely.
#define NO_THREAD_SAFETY_ANALYSIS \
  FCM_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace fcm {

/// std::mutex behind the capability attribute: the type every GUARDED_BY in
/// the serving stack names. Zero overhead — the annotations are compile-time
/// only and the class is a transparent wrapper.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Assert (to the analysis only; no runtime check) that this thread holds
  /// the mutex. Condition-variable predicate lambdas open with this: they
  /// run with the lock held, but the analysis cannot see through the
  /// std::condition_variable::wait call boundary.
  void assert_held() const ASSERT_CAPABILITY(this) {}

  /// The wrapped mutex, for interop with std waiting primitives.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex — std::unique_lock semantics (early unlock and
/// relock supported) under the scoped-capability attribute.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), lk_(mu.native()) {}
  ~MutexLock() RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() RELEASE() { lk_.unlock(); }
  void lock() ACQUIRE() { lk_.lock(); }

  /// The underlying unique_lock, for std::condition_variable-style waits
  /// (CondVar below passes through here).
  std::unique_lock<std::mutex>& native() { return lk_; }
  /// The Mutex this lock covers — predicates use it to assert_held().
  Mutex& mutex() RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  Mutex& mu_;
  std::unique_lock<std::mutex> lk_;
};

/// std::condition_variable over MutexLock. Waiting is not expressible to the
/// capability analysis (the lock is released and reacquired inside), so the
/// contract stays conventional: call with the MutexLock held, and open every
/// predicate lambda with mutex().assert_held().
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lk) { cv_.wait(lk.native()); }

  template <typename Pred>
  void wait(MutexLock& lk, Pred pred) {
    cv_.wait(lk.native(), std::move(pred));
  }

  template <typename TimePoint>
  std::cv_status wait_until(MutexLock& lk, const TimePoint& tp) {
    return cv_.wait_until(lk.native(), tp);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fcm
