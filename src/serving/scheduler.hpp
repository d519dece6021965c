// Admission scheduling for the inference engine: a bounded queue with
// pluggable discipline, coalescing dynamic batching and lazy deadline expiry.
//
// The Scheduler owns everything between submit_async and the worker that
// executes a request:
//
//  * Admission — a bounded queue (SchedulerOptions::queue_depth) whose
//    full-queue behaviour is the AdmissionPolicy: block the producer
//    (backpressure) or resolve the promise immediately as kRejected.
//  * Discipline — kFifo dispatches in arrival order; kEdf pops the earliest
//    absolute deadline first (a binary heap; no-deadline requests sort last,
//    ties break by arrival), trading fairness for SLO attainment.
//  * Coalescing — when max_coalesce_batch > 1, a popped single-image request
//    opens a batching window: the worker collects queued single-image
//    requests with the same (model, dtype, quant) key until the batch budget
//    fills or coalesce_wait_us elapses from the head's enqueue (capped by
//    the head's own deadline), then the whole group dispatches as ONE batch.
//    While a window is open its key is RESERVED: other workers skip matching
//    requests when choosing their head, so idle workers cannot fragment
//    coalescible traffic into solo windows — peers queue up for the open
//    window instead. The engine demuxes the batched outputs back into
//    per-request ServeResponses, so callers never see the merge — they just
//    see single-image throughput close to batched throughput (cross-item
//    weight reuse + the executor's parallel item loop).
//  * Expiry — a request whose deadline passes while it waits is resolved
//    kExpired at the next pop, wherever it sits in the queue (lazy expiry
//    scans the whole backlog, not just the head, for every discipline).
//
// All timing flows through the injected Clock, so with a ManualClock every
// decision above is reproducible in unit tests without a single real sleep.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/thread_annotations.hpp"
#include "common/tensor.hpp"
#include "kernels/epilogue.hpp"
#include "obs/trace.hpp"
#include "serving/serving_report.hpp"

namespace fcm::serving {

/// What push() does with a request that finds the bounded queue full.
enum class AdmissionPolicy : std::uint8_t {
  kBlock,   ///< wait until a slot frees (backpressure onto the producer)
  kReject,  ///< resolve the future immediately with ServeStatus::kRejected
};

const char* admission_policy_name(AdmissionPolicy p);

/// Outcome of one request. kRejected responses carry no outputs; kExpired
/// requests were admitted but out-waited their deadline in the queue.
enum class ServeStatus : std::uint8_t { kOk, kRejected, kExpired };

const char* serve_status_name(ServeStatus s);

/// Dequeue order of the admission queue.
enum class QueueDiscipline : std::uint8_t {
  kFifo,  ///< arrival order (the fair default)
  kEdf,   ///< earliest deadline first (heap pop; deadline-free sorts last)
};

const char* queue_discipline_name(QueueDiscipline d);

/// A dtype-polymorphic batched inference request. Exactly one of the two
/// batch vectors is used, selected by `dtype`; every tensor in it must share
/// one FmShape (the model's input shape).
struct ServeRequest {
  /// Caller-visible correlation id, echoed on the ServeResponse and used as
  /// the trace id. 0 (the default) asks the serving stack to assign one from
  /// the process-wide obs::next_request_id() sequence at admission; callers
  /// that set it keep their own id end to end.
  std::uint64_t request_id = 0;
  std::string model;
  DType dtype = DType::kF32;
  std::vector<TensorF> batch_f32;
  std::vector<TensorI8> batch_i8;
  /// INT8 only: per-model symmetric quantisation parameters applied to every
  /// layer of the runner serving this request (unset keeps the library
  /// defaults). Requests with different quant params get distinct runners.
  std::optional<QuantParams> quant;
  /// Optional queueing deadline, seconds from enqueue: a request still
  /// waiting in the admission queue past it is dropped as kExpired instead
  /// of executed. 0 disables (execution itself is never aborted).
  double deadline_s = 0.0;
  /// Metrics-only request: the engine drops the output tensors before
  /// resolving the response (latency/sim stats are kept). Load generators —
  /// replay() among them — set this so a long replay never accumulates
  /// output feature maps.
  bool discard_outputs = false;
  /// Timing-only request for the workload simulator: carries no input
  /// tensors (batch() reads `dry_batch`), skips weight materialisation and
  /// kernel execution, and is charged the plan's roofline-predicted
  /// simulated time instead of executed stats. Functional callers leave
  /// this unset; the two kinds never coalesce together.
  bool dry_run = false;
  /// Batch size a dry-run request stands for (>= 1 when dry_run is set).
  int dry_batch = 0;
  /// Predicted simulated execution seconds for this request — the planner's
  /// roofline estimate times the batch size. The serving stack stamps it at
  /// admission (submit_async) when the plan's per-item cost is known; callers
  /// leave it 0. Feeds the Scheduler::load_seconds() gauge that cost-aware
  /// routers and the cluster autoscaler balance on; never affects execution.
  double cost_s = 0.0;

  /// Number of batch items of the active dtype.
  int batch() const {
    if (dry_run) return dry_batch;
    return static_cast<int>(dtype == DType::kF32 ? batch_f32.size()
                                                 : batch_i8.size());
  }

  static ServeRequest f32(std::string model, std::vector<TensorF> batch);
  static ServeRequest i8(std::string model, std::vector<TensorI8> batch,
                         std::optional<QuantParams> quant = std::nullopt);
};

/// Per-request outcome: one output per batch item (in the request's dtype)
/// plus latency and simulated-execution statistics.
struct ServeResponse {
  ServeStatus status = ServeStatus::kOk;
  /// Echo of the request's correlation id (the assigned one when the caller
  /// left request_id at 0) — responses correlate by id, not by position.
  std::uint64_t request_id = 0;
  std::string model;
  DType dtype = DType::kF32;
  std::vector<TensorF> outputs_f32;
  std::vector<TensorI8> outputs_i8;
  int batch = 0;
  /// Host clock latency, seconds: submit() measures plan lookup + execution;
  /// submit_async() additionally includes queue wait (and, for a coalesced
  /// request, the batching window plus the whole merged batch's execution —
  /// the request completes when its batch does).
  double latency_s = 0.0;
  /// Portion of latency_s spent waiting in the admission queue.
  double queue_wait_s = 0.0;
  /// Simulated GPU time and traffic attributed to this request. A coalesced
  /// request is charged an even 1/n share of its merged batch's totals.
  double sim_time_s = 0.0;
  std::int64_t gma_bytes = 0;

  bool ok() const { return status == ServeStatus::kOk; }
};

/// A ServeResponse echoing `req`'s identity with no outputs.
ServeResponse response_stub(const ServeRequest& req, ServeStatus status);

struct SchedulerOptions {
  /// Bound of the admission queue (>= 1).
  std::size_t queue_depth = 32;
  /// Full-queue behaviour of push().
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  /// Dequeue order. The default stays FIFO.
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  /// Largest batch a coalescing pop may assemble from same-(model, dtype,
  /// quant) single-image requests. 1 disables coalescing (the default).
  int max_coalesce_batch = 1;
  /// How long a coalescing pop may wait for peers, microseconds from the
  /// head request's enqueue. 0 merges only what is already queued (greedy,
  /// never waits) — the latency-safe default.
  std::int64_t coalesce_wait_us = 0;
  /// Request tracer shared across the serving stack (null disables span
  /// recording). The scheduler records admit/queue/coalesce/dispatch/expire
  /// spans on it, stamped through the injected Clock.
  std::shared_ptr<obs::Tracer> tracer;
  /// Shard index: the `shard` label on this queue's metrics and the lane of
  /// its trace spans. A cluster numbers its shards; standalone engines use 0.
  int shard = 0;
};

/// The bounded, discipline-aware, coalescing admission queue. Thread-safe;
/// any number of producers (push) and consumers (pop) may run concurrently.
class Scheduler {
 public:
  /// One admitted request with its scheduling state. `deadline_s` is the
  /// *absolute* clock time the request expires at (+inf when the request set
  /// none); `seq` is the admission order, the FIFO key and the EDF
  /// tie-break; `ckey` is the precomputed coalescing key.
  struct Item {
    ServeRequest req;
    std::promise<ServeResponse> promise;
    double enqueued_s = 0.0;
    double deadline_s = std::numeric_limits<double>::infinity();
    std::uint64_t seq = 0;
    std::string ckey;
  };

  /// One pop's worth of work. Exactly one item unless the pop coalesced:
  /// then every item is a single-image request with the same ckey, in
  /// dispatch order, and the consumer runs them as one batch and demuxes.
  struct Dispatch {
    std::vector<Item> items;
    /// Clock time of the dispatch decision (per-item queue_wait_s =
    /// popped_s - enqueued_s).
    double popped_s = 0.0;
  };

  /// A null `clock` selects a private SteadyClock.
  Scheduler(SchedulerOptions opt, std::shared_ptr<Clock> clock);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admit `req` and return the future its consumer will resolve. A full
  /// queue blocks or rejects per the policy; rejected (and post-stop)
  /// requests resolve immediately as kRejected without ever enqueueing.
  std::future<ServeResponse> push(ServeRequest req) EXCLUDES(mu_);

  /// Block for the next dispatch. Expired requests are resolved kExpired
  /// (and skipped) here, lazily, wherever they sit in the backlog. Returns
  /// false when the scheduler is stopping and nothing remains to run — the
  /// consumer's signal to exit. A coalescing pop may wait on the Clock for
  /// the batching window; it never waits past SchedulerOptions'
  /// coalesce_wait_us of *queue* time.
  bool pop(Dispatch* out) EXCLUDES(mu_);

  /// Non-blocking pop: like pop(), but returns false instead of waiting
  /// when nothing is runnable, and flushes a coalescible head immediately
  /// with whatever peers are already queued (no batching window). Meant for
  /// tests and drain loops.
  bool try_pop(Dispatch* out) EXCLUDES(mu_);

  /// Count `requests` completed executions (the consumer calls this after a
  /// dispatch runs successfully; a coalesced dispatch counts every rider).
  /// Also retires them from the in-flight gauge, and `seconds` (the sum of
  /// the retired requests' cost_s) from the in-flight half of load_seconds().
  void record_completed(std::size_t requests, double seconds = 0.0)
      EXCLUDES(mu_);

  /// Retire `requests` from the in-flight gauge without counting them as
  /// completed — the consumer's path for dispatches that ended in an
  /// exception (the promise carries the error instead of a response).
  void record_failed(std::size_t requests, double seconds = 0.0) EXCLUDES(mu_);

  /// Wake blocked producers (they self-reject), resolve the whole backlog
  /// as kRejected, and make every current and future pop() return false.
  /// Idempotent; the destructor calls it.
  void stop() EXCLUDES(mu_);

  QueueStats stats() const EXCLUDES(mu_);
  /// Requests currently queued (excludes items a pop holds in its window).
  std::size_t depth() const EXCLUDES(mu_);
  /// Requests popped but not yet retired by record_completed/record_failed —
  /// including a head a coalescing pop holds in its open window.
  std::size_t in_flight() const EXCLUDES(mu_);
  /// The load gauge a cluster router balances on: queued + in-flight, read
  /// atomically under the queue mutex so two shards' loads compared by the
  /// router are each internally consistent.
  std::size_t load() const EXCLUDES(mu_);
  /// The cost-aware twin of load(): predicted simulated seconds of work
  /// queued plus in flight (the sum of admitted-but-unretired requests'
  /// cost_s), maintained under the same mutex so the two gauges are mutually
  /// consistent. Requests submitted without a cost prediction contribute 0,
  /// degrading this gauge gracefully toward "nothing known".
  double load_seconds() const EXCLUDES(mu_);
  /// Restart the depth watermark at the current backlog and return the old
  /// mark; stats().max_depth keeps the lifetime mark. A cluster replay
  /// brackets each shard with these two calls.
  std::int64_t reset_depth_watermark() EXCLUDES(mu_);
  std::int64_t depth_watermark() const EXCLUDES(mu_);

  /// Earliest future instant the queue needs the Clock to reach — the close
  /// of the earliest open coalescing window (already capped by its head's
  /// deadline) or the expiry of the earliest queued deadline. +inf when
  /// neither exists. The workload simulator advances its ManualClock to
  /// min(next arrival, this, completion holds) so windows close and
  /// deadlines expire at their exact virtual instants instead of being
  /// overshot (an overshot expiry would mis-stamp the kExpired latency).
  /// Expiry is lazy and strict (`now > deadline`), so the reported instant
  /// is nextafter(deadline): the first representable time the drop can
  /// happen. Resolves any already-due items itself — a queued deadline has
  /// no dedicated waiter, so without that a virtual-time driver stepping
  /// exactly to the reported instant would spin on it forever.
  double next_wakeup_s() EXCLUDES(mu_);

  /// True when this queue cannot make progress without new work or time
  /// moving: every one of `workers` consumers is parked — in the empty-queue
  /// wait, holding an open window, or in one of the engine's
  /// `parked_outside` completion holds — and no dispatchable head is being
  /// ignored by an idle consumer. The simulator only advances virtual time
  /// when every shard is settled, so host execution time never leaks into
  /// virtual timestamps (popped_s, completion instants) nondeterministically.
  bool settled(std::size_t workers, std::size_t parked_outside) const
      EXCLUDES(mu_);

  const SchedulerOptions& options() const { return opt_; }
  Clock& clock() { return *clock_; }

 private:
  bool pop_impl(Dispatch* out, bool blocking) EXCLUDES(mu_);
  /// Resolve one item as kExpired (counter + stub + waits). Lock held.
  void resolve_expired_locked(Item&& it, double now_s) REQUIRES(mu_);
  /// Resolve every queued item whose deadline has passed. Lock held.
  void expire_due_locked() REQUIRES(mu_);
  /// Index of the next dispatchable item per the discipline, skipping
  /// coalescible items whose key another worker's open window has reserved
  /// (they ride that window's batch instead); -1 when nothing is
  /// dispatchable. Lock held.
  int select_head_locked() const REQUIRES(mu_);
  /// Remove and return q_[idx], keeping the discipline's invariants (heap
  /// fast path when idx is the root). Lock held.
  Item take_at_locked(std::size_t idx) REQUIRES(mu_);
  /// Queued single-image items sharing `ckey`. Lock held.
  std::size_t matches_locked(const std::string& ckey) const REQUIRES(mu_);
  /// Move up to `limit` ckey-matching items into `out` in dispatch order.
  /// Lock held.
  void extract_matches_locked(const std::string& ckey, std::size_t limit,
                              std::vector<Item>* out) REQUIRES(mu_);
  /// Drop the moved-from tail [w, end) after an in-place compaction and
  /// re-establish the EDF heap. Lock held.
  void erase_compacted_locked(std::size_t w) REQUIRES(mu_);
  /// Re-establish the EDF heap after arbitrary removals. Lock held.
  void reheap_locked() REQUIRES(mu_);
  /// Refresh the queue-depth / in-flight gauges from q_.size() and
  /// in_flight_. Lock held; no-op when obs is disabled.
  void update_gauges_locked() REQUIRES(mu_);
  /// Record a span for `it` on the configured tracer (no-op without one or
  /// with obs disabled). end_s == begin_s records an instant.
  void trace_item(const char* name, const Item& it, double begin_s,
                  double end_s) const;

  SchedulerOptions opt_;
  std::shared_ptr<Clock> clock_;

  /// Registry metric handles, bound once at construction (family children
  /// are never erased, so the pointers are stable); updates are lock-free
  /// atomic bumps gated on obs::enabled().
  struct Metrics {
    obs::Counter* accepted;
    obs::Counter* rejected;
    obs::Counter* expired;
    obs::Counter* completed;
    obs::Counter* blocked;
    obs::Counter* coalesced_batches;
    obs::Counter* coalesced_items;
    obs::Gauge* depth;
    obs::Gauge* in_flight;
    obs::Gauge* depth_seconds;
    obs::Gauge* in_flight_seconds;
    obs::Histogram* queue_wait;
  };
  Metrics m_;

  mutable Mutex mu_;
  CondVar cv_pop_;        // consumers; clock-registered
  CondVar cv_not_full_;   // blocked producers
  CondVar cv_producers_done_;
  /// FIFO: arrival (seq) order, O(1) pop_front. EDF: binary heap over the
  /// same (random-access) container, earliest deadline at the root.
  std::deque<Item> q_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Threads currently inside push. stop() wakes blocked producers (they
  /// resolve their futures as kRejected) and waits for this to reach zero
  /// before rejecting the backlog.
  int producers_ GUARDED_BY(mu_) = 0;
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  /// Queued items carrying a finite deadline — lets the lazy expiry scan
  /// return immediately for deadline-free traffic instead of walking the
  /// backlog on every pop.
  std::size_t deadlined_ GUARDED_BY(mu_) = 0;
  /// Requests popped (claimed by a consumer) but not yet retired via
  /// record_completed/record_failed; a window-holding head counts too.
  std::int64_t in_flight_ GUARDED_BY(mu_) = 0;
  /// Sum of queued items' predicted cost_s — the queued half of
  /// load_seconds(). Every queue mutation (push, take, extract, expire,
  /// stop) keeps it in step with q_.
  double queued_seconds_ GUARDED_BY(mu_) = 0.0;
  /// Sum of claimed-but-unretired requests' cost_s — the in-flight half of
  /// load_seconds(), moved here from queued_seconds_ at pop and retired by
  /// record_completed/record_failed.
  double in_flight_seconds_ GUARDED_BY(mu_) = 0.0;
  /// Consumers parked in the empty-queue wait of pop() right now.
  std::size_t idle_waiters_ GUARDED_BY(mu_) = 0;
  /// Coalescing keys with an open batching window (one waiter per key),
  /// mapped to the instant the window's clock wait ends (min of window close
  /// and the head's deadline) — the feed for next_wakeup_s().
  std::unordered_map<std::string, double> window_keys_ GUARDED_BY(mu_);
  QueueStats qstats_ GUARDED_BY(mu_);
  /// Queue high-water mark since the last reset_depth_watermark().
  std::int64_t depth_watermark_ GUARDED_BY(mu_) = 0;
};

}  // namespace fcm::serving
