// Concurrent inference engine over the plan cache.
//
// The serving surface is a ServeRequest/ServeResponse pair (see
// serving/scheduler.hpp): a request names a model, carries a batch of
// equally-shaped inputs in either precision (a dtype tag selects the FP32 or
// INT8 functional path, with optional per-model quant params routed into
// ModelRunner::run_i8), and may set a queueing deadline. submit() executes a
// request synchronously on the caller's thread; submit_async() pushes it
// through the Scheduler — a bounded admission queue with configurable depth,
// full-queue policy, FIFO or earliest-deadline-first discipline and
// coalescing dynamic batching — and returns a std::future fed by the
// engine's worker threads. Coalesced single-image requests execute as one
// batch (so they inherit the batch cost model's cross-item weight reuse and
// the executor's parallel item loop) and are demuxed back into individual
// responses with per-request latency.
//
// InferenceEngine owns one PlanCache and one ModelRunner per served
// (model, quant) pair (weights materialised once, shared by every request —
// ModelRunner execution is const and thread-safe). Plans come from the cache
// keyed on the request dtype (cold on the first request per key, a hash
// lookup afterwards); kernels run functionally on the simulator. The engine
// does not replay request mixes: a replay is ServingCluster's, and a
// single-device replay is a one-shard cluster (serving/cluster.hpp). All
// host-side timing (latency, deadlines, coalescing windows) flows through
// the injectable Clock, so an engine on a ManualClock is fully
// deterministic in tests. Results are bit-identical to serial ModelRunner
// runs of the same plan: neither concurrency, batching, coalescing nor
// queueing ever changes numerics.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.hpp"
#include "common/thread_annotations.hpp"
#include "runtime/executor.hpp"
#include "serving/hold.hpp"
#include "serving/plan_cache.hpp"
#include "serving/scheduler.hpp"
#include "serving/serving_report.hpp"

namespace fcm::serving {

struct EngineOptions {
  /// LRU bound of the plan cache.
  std::size_t plan_cache_capacity = 32;
  /// Non-empty: persistent plan-cache directory (survives restarts).
  std::string cache_dir;
  /// Seed for every ModelRunner's deterministic weights.
  std::uint64_t seed = 2024;
  /// Planner options baked into every cache key.
  planner::PlanOptions plan_options;
  /// Admission queue: depth, full-queue policy, discipline, coalescing.
  SchedulerOptions scheduler;
  /// Threads draining the admission queue; 0 = hardware concurrency (min 1).
  unsigned queue_workers = 0;
  /// > 0: after executing a dispatch, the queue worker holds it for the
  /// dispatch's simulated GPU time × this factor on the engine clock before
  /// resolving — occupancy pacing. Functional execution costs the same host
  /// time for every simulated device, so without pacing a GTX shard drains
  /// exactly as fast as an RTX shard and queue depth says nothing about
  /// device speed; with it, a shard's drain rate (and therefore the
  /// cluster router's load signal) tracks the simulated device. 0 (the
  /// default) disables: workers run at host speed.
  double sim_dilation = 0.0;
  /// Pacing mode for sim_dilation on a shared virtual clock: instead of
  /// Clock::sleep_until (which on a ManualClock *advances* time from inside
  /// a worker, jumping the whole simulation forward), the worker parks in
  /// CompletionHolds until the clock reaches the release instant, and the
  /// pending release is exposed through next_wakeup_s(). The workload
  /// simulator sets this; on a SteadyClock it degrades to a timed wait.
  bool virtual_hold = false;
  /// Host time source for latency, deadlines, coalescing windows and replay
  /// pacing. Null selects the real SteadyClock; tests inject a ManualClock.
  std::shared_ptr<Clock> clock;
  /// Request tracer shared across this engine and its scheduler (null
  /// disables span recording). Copied into SchedulerOptions::tracer unless
  /// the scheduler options already carry one.
  std::shared_ptr<obs::Tracer> tracer;
  /// Shard index for metric labels and trace lanes; a ServingCluster numbers
  /// its shards, a standalone engine stays 0.
  int shard = 0;
};

class InferenceEngine {
 public:
  explicit InferenceEngine(gpusim::DeviceSpec dev, EngineOptions opt = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Execute `req` synchronously on the calling thread (no admission queue).
  /// Thread-safe; throws fcm::Error for unknown models, empty or
  /// mixed-shape batches, or INT8 requests on models with standard convs.
  ServeResponse submit(const ServeRequest& req);

  /// Queue `req` for execution by the engine's worker threads and return the
  /// future response. A full queue blocks or rejects according to the
  /// scheduler policy; a rejected request resolves immediately with
  /// ServeStatus::kRejected. Failures inside execution (unknown model, bad
  /// shape) surface as exceptions on future.get().
  std::future<ServeResponse> submit_async(ServeRequest req);

  /// The plan this engine executes `model_name` with (through the cache).
  std::shared_ptr<const planner::Plan> plan_for(const std::string& model_name,
                                                DType dtype = DType::kF32);

  /// The shared default-quant runner for `model_name`, built on first use.
  std::shared_ptr<const runtime::ModelRunner> runner(
      const std::string& model_name);

  const gpusim::DeviceSpec& device() const { return dev_; }
  const EngineOptions& options() const { return opt_; }
  PlanCache& plan_cache() { return cache_; }
  Clock& clock() { return *clock_; }
  /// Lifetime admission-queue counters (a cluster replay reports deltas of
  /// these), including the queued/in-flight gauges at snapshot time.
  QueueStats queue_stats() const { return scheduler_.stats(); }
  /// Current load of this engine's admission queue: queued + in-flight,
  /// read under one lock — the signal the cluster router balances on.
  std::size_t load() const { return scheduler_.load(); }
  /// Cost-aware load gauge: predicted simulated seconds of work queued plus
  /// in flight on this engine (see Scheduler::load_seconds).
  double load_seconds() const { return scheduler_.load_seconds(); }

  /// Predicted simulated seconds for one `batch`-item request of `model` —
  /// the plan's summed per-step roofline estimate × batch, memoised per
  /// (model, dtype). Plans through the cache on first use, so the first call
  /// per key pays a cold plan; submit_async stamps this into
  /// ServeRequest::cost_s at admission. Throws for unknown models.
  double predict_cost_s(const std::string& model, DType dtype, int batch)
      EXCLUDES(dry_mu_);
  /// Memo-only variant: the prediction if this engine has already priced
  /// (model, dtype), nullopt otherwise. Never plans — a cluster router asks
  /// every shard per pick, and a forcing lookup here would cold-plan the
  /// model on all shards and put planning latency on the routing path.
  std::optional<double> try_predict_cost_s(const std::string& model,
                                           DType dtype, int batch)
      EXCLUDES(dry_mu_);
  /// Queue high-water mark bracketing (a cluster replay brackets every
  /// shard with these two calls).
  std::int64_t reset_depth_watermark() {
    return scheduler_.reset_depth_watermark();
  }
  std::int64_t depth_watermark() const { return scheduler_.depth_watermark(); }

  /// Earliest instant a parked worker is waiting on the Clock for — the
  /// next coalescing-window close or completion-hold release; +inf when
  /// nothing is parked. The virtual-time simulator advances its ManualClock
  /// to min(next arrival, this) across shards.
  double next_wakeup_s();
  /// True when every worker is parked (empty-queue wait, open window, or
  /// completion hold) and no dispatchable work is awaiting an idle worker —
  /// i.e. no host execution is in progress and advancing virtual time
  /// cannot skew any in-flight timestamp. See Scheduler::settled.
  bool settled();

 private:
  /// The untraced execution core shared by the sync and async paths:
  /// validation, runner + plan lookup, batch execution, sim stats. The
  /// public submit() wraps it with id assignment, spans and the latency
  /// histogram; the queue workers wrap it with their own timing instead.
  ServeResponse execute_request(const ServeRequest& req);
  /// The dry-run branch of execute_request: no tensors, no weights, no
  /// kernels — sim stats come from the plan's per-step roofline estimate
  /// (memoised per (model, dtype)) scaled by the dry batch size.
  ServeResponse execute_dry(const ServeRequest& req);
  /// Observe `latency_s` into the per-(model, dtype, batch) histogram.
  void observe_latency(const ServeResponse& resp, double latency_s);
  /// Record a span on the engine tracer (no-op without one / disabled).
  void trace_request(const char* name, std::uint64_t trace_id,
                     const std::string& model, double begin_s,
                     double end_s) const;
  /// The runner serving (model, quant); built once, shared afterwards.
  std::shared_ptr<const runtime::ModelRunner> runner_keyed(
      const std::string& model_name, const std::optional<QuantParams>& quant)
      EXCLUDES(mu_);
  /// Spawn the queue workers on first submit_async.
  void ensure_workers() EXCLUDES(workers_mu_);
  void worker_loop();
  /// Execute one popped item and resolve its promise.
  void run_single(Scheduler::Item item, double popped_s);
  /// Execute a coalesced dispatch as one batch, then demux per-request
  /// responses (individual latency; even 1/n share of the batch sim stats).
  void run_coalesced(Scheduler::Dispatch& d);

  /// Worker-thread count after defaulting (what ensure_workers spawns).
  std::size_t n_workers() const;

  gpusim::DeviceSpec dev_;
  EngineOptions opt_;
  PlanCache cache_;
  std::shared_ptr<Clock> clock_;
  Scheduler scheduler_;
  /// Virtual-hold parking lot for sim_dilation pacing (see hold.hpp);
  /// constructed after clock_, engaged only when opt_.virtual_hold.
  CompletionHolds holds_;

  /// Roofline cost memo: time and traffic per batch item, keyed on
  /// "model|dtype". Feeds dry-run sim stats and the cost_s prediction.
  /// Leaf mutex (plan_for is called before taking it).
  struct DryCost {
    double per_item_s = 0.0;
    std::int64_t per_item_bytes = 0;
  };
  /// The memoised per-item cost of (model, dtype), planning on a miss.
  DryCost dry_cost_for(const std::string& model, DType dtype)
      EXCLUDES(dry_mu_);
  Mutex dry_mu_;
  std::unordered_map<std::string, DryCost> dry_costs_ GUARDED_BY(dry_mu_);

  /// Registry families, bound once at construction; children are fetched
  /// per request (leaf-mutex map lookup) only when obs::enabled().
  struct Metrics {
    obs::Family<obs::Histogram>* latency;       // {model, dtype, batch}
    obs::Family<obs::Gauge>* executed_sim_s;    // {model, dtype}
    obs::Family<obs::Gauge>* predicted_sim_s;   // {model, dtype}
    /// Admission pricings (submit_async) that fell back to cost_s = 0
    /// because predict_cost_s threw — silent before this counter existed,
    /// which let planner failures hide as zero-cost load signals.
    obs::Counter* admission_cost_fallback;
  };
  Metrics m_;

  /// Models already warned about on the admission-pricing fallback path
  /// (once per model per engine, so a hot model cannot flood stderr).
  Mutex warn_mu_;
  std::unordered_set<std::string> warned_models_ GUARDED_BY(warn_mu_);

  /// Lazily-built runner pool keyed on model name + quant override. A runner
  /// under construction is represented by a pending slot other threads wait
  /// on, so weights materialise once.
  struct RunnerSlot {
    std::shared_ptr<const runtime::ModelRunner> runner;
    bool ready = false;
  };
  Mutex mu_;
  CondVar cv_;
  std::unordered_map<std::string, RunnerSlot> runners_ GUARDED_BY(mu_);

  /// Queue workers (lazily started by the first submit_async). Leaf mutex,
  /// never nested with mu_ or the scheduler's lock.
  Mutex workers_mu_;
  std::vector<std::thread> workers_ GUARDED_BY(workers_mu_);
};

}  // namespace fcm::serving
