// A serving cluster: one InferenceEngine shard per device behind a router.
//
// The ROADMAP's multi-engine sharding item made concrete: ServingCluster
// owns N per-device engines — possibly heterogeneous (the gpusim layer
// models three different GPUs) — and keeps the single-engine serving
// contract: submit()/submit_async() take the same ServeRequest and resolve
// the same ServeResponse, they just gain a routing hop. The Router policy
// (router.hpp) picks the shard per request from the shards' race-free load
// gauges (Scheduler::load(): queued + in-flight under one lock, and
// Scheduler::load_seconds(): the same backlog in predicted seconds).
//
// Every shard runs the full single-engine stack (PlanCache → Scheduler →
// workers) with the cluster-wide EngineOptions; the cluster injects ONE
// shared Clock into all shards, so deadlines, pacing and latency live on a
// single timeline and a ManualClock makes whole-cluster tests
// deterministic. replay(mix, offered_rps) paces the mix through the router
// on that clock and aggregates a ServingReport with per-model and
// per-(dtype × batch) sections plus a per-shard breakdown (device,
// routed/completed counts, latency percentiles, queue counter deltas). It is
// the repo's one replay path: a single-device replay is a one-shard cluster,
// and the virtual-time simulator (workload::sim_replay) runs the same
// driver with its own waits. Routing never touches numerics: a
// request's outputs are bit-identical to submitting it to any shard of the
// same device spec and seed directly — test_cluster asserts a homogeneous
// cluster reproduces a single engine bit for bit.
//
// With EngineOptions::sim_dilation set, each shard's workers hold requests
// for their simulated device time, turning the cluster into a small
// heterogeneous serving-cluster simulator: a GTX shard genuinely drains
// slower than an RTX shard, so seconds-based routing completes more
// in-deadline work than round-robin or count-based routing on bursty
// traffic (test_cluster's heterogeneous-bursts test).
//
// Elastic scaling (AutoscaleOptions): when enabled, the cluster holds a
// reserve of pre-built shards beyond the device list and runs a control
// loop at every routing decision, all under the routing lock. Shards form
// an index-ordered prefix structure — [0, serving) accept new work,
// [serving, active) are draining (still finishing their backlog, no new
// routes), the rest are decommissioned/idle. The loop scales UP (extends
// `serving`, reclaiming the nearest draining shard first) when the serving
// shards' summed predicted seconds of outstanding work exceeds
// scale_up_load_s per shard, scales DOWN (shrinks `serving`, turning the
// top shard into a drainer) when the load would still sit below
// scale_down_load_s per remaining shard, and decommissions a drained shard
// the moment its load gauge reaches zero. A cooldown between scale events
// plus the up/down threshold gap provide hysteresis. Idle shards are
// pristine engines (no worker threads, empty caches), so settled() /
// next_wakeup_s() stay correct as shards come and go and the reserve costs
// nothing while decommissioned.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/thread_annotations.hpp"
#include "gpusim/device_spec.hpp"
#include "serving/inference_engine.hpp"
#include "serving/router.hpp"

namespace fcm::serving {

/// The elastic-scaling control loop's knobs. Disabled by default
/// (max_shards == 0): the cluster stays at its fixed device-list size.
struct AutoscaleOptions {
  /// Ceiling on simultaneously serving shards. 0 disables autoscaling;
  /// otherwise must be >= the device-list size — the extra shards are built
  /// up front (pristine engines: no workers, no plans) and brought in and
  /// out of service by the control loop.
  std::size_t max_shards = 0;
  /// Scale up when the serving shards' summed predicted seconds of
  /// outstanding work exceeds this per serving shard.
  double scale_up_load_s = 0.05;
  /// Scale down when the summed work would still be below this per shard
  /// with one shard fewer. Must sit below scale_up_load_s — the gap is the
  /// hysteresis band that keeps steady load from thrashing.
  double scale_down_load_s = 0.01;
  /// Minimum clock seconds between scale events (the other hysteresis).
  double cooldown_s = 0.25;
};

struct ClusterOptions {
  /// Options applied to every shard's engine. The clock field is special:
  /// null makes the cluster create one SteadyClock shared by all shards; a
  /// test-injected ManualClock is likewise shared cluster-wide.
  EngineOptions engine;
  /// Shard selection policy.
  RouterPolicy router = RouterPolicy::kRoundRobin;
  /// Elastic shard scaling (off unless max_shards > 0).
  AutoscaleOptions autoscale;
};

/// One request in a replayed mix; batch item j's input tensor is generated
/// deterministically from `input_seed + j`.
struct ReplayRequest {
  std::string model;
  std::uint64_t input_seed = 1;
  DType dtype = DType::kF32;
  int batch = 1;
  /// Optional queueing deadline, seconds from enqueue (0 = none).
  double deadline_s = 0.0;
  /// Timing-only replay: the driver builds a tensor-less dry-run
  /// ServeRequest instead of generating inputs (the workload simulator's
  /// mode; sim stats come from the plan's roofline estimate).
  bool dry = false;
};

/// Scalar outcome of one replayed request (replay responses carry no
/// outputs, so this is all a report needs).
struct ReplayOutcome {
  ServeStatus status = ServeStatus::kOk;
  double latency_s = 0.0;
  double sim_time_s = 0.0;
  std::int64_t gma_bytes = 0;
};

/// How a replay driver waits. It is called with each submission's absolute
/// arrival instant before that submission (when the mix has an arrival
/// schedule), and with +inf once everything is submitted. `poll` harvests
/// the responses resolved so far and returns true once the whole mix is in.
/// An empty wait sleeps on the clock and leaves the drain to blocking gets;
/// the virtual-time simulator steps its ManualClock instead.
using ReplayWait =
    std::function<void(double due_s, const std::function<bool()>& poll)>;

/// The replay driver: materialises each request (outputs discarded, item j
/// seeded with input_seed + j), waits until request i's arrival
/// t0 + arrivals[i] (absolute targets off a single origin — a slow submit
/// makes later requests late, never *shifts* the schedule), submits it
/// through `submit` (called with the concrete request and its mix index —
/// the cluster routes here) and harvests responses incrementally in
/// submission order. `arrivals` must be non-decreasing and sized like
/// `mix`, or empty for submit-all-at-once. Sets *wall_s to the clock span
/// from the first submission to the full drain.
std::vector<ReplayOutcome> drive_replay_scheduled(
    const std::vector<ReplayRequest>& mix, const std::vector<double>& arrivals,
    Clock& clock,
    const std::function<std::future<ServeResponse>(ServeRequest, std::size_t)>&
        submit,
    double* wall_s, const ReplayWait& wait = {});

class ServingCluster {
 public:
  /// One shard per device, in order; `devices` must be non-empty and may
  /// repeat a spec (a homogeneous multi-shard cluster).
  explicit ServingCluster(std::vector<gpusim::DeviceSpec> devices,
                          ClusterOptions opt = {});

  ServingCluster(const ServingCluster&) = delete;
  ServingCluster& operator=(const ServingCluster&) = delete;

  /// Route `req` and execute it synchronously on the chosen shard's engine
  /// (no admission queue — the single-engine submit contract).
  ServeResponse submit(const ServeRequest& req);

  /// Route `req` onto a shard's admission queue and return the future its
  /// workers will resolve. Admission control is per shard: a full shard
  /// blocks or rejects by the shard's own policy.
  std::future<ServeResponse> submit_async(ServeRequest req);

  /// Drive `mix` through the router — paced at `offered_rps` on the cluster
  /// clock when > 0 — and aggregate a ServingReport: per-model and
  /// (dtype × batch) stats in first-appearance order, cache/queue deltas
  /// summed over shards, the per-shard breakdown in `report.shards` and the
  /// router policy in `report.router`. Rejected/expired requests count into
  /// queue, group and shard stats but contribute no latency samples.
  /// Outputs are discarded — submit() is the API for callers that need them.
  ServingReport replay(const std::vector<ReplayRequest>& mix,
                       double offered_rps = 0.0);

  /// As replay(), but paced by an explicit per-request absolute arrival
  /// schedule (see drive_replay_scheduled) and waiting through `wait`.
  /// Trace replays — fcmserve --trace-in, and workload::sim_replay with its
  /// virtual-time waits — land here.
  ServingReport replay_scheduled(const std::vector<ReplayRequest>& mix,
                                 const std::vector<double>& arrivals,
                                 const ReplayWait& wait = {});

  /// The routing decision, split out from submission. begin_route() runs
  /// the autoscaler and the router and RESERVES the pick: the shard's
  /// pending delta is folded into every later pick's view of its gauges, so
  /// concurrent routes that race ahead of the actual enqueue cannot dogpile
  /// the same emptiest shard. Every begin_route() must be balanced by
  /// end_route(ticket) once the request is on (or failed to reach) the
  /// shard's queue — the submit paths do this internally; the pair is
  /// public for external drivers and deterministic tests.
  struct RouteTicket {
    std::size_t shard = 0;
    /// The pick-time cost estimate folded into the pending gauge (0 when
    /// the shard had not priced the model).
    double est_cost_s = 0.0;
  };
  RouteTicket begin_route(const ServeRequest& req) EXCLUDES(route_mu_);
  void end_route(const RouteTicket& ticket) EXCLUDES(route_mu_);

  /// Earliest instant any shard's parked worker is waiting on the Clock
  /// for; +inf when none (see InferenceEngine::next_wakeup_s).
  double next_wakeup_s();
  /// True when every shard is settled — no host execution in progress
  /// anywhere, so virtual time may advance (see InferenceEngine::settled).
  bool settled();

  std::size_t size() const { return shards_.size(); }
  InferenceEngine& engine(std::size_t shard) { return *shards_[shard]; }
  const gpusim::DeviceSpec& device(std::size_t shard) const {
    return shards_[shard]->device();
  }
  /// The policy is immutable after construction (opt_.router built the
  /// router), so reading it never needs the routing lock.
  RouterPolicy router_policy() const { return opt_.router; }
  const ClusterOptions& options() const { return opt_; }
  Clock& clock() { return *clock_; }
  /// Requests routed to each shard so far (lifetime, by shard index).
  std::vector<std::int64_t> routed() const EXCLUDES(route_mu_);

  /// Shards currently accepting new work (the [0, serving) prefix). Equals
  /// size() when autoscaling is off.
  std::size_t serving_shards() const EXCLUDES(route_mu_);
  /// Lifetime autoscaler event counters (a replay reports deltas).
  std::int64_t scale_ups() const EXCLUDES(route_mu_);
  std::int64_t scale_downs() const EXCLUDES(route_mu_);

 private:
  /// Counter snapshot taken at replay start so finish_replay can report
  /// deltas over just that replay.
  struct ReplayBracket {
    std::vector<CacheStats> cache_before;
    std::vector<QueueStats> queue_before;
    std::vector<std::int64_t> routed_before;
    std::int64_t scale_ups_before = 0;
    std::int64_t scale_downs_before = 0;
  };
  /// Snapshot every shard's counters and reset depth watermarks.
  ReplayBracket begin_replay();
  /// Aggregate a ServingReport for `mix` with outcomes and per-request shard
  /// assignments, against the counters captured in `bracket`.
  ServingReport finish_replay(const ReplayBracket& bracket,
                              const std::vector<ReplayRequest>& mix,
                              const std::vector<ReplayOutcome>& outcomes,
                              const std::vector<std::size_t>& shard_of,
                              double wall_s);

  /// submit_async that also reports which shard the router picked (the
  /// replay attributes each outcome to its shard).
  std::future<ServeResponse> submit_routed(ServeRequest req,
                                           std::size_t* shard);

  /// The autoscaler control loop, run inside every begin_route with the
  /// pending-folded gauges in hand: decommission drained shards, then at
  /// most one scale event per cooldown. `states` spans all shards in index
  /// order. Lock held.
  void autoscale_locked(const std::vector<ShardState>& states, double now_s)
      REQUIRES(route_mu_);

  ClusterOptions opt_;
  std::shared_ptr<Clock> clock_;
  std::vector<std::unique_ptr<InferenceEngine>> shards_;
  /// Floor of the serving count: the explicit device-list size stays fully
  /// in service without autoscaling; the control loop may drain down to 1.
  std::size_t min_serving_ = 1;

  /// Router state (the round-robin cursor), routed counters, the pending
  /// route reservations and the autoscaler state, serialised across
  /// submitters. Gauges are gathered BEFORE taking route_mu_ — no shard
  /// mutex is ever acquired under it (the lock-ordering rule in
  /// thread_annotations.hpp) — and corrected under it by the pending folds.
  mutable Mutex route_mu_;
  std::unique_ptr<Router> router_ GUARDED_BY(route_mu_) PT_GUARDED_BY(route_mu_);
  std::vector<std::int64_t> routed_ GUARDED_BY(route_mu_);
  /// Routes begun but not yet enqueued (begin_route .. end_route), per
  /// shard: the count and seconds deltas folded into stale gauge snapshots.
  std::vector<std::int64_t> pending_routes_ GUARDED_BY(route_mu_);
  std::vector<double> pending_seconds_ GUARDED_BY(route_mu_);
  /// Shards [0, serving_) are routable; [serving_, active_) are draining.
  std::size_t serving_ GUARDED_BY(route_mu_) = 1;
  std::size_t active_ GUARDED_BY(route_mu_) = 1;
  std::int64_t scale_ups_ GUARDED_BY(route_mu_) = 0;
  std::int64_t scale_downs_ GUARDED_BY(route_mu_) = 0;
  /// Clock time of the last scale event (cooldown anchor).
  double last_scale_s_ GUARDED_BY(route_mu_) =
      -std::numeric_limits<double>::infinity();

  /// Per-shard registry handles (index = shard), bound once at construction:
  /// routing decisions and the load gauges the router just balanced on.
  std::vector<obs::Counter*> m_routed_;
  std::vector<obs::Gauge*> m_load_;
  std::vector<obs::Gauge*> m_load_seconds_;
  /// Autoscaler event counters and the serving-shard gauge.
  obs::Counter* m_scale_ups_ = nullptr;
  obs::Counter* m_scale_downs_ = nullptr;
  obs::Gauge* m_serving_ = nullptr;
};

}  // namespace fcm::serving
