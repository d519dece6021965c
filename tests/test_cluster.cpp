// Cluster serving tests: router policies as pure strategies over ShardState,
// then the ServingCluster end to end — exact round-robin fan-out, the
// race-free load gauge (queued + in-flight under one lock), least-loaded
// routing around a deliberately skewed backlog on a frozen ManualClock (zero
// real sleeps), pending-route reservations that keep two concurrent picks
// off one shard, seconds-based routing out-serving count-based and
// round-robin routing on a heterogeneous virtual-time replay, per-shard
// report aggregation, and the acceptance bit-identity: a homogeneous cluster
// serves the same mix bit-identical to a single engine — routing never
// touches numerics.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/random.hpp"
#include "gpusim/device_spec.hpp"
#include "models/model_zoo.hpp"
#include "serving/cluster.hpp"
#include "serving/router.hpp"
#include "workload/sim_replay.hpp"
#include "workload/trace.hpp"

namespace fcm::serving {
namespace {

ShardState shard(std::size_t index, std::size_t load,
                 std::int64_t routed = 0) {
  ShardState s;
  s.index = index;
  s.load = load;
  s.routed = routed;
  return s;
}

TEST(RouterPolicy, NamesRoundTripAndRejectUnknown) {
  for (const auto p : {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
                       RouterPolicy::kLeastRequests}) {
    const auto back = router_policy_from_name(router_policy_name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(router_policy_from_name("weighted").has_value());
  EXPECT_FALSE(router_policy_from_name("").has_value());
  // A removed policy is an unknown spelling, not a silent fallback.
  EXPECT_FALSE(router_policy_from_name("plan-affinity").has_value());
}

TEST(Router, RoundRobinCyclesExactlyRegardlessOfLoad) {
  auto r = make_router(RouterPolicy::kRoundRobin);
  EXPECT_EQ(r->policy(), RouterPolicy::kRoundRobin);
  const std::vector<ShardState> shards = {shard(0, 99), shard(1, 0),
                                          shard(2, 5)};
  for (const std::size_t want : {0u, 1u, 2u, 0u, 1u, 2u, 0u}) {
    EXPECT_EQ(r->pick(shards), want);
  }
}

TEST(Router, LeastLoadedPicksMinLoadAndBreaksTiesByRoutedCount) {
  auto r = make_router(RouterPolicy::kLeastLoaded);
  EXPECT_EQ(r->policy(), RouterPolicy::kLeastLoaded);
  EXPECT_EQ(r->pick({shard(0, 5), shard(1, 2), shard(2, 9)}), 1u);
  EXPECT_EQ(r->pick({shard(0, 0), shard(1, 2), shard(2, 9)}), 0u);
  // All idle: the routed-count tie-break (fed by the cluster) fans out
  // instead of funnelling every pick into shard 0.
  EXPECT_EQ(r->pick({shard(0, 0, 1), shard(1, 0, 1), shard(2, 0, 0)}), 2u);
  // Tie on both load and routed count: lowest index (first seen) wins.
  EXPECT_EQ(r->pick({shard(0, 3, 2), shard(1, 3, 2)}), 0u);
  // Load always dominates the routed count.
  EXPECT_EQ(r->pick({shard(0, 1, 0), shard(1, 0, 9)}), 1u);
}

ShardState costed(std::size_t index, double load_seconds, double est_cost_s,
                  std::size_t load = 0) {
  ShardState s;
  s.index = index;
  s.load = load;
  s.load_seconds = load_seconds;
  s.est_cost_s = est_cost_s;
  return s;
}

// The cost-aware pick: predicted seconds of work — including what the
// routed request itself would add on each candidate — dominate the request
// count; counts only break exact seconds ties.
TEST(Router, LeastLoadedBalancesSecondsOfWorkNotRequestCounts) {
  auto r = make_router(RouterPolicy::kLeastLoaded);
  // Fewer requests but more seconds loses: one slow-device request
  // outweighs three fast ones.
  EXPECT_EQ(r->pick({costed(0, 0.9, 0.0, 1), costed(1, 0.3, 0.0, 3)}), 1u);
  // The request's own per-shard price tips an equal-backlog tie toward the
  // faster device.
  EXPECT_EQ(r->pick({costed(0, 0.5, 0.2), costed(1, 0.5, 0.1)}), 1u);
  // A cheaper landing spot beats an equal-count emptier-looking shard when
  // the sums say otherwise: 0.4+0.1 < 0.0+0.6.
  EXPECT_EQ(r->pick({costed(0, 0.0, 0.6), costed(1, 0.4, 0.1)}), 1u);
}

// With nothing priced, every seconds term is zero and least-loaded must
// degrade exactly to the count-based pick (load, then routed, then index).
TEST(Router, LeastLoadedDegradesToCountsWhenNothingIsPriced) {
  auto r = make_router(RouterPolicy::kLeastLoaded);
  EXPECT_EQ(r->pick({shard(0, 5), shard(1, 2), shard(2, 9)}), 1u);
  EXPECT_EQ(r->pick({shard(0, 0, 1), shard(1, 0, 1), shard(2, 0, 0)}), 2u);
}

// The legacy baseline ignores the seconds gauges entirely — it exists so
// the heterogeneous-bursts acceptance test can compare cost-aware routing
// against pure join-shortest-queue.
TEST(Router, LeastRequestsIgnoresSecondsGauges) {
  auto r = make_router(RouterPolicy::kLeastRequests);
  EXPECT_EQ(r->policy(), RouterPolicy::kLeastRequests);
  EXPECT_EQ(r->pick({costed(0, 9.0, 9.0, 1), costed(1, 0.0, 0.0, 2)}), 0u);
  EXPECT_EQ(r->pick({shard(0, 3, 2), shard(1, 3, 1)}), 1u);
}

/// `n` deterministic Tiny-shaped FP32 inputs seeded from `seed0`.
std::vector<TensorF> tiny_batch_f32(int n, std::uint64_t seed0) {
  const FmShape shape = models::tiny().layers.front().ifm_shape();
  std::vector<TensorF> batch;
  for (int i = 0; i < n; ++i) {
    TensorF in(shape);
    fill_uniform(in, seed0 + static_cast<std::uint64_t>(i));
    batch.push_back(std::move(in));
  }
  return batch;
}

std::vector<TensorI8> tiny_batch_i8(int n, std::uint64_t seed0) {
  const FmShape shape = models::tiny().layers.front().ifm_shape();
  std::vector<TensorI8> batch;
  for (int i = 0; i < n; ++i) {
    TensorI8 in(shape);
    fill_uniform_i8(in, seed0 + static_cast<std::uint64_t>(i));
    batch.push_back(std::move(in));
  }
  return batch;
}

TEST(ServingCluster, RoundRobinFanOutIsExact) {
  ClusterOptions opt;
  opt.engine.seed = 77;
  opt.router = RouterPolicy::kRoundRobin;
  ServingCluster cluster({gpusim::jetson_orin(), gpusim::jetson_orin()}, opt);
  ASSERT_EQ(cluster.size(), 2u);

  std::vector<std::future<ServeResponse>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(cluster.submit_async(
        ServeRequest::f32("Tiny", tiny_batch_f32(1, 100 + i))));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());

  const auto routed = cluster.routed();
  ASSERT_EQ(routed.size(), 2u);
  EXPECT_EQ(routed[0], 3);
  EXPECT_EQ(routed[1], 3);
  EXPECT_EQ(cluster.engine(0).queue_stats().accepted, 3);
  EXPECT_EQ(cluster.engine(1).queue_stats().accepted, 3);
  EXPECT_EQ(cluster.engine(0).queue_stats().completed, 3);
  EXPECT_EQ(cluster.engine(1).queue_stats().completed, 3);
}

// The satellite load gauge: queued + in-flight under one lock. A frozen
// batching window parks the single worker with the head claimed (in-flight)
// while the peers stay queued — the gauge must count both, and drain to
// zero once virtual time releases the window.
TEST(ServingCluster, LoadGaugeCountsQueuedAndInFlight) {
  auto clock = std::make_shared<ManualClock>();
  EngineOptions opt;
  opt.seed = 77;
  opt.queue_workers = 1;
  opt.scheduler.max_coalesce_batch = 8;          // budget never fills with 3
  opt.scheduler.coalesce_wait_us = 1'000'000;    // 1 virtual second, frozen
  opt.clock = clock;
  InferenceEngine engine(gpusim::jetson_orin(), opt);

  std::vector<std::future<ServeResponse>> futs;
  for (int i = 0; i < 3; ++i) {
    futs.push_back(engine.submit_async(
        ServeRequest::f32("Tiny", tiny_batch_f32(1, 200 + i))));
  }
  // Wherever the worker is — not yet popped (3 queued) or parked in its
  // window (1 in-flight + 2 queued) — the load gauge reads exactly 3.
  EXPECT_EQ(engine.load(), 3u);
  const QueueStats st = engine.queue_stats();
  EXPECT_EQ(st.queued + st.in_flight, 3);

  clock->advance(2.0);  // close the window: the merged batch dispatches
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  // Each rider is recorded (completed + in-flight retirement) before its
  // promise resolves, so the drained gauge is visible the moment the last
  // future is.
  EXPECT_EQ(engine.load(), 0u);
  const QueueStats done = engine.queue_stats();
  EXPECT_EQ(done.completed, 3);
  EXPECT_EQ(done.queued, 0);
  EXPECT_EQ(done.in_flight, 0);
  EXPECT_EQ(done.coalesced_batches, 1);
  EXPECT_EQ(done.coalesced_items, 3);
}

// The load gauge under concurrency: queued + in-flight is read under ONE
// lock, so no sampled snapshot may ever see a request in neither state
// (popped but not yet counted in-flight) or both. K requests go in, T
// threads drain with try_pop + record_completed while every participant
// samples the gauge; every sample must stay within [0, K] and the fully
// drained scheduler must read exactly zero. Deterministic in outcome (the
// counters must tile K exactly) though not in interleaving — TSan checks
// the latter in CI.
TEST(ServingCluster, LoadGaugeConsistentUnderConcurrentPops) {
  constexpr std::size_t kRequests = 16;
  SchedulerOptions opt;
  opt.queue_depth = kRequests;
  Scheduler sched(opt, nullptr);

  const FmShape shape = models::tiny().layers.front().ifm_shape();
  std::vector<std::future<ServeResponse>> futs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    TensorF in(shape);
    fill_uniform(in, 600 + static_cast<std::uint64_t>(i));
    std::vector<TensorF> batch;
    batch.push_back(std::move(in));
    futs.push_back(sched.push(ServeRequest::f32("Tiny", std::move(batch))));
  }
  EXPECT_EQ(sched.load(), kRequests);

  std::atomic<std::size_t> drained{0};
  std::vector<std::thread> poppers;
  for (int t = 0; t < 4; ++t) {
    poppers.emplace_back([&] {
      Scheduler::Dispatch d;
      while (sched.try_pop(&d)) {
        // The popped item moved from queued to in-flight atomically: the
        // gauge still counts it until record_completed retires it.
        const QueueStats held = sched.stats();
        EXPECT_GE(held.queued + held.in_flight,
                  static_cast<std::int64_t>(d.items.size()));
        for (auto& it : d.items) {
          it.promise.set_value(response_stub(it.req, ServeStatus::kOk));
        }
        sched.record_completed(d.items.size());
        drained.fetch_add(d.items.size(), std::memory_order_relaxed);
        // Every snapshot is internally consistent: the two gauges are read
        // under the same lock, so their sum can never exceed the requests
        // still unretired nor dip below zero.
        const QueueStats st = sched.stats();
        EXPECT_GE(st.queued, 0);
        EXPECT_GE(st.in_flight, 0);
        EXPECT_LE(st.queued + st.in_flight,
                  static_cast<std::int64_t>(kRequests));
      }
    });
  }
  for (auto& th : poppers) th.join();

  EXPECT_EQ(drained.load(), kRequests);
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(sched.load(), 0u);
  const QueueStats done = sched.stats();
  EXPECT_EQ(done.completed, static_cast<std::int64_t>(kRequests));
  EXPECT_EQ(done.queued, 0);
  EXPECT_EQ(done.in_flight, 0);
}

// Least-loaded routing drains around a deliberately skewed backlog: shard 0
// is pre-loaded with three requests held by a frozen coalescing window, so
// every cluster submit must go to the idle shard 1. ManualClock, zero real
// sleeps.
TEST(ServingCluster, LeastLoadedRoutesAroundASkewedBacklog) {
  auto clock = std::make_shared<ManualClock>();
  ClusterOptions opt;
  opt.engine.seed = 77;
  opt.engine.queue_workers = 1;
  opt.engine.scheduler.max_coalesce_batch = 8;
  opt.engine.scheduler.coalesce_wait_us = 1'000'000;
  opt.engine.clock = clock;
  opt.router = RouterPolicy::kLeastLoaded;
  ServingCluster cluster({gpusim::jetson_orin(), gpusim::jetson_orin()}, opt);

  // Skew shard 0 directly (bypassing the router): its worker claims the
  // head and parks in the frozen window; the rest queue behind it.
  std::vector<std::future<ServeResponse>> futs;
  for (int i = 0; i < 3; ++i) {
    futs.push_back(cluster.engine(0).submit_async(
        ServeRequest::f32("Tiny", tiny_batch_f32(1, 300 + i))));
  }
  EXPECT_EQ(cluster.engine(0).load(), 3u);
  EXPECT_EQ(cluster.engine(1).load(), 0u);

  // Both routed submits must join the shortest queue — shard 1.
  for (int i = 0; i < 2; ++i) {
    futs.push_back(cluster.submit_async(
        ServeRequest::f32("Tiny", tiny_batch_f32(1, 400 + i))));
  }
  const auto routed = cluster.routed();
  EXPECT_EQ(routed[0], 0);
  EXPECT_EQ(routed[1], 2);
  EXPECT_EQ(cluster.engine(1).queue_stats().accepted, 2);

  clock->advance(2.0);  // release every window; both shards drain
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
}

// The stale-snapshot regression: shard gauges are sampled before the
// routing lock, so two decisions made before either request reaches its
// queue used to read identical zero loads and dogpile one shard. The
// pending-route fold must steer the second pick elsewhere.
TEST(ServingCluster, ConcurrentRouteDecisionsDoNotDogpileOneShard) {
  ClusterOptions opt;
  opt.engine.seed = 77;
  opt.router = RouterPolicy::kLeastLoaded;
  ServingCluster cluster({gpusim::rtx_a4000(), gpusim::rtx_a4000()}, opt);
  // Price the model on both shards so the routed request's own predicted
  // cost participates in each pick.
  cluster.engine(0).predict_cost_s("Tiny", DType::kF32, 1);
  cluster.engine(1).predict_cost_s("Tiny", DType::kF32, 1);

  const ServeRequest req = ServeRequest::f32("Tiny", tiny_batch_f32(1, 400));
  // Two routing decisions, neither request enqueued yet — exactly the racy
  // window between a begin_route and its enqueue.
  const auto t1 = cluster.begin_route(req);
  const auto t2 = cluster.begin_route(req);
  EXPECT_NE(t1.shard, t2.shard)
      << "second decision ignored the first one's pending reservation";
  EXPECT_GT(t1.est_cost_s, 0.0);
  cluster.end_route(t1);
  cluster.end_route(t2);
  // Reservations lifted: the gauges are balanced again, so the next pick is
  // free to reuse either shard.
  const auto t3 = cluster.begin_route(req);
  cluster.end_route(t3);
}

// Routing acceptance: on a heterogeneous GTX+RTX cluster, balancing
// predicted seconds of work strictly out-serves balancing request counts
// and blind round-robin. The workload is bursty with per-request deadlines:
// the count and round-robin policies half-split each burst, so the slow
// shard's tail waits ~3 GTX service times and expires; the seconds policy
// assigns the slow shard only the work it can clear inside the deadline, so
// every request completes. All three policies are work-conserving, so
// sustained saturation would mask the difference — deadline shedding under
// bursts is where cost-awareness pays.
TEST(ServingCluster,
     SecondsRoutingBeatsCountAndRoundRobinOnHeterogeneousBursts) {
  // XCe is strongly compute-bound: the GTX serves it ~1.8x slower than the
  // RTX, the heterogeneity this test exercises.
  ServingCluster pricer({gpusim::gtx1660(), gpusim::rtx_a4000()});
  const double s_gtx = pricer.engine(0).predict_cost_s("XCe", DType::kF32, 1);
  const double s_rtx = pricer.engine(1).predict_cost_s("XCe", DType::kF32, 1);
  ASSERT_LT(s_rtx, s_gtx);
  // Premise for the deadline window below: a half-split burst's GTX tail
  // (3 GTX services of wait) overshoots what the RTX-heavy seconds split
  // ever waits (~5 RTX services). Holds while GTX/RTX > ~5/3.
  ASSERT_LT(5.0 * s_rtx, 3.0 * s_gtx);
  const double deadline_s = 0.5 * (3.0 * s_gtx + 5.0 * s_rtx);

  // 20 bursts of 8 simultaneous arrivals, spaced so both shards fully
  // drain between bursts (worst backlog is ~4 GTX services).
  workload::Trace trace;
  trace.name = "heterogeneous-bursts";
  for (int b = 0; b < 20; ++b) {
    for (int k = 0; k < 8; ++k) {
      workload::TraceRecord r;
      r.t_s = static_cast<double>(b) * (8.0 * s_gtx);
      r.model = "XCe";
      r.deadline_s = deadline_s;
      r.seed = static_cast<std::uint64_t>(1000 + b * 8 + k);
      trace.requests.push_back(r);
    }
  }

  constexpr int kPolicies = 3;
  const RouterPolicy policies[kPolicies] = {RouterPolicy::kLeastLoaded,
                                            RouterPolicy::kLeastRequests,
                                            RouterPolicy::kRoundRobin};
  std::int64_t completed[kPolicies] = {};
  std::int64_t expired[kPolicies] = {};
  for (int p = 0; p < kPolicies; ++p) {
    // The fcmsim replay configuration: one worker per shard holding each
    // request for its simulated time on the virtual clock, kReject.
    auto clock = std::make_shared<ManualClock>();
    ClusterOptions opt;
    opt.engine.clock = clock;
    opt.engine.queue_workers = 1;
    opt.engine.sim_dilation = 1.0;
    opt.engine.virtual_hold = true;
    opt.engine.scheduler.policy = AdmissionPolicy::kReject;
    opt.engine.scheduler.queue_depth = 4096;
    opt.router = policies[p];
    ServingCluster cluster({gpusim::gtx1660(), gpusim::rtx_a4000()}, opt);
    // Pre-price the model on both shards so cost-aware decisions start at
    // the first burst instead of after a warmup.
    cluster.engine(0).predict_cost_s("XCe", DType::kF32, 1);
    cluster.engine(1).predict_cost_s("XCe", DType::kF32, 1);
    const ServingReport report =
        workload::sim_replay(cluster, clock, trace, {}, nullptr);
    completed[p] = report.queue.completed;
    expired[p] = report.queue.expired;
  }
  for (int p = 1; p < kPolicies; ++p) {
    EXPECT_GT(completed[0], completed[p])
        << "seconds-based routing should complete strictly more than "
        << router_policy_name(policies[p]) << " (expired: " << expired[0]
        << " vs " << expired[p] << ")";
    EXPECT_LT(expired[0], expired[p]);
    EXPECT_EQ(completed[0] + expired[0], completed[p] + expired[p]);
  }
}

// Acceptance: a homogeneous cluster serves a mix bit-identical to a single
// engine of the same device and seed — the routing hop never changes
// numerics, FP32 or INT8.
TEST(ServingCluster, OutputsBitIdenticalToSingleEngine) {
  ClusterOptions copt;
  copt.engine.seed = 77;
  copt.router = RouterPolicy::kRoundRobin;
  ServingCluster cluster({gpusim::jetson_orin(), gpusim::jetson_orin()},
                         copt);
  EngineOptions eopt;
  eopt.seed = 77;
  InferenceEngine engine(gpusim::jetson_orin(), eopt);

  std::vector<std::future<ServeResponse>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(cluster.submit_async(
        ServeRequest::f32("Tiny", tiny_batch_f32(1, 700 + i))));
  }
  for (int i = 0; i < 6; ++i) {
    ServeResponse got = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.outputs_f32.size(), 1u);
    const ServeResponse want =
        engine.submit(ServeRequest::f32("Tiny", tiny_batch_f32(1, 700 + i)));
    EXPECT_EQ(max_abs_diff(got.outputs_f32[0], want.outputs_f32[0]), 0.0f)
        << "request " << i << " diverged through the cluster";
  }

  for (int i = 0; i < 4; ++i) {
    ServeResponse got =
        cluster.submit(ServeRequest::i8("Tiny", tiny_batch_i8(1, 800 + i)));
    ASSERT_TRUE(got.ok());
    const ServeResponse want =
        engine.submit(ServeRequest::i8("Tiny", tiny_batch_i8(1, 800 + i)));
    ASSERT_EQ(got.outputs_i8[0].size(), want.outputs_i8[0].size());
    for (std::int64_t e = 0; e < got.outputs_i8[0].size(); ++e) {
      ASSERT_EQ(got.outputs_i8[0][e], want.outputs_i8[0][e])
          << "i8 request " << i << " element " << e;
    }
  }
}

// Cluster replay on a ManualClock: pacing advances virtual time only, so the
// report's wall clock is exactly the offered schedule; the per-shard
// breakdown, groups and models must tile the mix exactly.
TEST(ServingCluster, ReplayAggregatesPerShardDeterministically) {
  auto clock = std::make_shared<ManualClock>();
  ClusterOptions opt;
  opt.engine.seed = 77;
  opt.engine.queue_workers = 1;
  opt.engine.clock = clock;
  opt.router = RouterPolicy::kRoundRobin;
  ServingCluster cluster({gpusim::jetson_orin(), gpusim::jetson_orin()}, opt);

  std::vector<ReplayRequest> mix;
  for (int i = 0; i < 8; ++i) {
    mix.push_back({"Tiny", 900 + static_cast<std::uint64_t>(i), DType::kF32,
                   1, 0.0});
  }
  const ServingReport rep = cluster.replay(mix, 100.0);

  EXPECT_EQ(rep.device, "cluster[Jetson-AGX-Orin+Jetson-AGX-Orin]");
  EXPECT_EQ(rep.router, "round-robin");
  // 8 arrivals at 100 req/s: the last submission is at t0 + 7/100. Nothing
  // else moves the virtual clock, so wall_s is exact.
  EXPECT_DOUBLE_EQ(rep.wall_s, 0.07);

  ASSERT_EQ(rep.shards.size(), 2u);
  int shard_requests = 0;
  for (const auto& s : rep.shards) {
    EXPECT_EQ(s.routed, 4);  // round-robin fan-out is exact
    EXPECT_EQ(s.requests, 4);
    EXPECT_EQ(s.items, 4);
    EXPECT_EQ(s.rejected, 0);
    EXPECT_EQ(s.expired, 0);
    EXPECT_EQ(s.queue.accepted, 4);
    EXPECT_EQ(s.queue.completed, 4);
    EXPECT_GT(s.sim_time_s, 0.0);
    shard_requests += s.requests;
  }
  EXPECT_EQ(shard_requests, rep.total_requests());
  EXPECT_EQ(rep.total_requests(), 8);
  ASSERT_EQ(rep.models.size(), 1u);
  EXPECT_EQ(rep.models[0].requests, 8);
  ASSERT_EQ(rep.groups.size(), 1u);
  EXPECT_EQ(rep.groups[0].requests, 8);
  EXPECT_EQ(rep.queue.accepted, 8);
  EXPECT_EQ(rep.queue.completed, 8);
  EXPECT_FALSE(rep.shard_table().empty());
  EXPECT_NE(rep.summary().find("router round-robin"), std::string::npos);
  EXPECT_NE(rep.summary().find("2/2 shards served"), std::string::npos);
}

// A single-device replay is a one-shard cluster: the report names the
// shard's device (no "cluster[...]" list), carries one shard row, and the
// summary names the router.
TEST(ServingCluster, OneShardReportNamesDeviceShardAndRouter) {
  ClusterOptions opt;
  opt.engine.seed = 77;
  ServingCluster cluster({gpusim::jetson_orin()}, opt);
  const ServingReport rep =
      cluster.replay({{"Tiny", 1, DType::kF32, 1, 0.0}});
  EXPECT_EQ(rep.device, gpusim::jetson_orin().name);
  ASSERT_EQ(rep.shards.size(), 1u);
  EXPECT_EQ(rep.shards[0].device, gpusim::jetson_orin().name);
  EXPECT_EQ(rep.shards[0].routed, 1);
  EXPECT_EQ(rep.shards[0].requests, 1);
  EXPECT_FALSE(rep.shard_table().empty());
  EXPECT_NE(rep.summary().find("router round-robin, 1/1 shards served"),
            std::string::npos);
}

}  // namespace
}  // namespace fcm::serving
