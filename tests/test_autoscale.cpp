// Elastic shard scaling tests: the autoscaler control loop driven entirely
// on a ManualClock (zero real sleeps) — scale-up when the serving shards'
// predicted seconds of backlog exceed the threshold, drain-then-decommission
// once load returns to zero, cooldown and threshold-band hysteresis against
// thrash — plus the acceptance properties: trace replays (flash crowd,
// diurnal) show the autoscaler tracking the offered curve with at least one
// scale event each way, outputs stay bit-identical to a single engine while
// shards come and go, and the virtual-clock replay digest matches a
// real-clock replay of the same trace with autoscaling enabled. Routing on
// the same gauges is tested in test_cluster.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/roofline.hpp"
#include "models/model_zoo.hpp"
#include "serving/cluster.hpp"
#include "workload/generators.hpp"
#include "workload/sim_replay.hpp"
#include "workload/trace.hpp"

namespace fcm::serving {
namespace {

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

/// Tiny's per-item simulated seconds on `dev` — the unit the autoscaler's
/// load thresholds and the cost-aware router reason in.
double tiny_cost_s(const gpusim::DeviceSpec& dev) {
  ServingCluster probe({dev});
  return probe.engine(0).predict_cost_s("Tiny", DType::kF32, 1);
}

/// Cluster whose single worker parks dispatched requests in a frozen
/// 1-virtual-second coalescing window: submitted requests stay on the load
/// gauges (queued or in-flight) until the clock advances, so scale decisions
/// are a pure function of the submission sequence.
ClusterOptions parked_options(const std::shared_ptr<ManualClock>& clock,
                              AutoscaleOptions autoscale) {
  ClusterOptions opt;
  opt.engine.seed = 77;
  opt.engine.queue_workers = 1;
  opt.engine.scheduler.max_coalesce_batch = 8;
  opt.engine.scheduler.coalesce_wait_us = 1'000'000;
  opt.engine.clock = clock;
  opt.router = RouterPolicy::kLeastLoaded;
  opt.autoscale = autoscale;
  return opt;
}

TEST(Autoscale, ConstructorValidatesOptions) {
  AutoscaleOptions bad_max;
  bad_max.max_shards = 1;  // below the 2-device list
  ClusterOptions opt;
  opt.autoscale = bad_max;
  EXPECT_THROW(ServingCluster({gpusim::jetson_orin(), gpusim::jetson_orin()},
                              opt),
               Error);

  AutoscaleOptions bad_band;
  bad_band.max_shards = 2;
  bad_band.scale_up_load_s = 0.01;
  bad_band.scale_down_load_s = 0.01;  // no hysteresis gap
  opt.autoscale = bad_band;
  EXPECT_THROW(ServingCluster({gpusim::jetson_orin()}, opt), Error);

  // Disabled autoscaling ignores the other knobs entirely.
  opt.autoscale = AutoscaleOptions{};
  ServingCluster fixed({gpusim::jetson_orin()}, opt);
  EXPECT_EQ(fixed.size(), 1u);
  EXPECT_EQ(fixed.serving_shards(), 1u);
}

// The core control-loop timeline: backlog on the only serving shard scales
// up into the pre-built reserve; once virtual time drains everything, the
// next routing decision scales back down to the floor.
TEST(Autoscale, ScalesUpOnBacklogThenDrainsBackDown) {
  auto clock = std::make_shared<ManualClock>();
  AutoscaleOptions as;
  as.max_shards = 2;
  as.scale_up_load_s = 1e-9;  // any parked request exceeds this
  as.scale_down_load_s = 1e-10;
  as.cooldown_s = 0.0;
  ServingCluster cluster({gpusim::jetson_orin()},
                         parked_options(clock, as));
  ASSERT_EQ(cluster.size(), 2u);  // the reserve shard is pre-built
  EXPECT_EQ(cluster.serving_shards(), 1u);

  std::vector<std::future<ServeResponse>> futs;
  futs.push_back(cluster.submit_async(
      ServeRequest::f32("Tiny", tiny_batch_f32(1, 100))));
  // Request 1 found an empty cluster: no scale event, shard 0 holds it.
  EXPECT_EQ(cluster.serving_shards(), 1u);
  EXPECT_EQ(cluster.scale_ups(), 0);

  futs.push_back(cluster.submit_async(
      ServeRequest::f32("Tiny", tiny_batch_f32(1, 101))));
  // Request 2's routing decision saw shard 0's parked seconds above the
  // threshold: the reserve shard came into service and took the request.
  EXPECT_EQ(cluster.serving_shards(), 2u);
  EXPECT_EQ(cluster.scale_ups(), 1);
  EXPECT_EQ(cluster.engine(1).load(), 1u);

  clock->advance(2.0);  // close every window; both shards drain
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(cluster.engine(0).load(), 0u);
  EXPECT_EQ(cluster.engine(1).load(), 0u);

  // The next decision sees zero work per remaining shard: scale down.
  auto last = cluster.submit_async(
      ServeRequest::f32("Tiny", tiny_batch_f32(1, 102)));
  EXPECT_EQ(cluster.serving_shards(), 1u);
  EXPECT_EQ(cluster.scale_downs(), 1);
  clock->advance(2.0);
  EXPECT_TRUE(last.get().ok());
}

// The cooldown is the rate limiter: with the clock frozen, only one scale
// event can ever fire no matter how much backlog accumulates.
TEST(Autoscale, CooldownBoundsScaleEvents) {
  auto clock = std::make_shared<ManualClock>();
  AutoscaleOptions as;
  as.max_shards = 4;
  as.scale_up_load_s = 1e-12;
  as.scale_down_load_s = 1e-13;
  as.cooldown_s = 1e9;
  ServingCluster cluster({gpusim::jetson_orin()},
                         parked_options(clock, as));

  std::vector<std::future<ServeResponse>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(cluster.submit_async(
        ServeRequest::f32("Tiny", tiny_batch_f32(1, 200 + i))));
  }
  EXPECT_EQ(cluster.scale_ups(), 1);
  EXPECT_EQ(cluster.serving_shards(), 2u);

  clock->advance(2.0);
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
}

// Load inside the hysteresis band moves neither edge: well under the up
// threshold, and the down threshold cannot fire below the serving floor.
TEST(Autoscale, SteadyLoadInsideTheBandDoesNotThrash) {
  auto clock = std::make_shared<ManualClock>();
  AutoscaleOptions as;
  as.max_shards = 2;
  as.scale_up_load_s = 1e6;  // far above any real backlog
  as.scale_down_load_s = 1e-30;
  as.cooldown_s = 0.0;
  ServingCluster cluster({gpusim::jetson_orin()},
                         parked_options(clock, as));

  std::vector<std::future<ServeResponse>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(cluster.submit_async(
        ServeRequest::f32("Tiny", tiny_batch_f32(1, 300 + i))));
  }
  EXPECT_EQ(cluster.scale_ups(), 0);
  EXPECT_EQ(cluster.scale_downs(), 0);
  EXPECT_EQ(cluster.serving_shards(), 1u);

  clock->advance(2.0);
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  // Even fully drained, the floor holds: another route scales nothing.
  auto last = cluster.submit_async(
      ServeRequest::f32("Tiny", tiny_batch_f32(1, 310)));
  EXPECT_EQ(cluster.scale_downs(), 0);
  clock->advance(2.0);
  EXPECT_TRUE(last.get().ok());
}

// Numerics acceptance: requests served while the autoscaler brings the
// reserve shard in and out of service are bit-identical to a single engine
// of the same device and seed — scaling never touches outputs.
TEST(Autoscale, OutputsBitIdenticalToSingleEngineWhileScaling) {
  auto clock = std::make_shared<ManualClock>();
  AutoscaleOptions as;
  as.max_shards = 2;
  as.scale_up_load_s = 1e-9;
  as.scale_down_load_s = 1e-10;
  as.cooldown_s = 0.0;
  ServingCluster cluster({gpusim::jetson_orin()},
                         parked_options(clock, as));

  std::vector<std::future<ServeResponse>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(cluster.submit_async(
        ServeRequest::f32("Tiny", tiny_batch_f32(1, 500 + i))));
  }
  EXPECT_GE(cluster.scale_ups(), 1);  // the reserve shard took traffic
  clock->advance(2.0);

  EngineOptions eopt;
  eopt.seed = 77;
  InferenceEngine engine(gpusim::jetson_orin(), eopt);
  for (int i = 0; i < 6; ++i) {
    ServeResponse got = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(got.ok());
    const ServeResponse want =
        engine.submit(ServeRequest::f32("Tiny", tiny_batch_f32(1, 500 + i)));
    EXPECT_EQ(max_abs_diff(got.outputs_f32[0], want.outputs_f32[0]), 0.0f)
        << "request " << i << " diverged through the elastic cluster";
  }
}

/// Virtual-replay cluster for trace-driven autoscaler tests: one worker per
/// shard, virtual holds at `dilation`, kReject on overflow (the fcmsim
/// replay configuration).
std::unique_ptr<ServingCluster> replay_cluster(
    const std::shared_ptr<Clock>& clock, std::vector<gpusim::DeviceSpec> devs,
    RouterPolicy router, double dilation, AutoscaleOptions autoscale,
    std::size_t queue_depth = 4096) {
  ClusterOptions opt;
  opt.engine.clock = clock;
  opt.engine.queue_workers = 1;
  opt.engine.sim_dilation = dilation;
  opt.engine.virtual_hold = true;
  opt.engine.scheduler.policy = AdmissionPolicy::kReject;
  opt.engine.scheduler.queue_depth = queue_depth;
  opt.router = router;
  opt.autoscale = autoscale;
  return std::make_unique<ServingCluster>(std::move(devs), opt);
}

// A flash crowd must force a scale-up, and the elastic replay must stay a
// deterministic DES: two runs of the same trace, one digest.
TEST(Autoscale, FlashCrowdScalesUpDeterministically) {
  workload::GeneratorSpec spec;
  spec.kind = workload::GeneratorKind::kFlashCrowd;
  spec.requests = 400;
  spec.rate_rps = 40.0;
  spec.flash_at_s = 1.0;
  spec.flash_len_s = 0.5;
  spec.flash_x = 20.0;
  const workload::Trace trace = workload::generate_trace(spec, 19);

  const double c = tiny_cost_s(gpusim::rtx_a4000());
  AutoscaleOptions as;
  as.max_shards = 3;
  as.scale_up_load_s = 3.0 * c;  // a few queued requests per shard
  as.scale_down_load_s = 0.5 * c;
  as.cooldown_s = 0.1;

  std::string digests[2];
  for (int run = 0; run < 2; ++run) {
    auto clock = std::make_shared<ManualClock>();
    // Dilate Tiny to ~7 ms of service: one RTX shard saturates at ~140
    // req/s, far under the 800 req/s spike.
    auto cluster = replay_cluster(clock, {gpusim::rtx_a4000()},
                                  RouterPolicy::kLeastLoaded, 0.007 / c, as);
    const ServingReport report =
        workload::sim_replay(*cluster, clock, trace, {}, nullptr);
    EXPECT_GE(report.scale_ups, 1) << "spike never scaled up";
    digests[run] = report.deterministic_digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// The headline autoscaler acceptance: replaying a diurnal trace, the serving
// count tracks the offered curve — at least one scale-up into the peak and
// one scale-down into the trough.
TEST(Autoscale, DiurnalReplayScalesUpAndDown) {
  workload::GeneratorSpec spec;
  spec.kind = workload::GeneratorKind::kDiurnal;
  spec.requests = 1500;
  spec.rate_rps = 120.0;
  spec.period_s = 8.0;
  spec.diurnal_min_x = 0.05;
  const workload::Trace trace = workload::generate_trace(spec, 7);

  const double c = tiny_cost_s(gpusim::rtx_a4000());
  AutoscaleOptions as;
  as.max_shards = 4;
  as.scale_up_load_s = 3.0 * c;
  as.scale_down_load_s = 0.5 * c;
  as.cooldown_s = 0.5;

  auto clock = std::make_shared<ManualClock>();
  // ~18 ms of service per request: one shard saturates at ~55 req/s, under
  // the diurnal peak and far over its trough.
  auto cluster = replay_cluster(clock, {gpusim::rtx_a4000()},
                                RouterPolicy::kLeastLoaded, 0.018 / c, as);
  const ServingReport report =
      workload::sim_replay(*cluster, clock, trace, {}, nullptr);
  EXPECT_GE(report.scale_ups, 1);
  EXPECT_GE(report.scale_downs, 1);
  EXPECT_GE(report.serving_shards, 1);
  EXPECT_EQ(report.queue.accepted,
            static_cast<std::int64_t>(trace.requests.size()));
}

// Determinism acceptance with autoscaling enabled: a virtual-clock replay
// and a real-clock replay of the same trace make identical scale decisions
// and produce bit-identical report digests. The trace's margins are coarse
// (tens of milliseconds between every arrival and the nearest completion)
// so real-clock jitter cannot flip a decision.
TEST(Autoscale, DigestBitIdenticalVirtualVsRealClockWithAutoscaling) {
  const double c = tiny_cost_s(gpusim::jetson_orin());
  const double dilation = 0.1 / c;  // 100 ms of (virtual or real) service

  workload::Trace trace;
  trace.name = "autoscale-digest";
  // A 3-request burst 20 ms apart — the third decision sees two requests
  // (2c) parked and scales up — then, 600 ms in (long after the serial
  // drain finishes at ~300 ms), two sparse arrivals: the first scales back
  // down, the second decommissions the drained reserve shard.
  for (const double t : {0.0, 0.02, 0.04, 0.6, 0.62}) {
    workload::TraceRecord r;
    r.t_s = t;
    r.model = "Tiny";
    r.seed = static_cast<std::uint64_t>(2000 + trace.requests.size());
    trace.requests.push_back(r);
  }

  AutoscaleOptions as;
  as.max_shards = 2;
  as.scale_up_load_s = 1.5 * c;
  as.scale_down_load_s = 0.5 * c;
  as.cooldown_s = 0.1;

  auto vclock = std::make_shared<ManualClock>();
  auto vcluster = replay_cluster(vclock, {gpusim::jetson_orin()},
                                 RouterPolicy::kRoundRobin, dilation, as);
  // Pre-price the model everywhere so neither run pays planning time mid-
  // replay (both sides then fold identical cost estimates).
  for (std::size_t s = 0; s < vcluster->size(); ++s) {
    vcluster->engine(s).predict_cost_s("Tiny", DType::kF32, 1);
  }
  const ServingReport virt =
      workload::sim_replay(*vcluster, vclock, trace, {}, nullptr);
  EXPECT_EQ(virt.scale_ups, 1);
  EXPECT_EQ(virt.scale_downs, 1);
  EXPECT_EQ(virt.serving_shards, 1);

  auto rcluster = replay_cluster(nullptr, {gpusim::jetson_orin()},
                                 RouterPolicy::kRoundRobin, dilation, as);
  for (std::size_t s = 0; s < rcluster->size(); ++s) {
    rcluster->engine(s).predict_cost_s("Tiny", DType::kF32, 1);
  }
  const ServingReport real = rcluster->replay_scheduled(
      workload::trace_mix(trace, /*dry=*/true),
      workload::trace_arrivals(trace));

  EXPECT_EQ(virt.deterministic_digest(), real.deterministic_digest());
}

}  // namespace
}  // namespace fcm::serving
