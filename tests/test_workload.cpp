// Workload simulator tests: trace format round-trip and strictness, seeded
// generator reproducibility, dry-run cost accounting, and the virtual-time
// replay engine — including the headline property that a ManualClock
// sim_replay produces a ServingReport digest bit-identical to a real-clock
// replay_scheduled of the same trace, while covering the trace's virtual
// span exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/roofline.hpp"
#include "serving/cluster.hpp"
#include "workload/generators.hpp"
#include "workload/sim_replay.hpp"
#include "workload/trace.hpp"

namespace fcm::workload {
namespace {

constexpr GeneratorKind kAllKinds[] = {
    GeneratorKind::kPoisson, GeneratorKind::kOnOff, GeneratorKind::kDiurnal,
    GeneratorKind::kFlashCrowd, GeneratorKind::kHotSkew};

GeneratorSpec small_spec(GeneratorKind kind) {
  GeneratorSpec spec;
  spec.kind = kind;
  spec.requests = 200;
  spec.rate_rps = 50.0;
  spec.models = {"Tiny", "Mob_v1"};
  spec.tenants = {"interactive", "bulk"};
  // Keep the flash/diurnal structure inside the ~4 s trace span.
  spec.period_s = 2.0;
  spec.flash_at_s = 1.0;
  spec.flash_len_s = 0.5;
  return spec;
}

// Acceptance gate: every generator is byte-reproducible from (spec, seed) —
// the serialized trace, not just the struct, is identical across runs — and
// a different seed actually changes the workload.
TEST(Generators, ByteIdenticalFromSpecAndSeed) {
  for (const GeneratorKind kind : kAllKinds) {
    const GeneratorSpec spec = small_spec(kind);
    const std::string a = serialize_trace(generate_trace(spec, 42));
    const std::string b = serialize_trace(generate_trace(spec, 42));
    EXPECT_EQ(a, b) << generator_name(kind);
    const std::string c = serialize_trace(generate_trace(spec, 43));
    EXPECT_NE(a, c) << generator_name(kind);
    // And what they produce is loadable and replayable as-is.
    const Trace back = parse_trace(a);
    EXPECT_EQ(back, generate_trace(spec, 42)) << generator_name(kind);
  }
}

TEST(Generators, ArrivalsSpanAndRateAreSane) {
  for (const GeneratorKind kind : kAllKinds) {
    const GeneratorSpec spec = small_spec(kind);
    const Trace t = generate_trace(spec, 7);
    ASSERT_EQ(t.requests.size(), spec.requests);
    EXPECT_EQ(t.name, generator_name(kind));
    EXPECT_EQ(t.seed, 7u);
    // 200 arrivals at a 50 rps long-run mean: the span should be in the
    // right ballpark for every process (bursty ones vary, but a fixed seed
    // makes this deterministic, not flaky).
    EXPECT_GT(t.duration_s(), 1.0) << generator_name(kind);
    EXPECT_LT(t.duration_s(), 40.0) << generator_name(kind);
    for (const TraceRecord& r : t.requests) {
      EXPECT_TRUE(r.tenant == "interactive" || r.tenant == "bulk");
    }
  }
}

TEST(Generators, HotSkewConcentratesTrafficOnFirstModel) {
  GeneratorSpec spec = small_spec(GeneratorKind::kHotSkew);
  spec.requests = 1000;
  spec.models = {"Tiny", "Mob_v1", "Mob_v2", "XCe"};
  const Trace t = generate_trace(spec, 11);
  std::size_t hot = 0, cold = 0;
  for (const TraceRecord& r : t.requests) {
    if (r.model == "Tiny") ++hot;
    if (r.model == "XCe") ++cold;
  }
  // Zipf s=1.2 over 4 ranks: rank 1 holds ~53% of the mass, rank 4 ~10%.
  EXPECT_GT(hot, t.requests.size() / 2);
  EXPECT_LT(cold, t.requests.size() / 5);
  EXPECT_GT(cold, 0u);
}

TEST(Generators, UnknownNameAndBadSpecThrow) {
  EXPECT_THROW(generator_from_name("bogus"), Error);
  for (const GeneratorKind kind : kAllKinds) {
    EXPECT_EQ(generator_from_name(generator_name(kind)), kind);
  }
  GeneratorSpec spec;
  spec.rate_rps = 0.0;
  EXPECT_THROW(generate_trace(spec, 1), Error);
  spec = GeneratorSpec{};
  spec.models.clear();
  EXPECT_THROW(generate_trace(spec, 1), Error);
}

TEST(TraceFormat, GoldenSerialization) {
  Trace t;
  t.name = "golden";
  t.seed = 9;
  TraceRecord a;
  a.t_s = 0.0;
  a.model = "Tiny";
  a.seed = 11;
  TraceRecord b;
  b.t_s = 0.004;
  b.model = "Mob_v1";
  b.dtype = DType::kI8;
  b.batch = 2;
  b.deadline_s = 0.05;
  b.tenant = "bulk";
  b.seed = 12;
  t.requests = {a, b};
  const std::string expected =
      "{\"fcm_trace\": 1, \"name\": \"golden\", \"seed\": 9, \"requests\": "
      "2}\n"
      "{\"t\": 0, \"model\": \"Tiny\", \"dtype\": \"fp32\", \"batch\": 1, "
      "\"seed\": 11}\n"
      "{\"t\": 0.004, \"model\": \"Mob_v1\", \"dtype\": \"int8\", \"batch\": "
      "2, \"deadline\": 0.05, \"tenant\": \"bulk\", \"seed\": 12}\n";
  EXPECT_EQ(serialize_trace(t), expected);
  EXPECT_EQ(parse_trace(expected), t);
}

// serialize ∘ parse is an identity even for doubles that need all 17
// digits, and for 64-bit seeds past 2^53 that a double would truncate.
TEST(TraceFormat, RoundTripIsExactForAwkwardValues) {
  Trace t;
  t.name = "awkward \"name\"\twith\nescapes\\";
  t.seed = 18446744073709551615ull;  // UINT64_MAX
  TraceRecord r;
  r.t_s = 0.1 + 0.2;  // 0.30000000000000004
  r.model = "Tiny";
  r.deadline_s = 1.0 / 3.0;
  r.tenant = "t\\one";
  r.seed = (1ull << 53) + 1;  // not representable as a double
  t.requests = {r};
  const Trace back = parse_trace(serialize_trace(t));
  EXPECT_EQ(back, t);
  EXPECT_EQ(serialize_trace(back), serialize_trace(t));
}

TEST(TraceFormat, MalformedTracesAreRejectedWithLineNumbers) {
  const std::string header =
      "{\"fcm_trace\": 1, \"name\": \"x\", \"seed\": 1, \"requests\": 1}\n";
  const std::string rec =
      "{\"t\": 0, \"model\": \"Tiny\", \"dtype\": \"fp32\", \"batch\": 1, "
      "\"seed\": 1}\n";
  struct Case {
    const char* what;
    std::string text;
  };
  const Case cases[] = {
      {"empty input", ""},
      {"record before header", rec},
      {"wrong version",
       "{\"fcm_trace\": 2, \"name\": \"x\", \"seed\": 1, \"requests\": 0}\n"},
      {"header count mismatch", header},
      {"unknown key", header +
           "{\"t\": 0, \"model\": \"Tiny\", \"dtype\": \"fp32\", \"extra\": "
           "1, \"seed\": 1}\n"},
      {"duplicate key", header +
           "{\"t\": 0, \"t\": 1, \"model\": \"Tiny\", \"dtype\": \"fp32\", "
           "\"seed\": 1}\n"},
      {"nested value", header +
           "{\"t\": 0, \"model\": \"Tiny\", \"dtype\": \"fp32\", \"seed\": "
           "{\"a\": 1}}\n"},
      {"trailing garbage", header + rec.substr(0, rec.size() - 1) + " junk\n"},
      {"bad dtype", header +
           "{\"t\": 0, \"model\": \"Tiny\", \"dtype\": \"f32\", \"seed\": "
           "1}\n"},
      {"unknown model", header +
           "{\"t\": 0, \"model\": \"NotAModel\", \"dtype\": \"fp32\", "
           "\"seed\": 1}\n"},
      {"negative arrival", header +
           "{\"t\": -1, \"model\": \"Tiny\", \"dtype\": \"fp32\", \"seed\": "
           "1}\n"},
      {"zero batch", header +
           "{\"t\": 0, \"model\": \"Tiny\", \"dtype\": \"fp32\", \"batch\": "
           "0, \"seed\": 1}\n"},
      {"fractional seed", header +
           "{\"t\": 0, \"model\": \"Tiny\", \"dtype\": \"fp32\", \"seed\": "
           "1.5}\n"},
      {"non-monotone arrivals",
       "{\"fcm_trace\": 1, \"name\": \"x\", \"seed\": 1, \"requests\": 2}\n" +
           rec +
           "{\"t\": -0.5, \"model\": \"Tiny\", \"dtype\": \"fp32\", "
           "\"seed\": 2}\n"},
      {"missing model", header + "{\"t\": 0, \"dtype\": \"fp32\"}\n"},
      // Range rules of the shared scanner: no clamping, no infinities, no
      // out-of-range cast.
      {"seed past 2^64-1",
       "{\"fcm_trace\": 1, \"name\": \"x\", \"seed\": "
       "18446744073709551616, \"requests\": 1}\n" +
           rec},
      {"infinite arrival", header +
           "{\"t\": 1e999, \"model\": \"Tiny\", \"dtype\": \"fp32\", "
           "\"seed\": 1}\n"},
      {"infinite deadline", header +
           "{\"t\": 0, \"model\": \"Tiny\", \"dtype\": \"fp32\", "
           "\"deadline\": 1e999, \"seed\": 1}\n"},
      {"batch past INT_MAX", header +
           "{\"t\": 0, \"model\": \"Tiny\", \"dtype\": \"fp32\", "
           "\"batch\": 1e10, \"seed\": 1}\n"},
  };
  for (const Case& c : cases) {
    EXPECT_THROW(parse_trace(c.text), Error) << c.what;
  }
  // The well-formed baseline the cases above perturb does parse.
  EXPECT_NO_THROW(parse_trace(header + rec));
}

TEST(TraceFormat, MixAndArrivalsLowerEveryField) {
  GeneratorSpec spec = small_spec(GeneratorKind::kPoisson);
  spec.deadline_s = 0.25;
  spec.batch = 3;
  spec.dtype = DType::kI8;
  const Trace t = generate_trace(spec, 5);
  const auto mix = trace_mix(t, /*dry=*/true);
  const auto arrivals = trace_arrivals(t);
  ASSERT_EQ(mix.size(), t.requests.size());
  ASSERT_EQ(arrivals.size(), t.requests.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    EXPECT_EQ(mix[i].model, t.requests[i].model);
    EXPECT_EQ(mix[i].input_seed, t.requests[i].seed);
    EXPECT_EQ(mix[i].dtype, DType::kI8);
    EXPECT_EQ(mix[i].batch, 3);
    EXPECT_DOUBLE_EQ(mix[i].deadline_s, 0.25);
    EXPECT_TRUE(mix[i].dry);
    EXPECT_DOUBLE_EQ(arrivals[i], t.requests[i].t_s);
  }
  EXPECT_FALSE(trace_mix(t, /*dry=*/false).front().dry);
}

// A dry-run request is charged exactly the plan's per-item roofline
// estimate times its batch — the cost model sim_replay's timing stands on.
TEST(SimReplay, DryRunChargesRooflineEstimate) {
  serving::InferenceEngine engine(gpusim::gtx1660());
  const auto plan = engine.plan_for("Tiny", DType::kF32);
  double per_item_s = 0.0;
  for (const auto& step : plan->steps) {
    per_item_s += gpusim::estimate_time(engine.device(), step.stats).total_s;
  }
  serving::ServeRequest req;
  req.model = "Tiny";
  req.dry_run = true;
  req.dry_batch = 3;
  const serving::ServeResponse resp = engine.submit(req);
  EXPECT_TRUE(resp.ok());
  EXPECT_DOUBLE_EQ(resp.sim_time_s, per_item_s * 3.0);
  EXPECT_GT(resp.gma_bytes, 0);
}

// With an open coalescing window, the engine's next_wakeup_s is the window
// close instant — the event the sim driver steps the clock to.
TEST(SimReplay, NextWakeupTracksCoalescingWindow) {
  auto clock = std::make_shared<ManualClock>();
  serving::EngineOptions opt;
  opt.clock = clock;
  opt.queue_workers = 2;
  opt.scheduler.max_coalesce_batch = 4;
  opt.scheduler.coalesce_wait_us = 1'000'000;
  serving::InferenceEngine engine(gpusim::gtx1660(), opt);
  EXPECT_TRUE(engine.settled());  // pristine: no workers yet
  EXPECT_EQ(engine.next_wakeup_s(), std::numeric_limits<double>::infinity());

  serving::ServeRequest req;
  req.model = "Tiny";
  req.dry_run = true;
  req.dry_batch = 1;
  req.discard_outputs = true;
  auto fut = engine.submit_async(req);
  // The worker pops the lone request and opens a window until enqueue + 1 s.
  while (!engine.settled() || !std::isfinite(engine.next_wakeup_s())) {
    std::this_thread::yield();
  }
  EXPECT_DOUBLE_EQ(engine.next_wakeup_s(), 1.0);
  clock->set(1.0);  // close the window
  EXPECT_TRUE(fut.get().ok());
}

std::unique_ptr<serving::ServingCluster> sim_cluster(
    const std::shared_ptr<Clock>& clock, double dilation,
    std::size_t queue_depth = 4096) {
  serving::ClusterOptions copt;
  copt.router = serving::RouterPolicy::kRoundRobin;
  copt.engine.clock = clock;
  copt.engine.queue_workers = 2;
  copt.engine.scheduler.queue_depth = queue_depth;
  copt.engine.sim_dilation = dilation;
  if (dilation > 0.0) {
    copt.engine.virtual_hold = true;
    copt.engine.scheduler.policy = serving::AdmissionPolicy::kReject;
  }
  return std::make_unique<serving::ServingCluster>(
      std::vector<gpusim::DeviceSpec>{gpusim::gtx1660(), gpusim::rtx_a4000()},
      copt);
}

// With dilation 0 completions are instantaneous in virtual time, so the
// replay's virtual span is exactly the trace's span: the clock moves arrival
// to arrival and the drain adds nothing.
TEST(SimReplay, VirtualSpanEqualsTraceDurationExactly) {
  const Trace trace = generate_trace(small_spec(GeneratorKind::kOnOff), 3);
  auto clock = std::make_shared<ManualClock>();
  auto cluster = sim_cluster(clock, /*dilation=*/0.0);
  SimSummary summary;
  const serving::ServingReport report =
      sim_replay(*cluster, clock, trace, SimOptions{}, &summary);
  EXPECT_DOUBLE_EQ(summary.virtual_s, trace.duration_s());
  EXPECT_DOUBLE_EQ(report.wall_s, trace.duration_s());
  EXPECT_EQ(summary.requests, trace.requests.size());
  EXPECT_EQ(report.queue.completed, static_cast<std::int64_t>(trace.requests.size()));
  EXPECT_EQ(report.queue.rejected, 0);
}

// The headline acceptance property: a virtual-time replay on a ManualClock
// produces the same schedule-determined ServingReport — models, groups,
// shards, sim seconds, queue counters, rendered to a digest — as a
// real-clock replay of the identical trace through the identical cluster.
TEST(SimReplay, DigestMatchesRealClockReplay) {
  GeneratorSpec spec = small_spec(GeneratorKind::kHotSkew);
  spec.requests = 120;
  spec.rate_rps = 400.0;  // keep the real-clock half under a second
  const Trace trace = generate_trace(spec, 21);

  auto vclock = std::make_shared<ManualClock>();
  auto vcluster = sim_cluster(vclock, /*dilation=*/0.0);
  SimSummary summary;
  const serving::ServingReport virt =
      sim_replay(*vcluster, vclock, trace, SimOptions{}, &summary);

  auto rcluster = sim_cluster(nullptr, /*dilation=*/0.0);  // SteadyClock
  const serving::ServingReport real = rcluster->replay_scheduled(
      trace_mix(trace, /*dry=*/true), trace_arrivals(trace));

  EXPECT_EQ(virt.deterministic_digest(), real.deterministic_digest());
  EXPECT_GT(summary.fast_forward_x(), 1.0);
}

// Determinism of the DES itself: an overloaded virtual replay (tiny queue,
// heavy dilation, kReject) sheds a deterministic set of requests — clock
// advancement is settled-gated, so queue occupancy at every arrival instant
// is a function of the trace alone. Two runs, one digest.
TEST(SimReplay, OverloadedReplayIsDeterministic) {
  GeneratorSpec spec = small_spec(GeneratorKind::kFlashCrowd);
  spec.requests = 150;
  const Trace trace = generate_trace(spec, 13);
  std::string digests[2];
  std::int64_t rejected = 0;
  for (int run = 0; run < 2; ++run) {
    auto clock = std::make_shared<ManualClock>();
    auto cluster = sim_cluster(clock, /*dilation=*/50.0, /*queue_depth=*/2);
    const serving::ServingReport report =
        sim_replay(*cluster, clock, trace, SimOptions{}, nullptr);
    digests[run] = report.deterministic_digest();
    rejected = report.queue.rejected;
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, static_cast<std::int64_t>(trace.requests.size()));
}

// Determinism as a property, not one trace: every generator kind, through
// count-, seconds- and rotation-routed clusters with coalescing on and off,
// replays to one digest and one finite virtual span on fresh clusters. The
// load-based routers read the shards' gauges at each arrival, so a clock
// step taken while a released worker is still leaving its hold shows up as
// a different route.
TEST(SimReplay, ReplayIsDeterministicForEveryKindRouterAndCoalescing) {
  const serving::RouterPolicy routers[] = {
      serving::RouterPolicy::kRoundRobin, serving::RouterPolicy::kLeastRequests,
      serving::RouterPolicy::kLeastLoaded};
  for (const GeneratorKind kind : kAllKinds) {
    const Trace trace = generate_trace(small_spec(kind), 5);
    for (const serving::RouterPolicy router : routers) {
      for (const int coalesce : {1, 4}) {
        std::string digests[2];
        double spans[2] = {0.0, 0.0};
        for (int run = 0; run < 2; ++run) {
          auto clock = std::make_shared<ManualClock>();
          serving::ClusterOptions copt;
          copt.router = router;
          copt.engine.clock = clock;
          copt.engine.queue_workers = 2;
          copt.engine.sim_dilation = 20.0;
          copt.engine.virtual_hold = true;
          copt.engine.scheduler.policy = serving::AdmissionPolicy::kReject;
          copt.engine.scheduler.max_coalesce_batch = coalesce;
          copt.engine.scheduler.coalesce_wait_us = coalesce > 1 ? 2000 : 0;
          serving::ServingCluster cluster(
              {gpusim::gtx1660(), gpusim::rtx_a4000()}, copt);
          SimSummary summary;
          digests[run] =
              sim_replay(cluster, clock, trace, SimOptions{}, &summary)
                  .deterministic_digest();
          spans[run] = summary.virtual_s;
        }
        const std::string what = std::string(generator_name(kind)) + " / " +
                                 serving::router_policy_name(router) +
                                 " / coalesce " + std::to_string(coalesce);
        EXPECT_EQ(digests[0], digests[1]) << what;
        EXPECT_TRUE(std::isfinite(spans[0])) << what;
        EXPECT_EQ(spans[0], spans[1]) << what;
        EXPECT_GE(spans[0], trace.duration_s()) << what;
      }
    }
  }
}

// Arrivals may share an instant (validate_trace accepts equal t), and the
// clock may already sit on an arrival. Each request of such a burst must be
// routed only once the cluster has settled at that instant: with dilation 0
// a worker may otherwise still be executing the burst's previous request,
// and a load-based router reading its gauges mid-flight routes by host
// timing. Fresh clusters, one digest.
TEST(SimReplay, SameInstantArrivalsRouteOnASettledCluster) {
  Trace trace;
  trace.name = "bursts";
  for (int burst = 0; burst < 20; ++burst) {
    for (int k = 0; k < 4; ++k) {
      TraceRecord r;
      r.t_s = 0.01 * burst;
      r.model = "Tiny";
      // Mixed batches make the digest tell the shards' requests apart.
      r.batch = k % 2 == 0 ? 1 : 4;
      r.seed = static_cast<std::uint64_t>(4 * burst + k);
      trace.requests.push_back(r);
    }
  }
  for (const serving::RouterPolicy router :
       {serving::RouterPolicy::kLeastLoaded,
        serving::RouterPolicy::kLeastRequests}) {
    std::string digests[3];
    for (std::string& digest : digests) {
      auto clock = std::make_shared<ManualClock>();
      serving::ClusterOptions copt;
      copt.router = router;
      copt.engine.clock = clock;
      copt.engine.queue_workers = 2;
      copt.engine.scheduler.queue_depth = 4;
      copt.engine.scheduler.policy = serving::AdmissionPolicy::kReject;
      serving::ServingCluster cluster({gpusim::gtx1660(), gpusim::rtx_a4000()},
                                      copt);
      digest = sim_replay(cluster, clock, trace, SimOptions{}, nullptr)
                   .deterministic_digest();
    }
    const std::string what = serving::router_policy_name(router);
    EXPECT_EQ(digests[0], digests[1]) << what;
    EXPECT_EQ(digests[0], digests[2]) << what;
  }
}

// With virtual holds, a held completion releases at exactly
// sim_time x dilation after dispatch on the virtual clock — latency is an
// exact multiple, something a real clock can only approximate.
TEST(SimReplay, VirtualHoldLatencyIsExactDilatedSimTime) {
  Trace trace;
  trace.name = "single";
  TraceRecord r;
  r.model = "Tiny";
  trace.requests = {r};

  auto clock = std::make_shared<ManualClock>();
  serving::ClusterOptions copt;
  copt.engine.clock = clock;
  copt.engine.queue_workers = 1;
  copt.engine.sim_dilation = 1000.0;
  copt.engine.virtual_hold = true;
  copt.engine.scheduler.policy = serving::AdmissionPolicy::kReject;
  serving::ServingCluster cluster({gpusim::gtx1660()}, copt);

  double per_item_s = 0.0;
  const auto plan = cluster.engine(0).plan_for("Tiny", DType::kF32);
  for (const auto& step : plan->steps) {
    per_item_s +=
        gpusim::estimate_time(cluster.device(0), step.stats).total_s;
  }

  SimSummary summary;
  sim_replay(cluster, clock, trace, SimOptions{}, &summary);
  EXPECT_DOUBLE_EQ(summary.virtual_s, per_item_s * 1000.0);
}

// Fast-forward: hundreds of virtual seconds of trace replay in well under
// that on the host. perfbench's virtual-replay workload reports the ratio
// on a larger trace (workload.fast_forward_x); this keeps a conservative
// floor so the test stays green on one-core sanitizer runners.
TEST(SimReplay, FastForwardsSparseTrace) {
  GeneratorSpec spec;
  spec.kind = GeneratorKind::kPoisson;
  spec.requests = 2000;
  spec.rate_rps = 10.0;  // ~200 virtual seconds
  const Trace trace = generate_trace(spec, 2);
  auto clock = std::make_shared<ManualClock>();
  auto cluster = sim_cluster(clock, /*dilation=*/1.0);
  SimSummary summary;
  sim_replay(*cluster, clock, trace, SimOptions{}, &summary);
  EXPECT_GT(summary.virtual_s, 100.0);
  EXPECT_GT(summary.fast_forward_x(), 10.0);
  EXPECT_FALSE(summary.str().empty());
}

// Functional mode executes real tensors through the same event loop.
TEST(SimReplay, FunctionalReplayExecutesRequests) {
  GeneratorSpec spec;
  spec.requests = 8;
  spec.rate_rps = 100.0;
  const Trace trace = generate_trace(spec, 6);
  auto clock = std::make_shared<ManualClock>();
  auto cluster = sim_cluster(clock, /*dilation=*/0.0);
  SimOptions opt;
  opt.functional = true;
  SimSummary summary;
  const serving::ServingReport report =
      sim_replay(*cluster, clock, trace, opt, &summary);
  EXPECT_EQ(report.queue.completed, 8);
  EXPECT_GT(report.models.at(0).sim_time_s, 0.0);
}

}  // namespace
}  // namespace fcm::workload
