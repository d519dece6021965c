// TSan hammer tests for the serving stack's concurrency seams. Every test
// here also runs (and must pass) in the plain build, but the point is the
// FCM_SANITIZE=thread configuration in CI: real threads racing on the real
// clock, shaped so the interesting interleavings — concurrent submitters vs
// a replay driver, routing vs gauge polling, plan-cache miss stampedes,
// stop() against live producers/consumers, and concurrent kernel launches
// sharing the pool's per-thread shared-memory arenas — actually happen.
// Counts stay small (Tiny model, single-digit threads) so the suite is cheap
// even on a one-core TSan runner; determinism here means "every future
// resolves and every counter adds up", not fixed interleavings — the
// ManualClock scheduling tests live in test_scheduler/test_cluster.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/device_spec.hpp"
#include "kernels/kernel_registry.hpp"
#include "models/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "planner/fuse_planner.hpp"
#include "serving/cluster.hpp"
#include "serving/plan_cache.hpp"
#include "serving/scheduler.hpp"
#include "workload/generators.hpp"
#include "workload/sim_replay.hpp"

namespace fcm::serving {
namespace {

ServeRequest tiny_request(std::uint64_t seed) {
  const FmShape shape = models::tiny().layers.front().ifm_shape();
  TensorF in(shape);
  fill_uniform(in, seed);
  std::vector<TensorF> batch;
  batch.push_back(std::move(in));
  return ServeRequest::f32("Tiny", std::move(batch));
}

// submit_async from one thread while another drives replay() through the
// same admission queue and a third polls the gauges: the engine's plan
// cache, runner pool, scheduler and worker pool all see concurrent traffic.
// The replay runs through a one-shard cluster around that engine.
TEST(RaceStress, EngineSubmitAsyncAndReplayConcurrently) {
  ClusterOptions copt;
  copt.engine.seed = 77;
  copt.engine.queue_workers = 2;
  copt.engine.scheduler.queue_depth = 64;
  const EngineOptions& opt = copt.engine;
  ServingCluster cluster({gpusim::jetson_orin()}, copt);
  InferenceEngine& engine = cluster.engine(0);

  constexpr int kDirect = 10;
  std::vector<std::future<ServeResponse>> futs(kDirect);
  std::atomic<bool> done{false};

  std::thread submitter([&] {
    for (int i = 0; i < kDirect; ++i) {
      futs[static_cast<std::size_t>(i)] =
          engine.submit_async(tiny_request(1000 + static_cast<std::uint64_t>(i)));
    }
  });
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const QueueStats st = engine.queue_stats();
      ASSERT_GE(st.queued, 0);
      ASSERT_GE(st.in_flight, 0);
      ASSERT_LE(engine.load(), opt.scheduler.queue_depth + 2 * kDirect);
      std::this_thread::yield();
    }
  });

  std::vector<ReplayRequest> mix;
  for (int i = 0; i < 8; ++i) {
    mix.push_back({"Tiny", 2000 + static_cast<std::uint64_t>(i), DType::kF32,
                   1, 0.0});
  }
  const ServingReport rep = cluster.replay(mix);

  submitter.join();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  done.store(true, std::memory_order_relaxed);
  poller.join();

  EXPECT_EQ(rep.total_requests(), 8);
  const QueueStats st = engine.queue_stats();
  EXPECT_EQ(st.completed, kDirect + 8);
  EXPECT_EQ(st.queued, 0);
  EXPECT_EQ(st.in_flight, 0);
}

// Concurrent submitters routing through a two-shard cluster while a poller
// reads every shard's load gauge and the routed counters: route() reads
// shard gauges outside route_mu_ and counts under it, which is exactly the
// seam this hammers.
TEST(RaceStress, ClusterRoutingWhileLoadGaugePolled) {
  ClusterOptions opt;
  opt.engine.seed = 77;
  opt.engine.queue_workers = 1;
  opt.engine.scheduler.queue_depth = 64;
  opt.router = RouterPolicy::kLeastLoaded;
  ServingCluster cluster({gpusim::jetson_orin(), gpusim::jetson_orin()}, opt);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 4;
  std::vector<std::vector<std::future<ServeResponse>>> futs(kThreads);
  std::atomic<bool> done{false};

  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::int64_t total = 0;
      for (const std::int64_t r : cluster.routed()) total += r;
      ASSERT_LE(total, kThreads * kPerThread);
      (void)cluster.engine(0).load();
      (void)cluster.engine(1).load();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        futs[static_cast<std::size_t>(t)].push_back(cluster.submit_async(
            tiny_request(static_cast<std::uint64_t>(3000 + t * 100 + i))));
      }
    });
  }
  for (auto& th : submitters) th.join();
  for (auto& per : futs) {
    for (auto& f : per) EXPECT_TRUE(f.get().ok());
  }
  done.store(true, std::memory_order_relaxed);
  poller.join();

  std::int64_t total = 0;
  for (const std::int64_t r : cluster.routed()) total += r;
  EXPECT_EQ(total, kThreads * kPerThread);
  EXPECT_EQ(cluster.engine(0).queue_stats().completed +
                cluster.engine(1).queue_stats().completed,
            kThreads * kPerThread);
}

// A miss stampede on one key must single-flight: the planner runs exactly
// once per key no matter how many threads arrive cold together, and every
// thread shares the one resulting plan instance.
TEST(RaceStress, PlanCacheSingleFlightStampede) {
  PlanCache cache(8);
  std::atomic<int> plans{0};
  cache.set_plan_fn([&plans](const gpusim::DeviceSpec& dev,
                             const ModelGraph& model, DType dt,
                             const planner::PlanOptions& opt) {
    plans.fetch_add(1, std::memory_order_relaxed);
    return planner::plan_model(dev, model, dt, opt);
  });

  const ModelGraph tiny = models::tiny();
  const gpusim::DeviceSpec dev = gpusim::gtx1660();
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const planner::Plan>> got(kThreads);
  std::atomic<int> ready{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Spin barrier: release every thread into get_or_plan together so the
      // cold miss genuinely stampedes instead of serialising on startup.
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
      // Half the threads ask for F32, half for I8 — two keys, two flights.
      const DType dt = (t % 2 == 0) ? DType::kF32 : DType::kI8;
      got[static_cast<std::size_t>(t)] = cache.get_or_plan(dev, tiny, dt);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(plans.load(), 2);  // exactly one planning per key
  for (int t = 2; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)],
              got[static_cast<std::size_t>(t % 2)])
        << "thread " << t << " did not share the single-flighted plan";
  }
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses + st.coalesced, kThreads);
  EXPECT_EQ(cache.size(), 2u);
}

// stop() racing live producers and consumers: blocked producers must wake
// and self-reject, the backlog must resolve as kRejected, consumers' pop()
// must return false, and — the actual assertion — every single future
// resolves (no hangs, no abandoned promises) with consistent counters.
TEST(RaceStress, SchedulerStopMidTraffic) {
  SchedulerOptions opt;
  opt.queue_depth = 4;  // small: producers genuinely block
  opt.policy = AdmissionPolicy::kBlock;
  Scheduler sched(opt, nullptr);

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 8;
  std::vector<std::vector<std::future<ServeResponse>>> futs(kProducers);
  std::atomic<std::int64_t> executed{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      Scheduler::Dispatch d;
      while (sched.pop(&d)) {
        for (auto& it : d.items) {
          it.promise.set_value(response_stub(it.req, ServeStatus::kOk));
        }
        sched.record_completed(d.items.size());
        executed.fetch_add(static_cast<std::int64_t>(d.items.size()),
                           std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        futs[static_cast<std::size_t>(p)].push_back(
            sched.push(tiny_request(static_cast<std::uint64_t>(4000 + p))));
      }
    });
  }

  // Let real traffic flow, then cut it off mid-stream.
  while (executed.load(std::memory_order_relaxed) < 4) {
    std::this_thread::yield();
  }
  sched.stop();
  for (auto& th : producers) th.join();
  for (auto& th : consumers) th.join();

  // Every future resolves — served before the stop or rejected by it.
  std::int64_t ok = 0, rejected = 0;
  for (auto& per : futs) {
    for (auto& f : per) {
      const ServeResponse r = f.get();
      (r.status == ServeStatus::kOk ? ok : rejected)++;
      EXPECT_NE(r.status, ServeStatus::kExpired);
    }
  }
  EXPECT_EQ(ok + rejected, kProducers * kPerProducer);
  EXPECT_GE(ok, 4);
  const QueueStats st = sched.stats();
  EXPECT_EQ(st.completed, ok);
  EXPECT_EQ(st.completed + st.rejected, kProducers * kPerProducer);
  EXPECT_EQ(st.queued, 0);
  EXPECT_EQ(st.in_flight, 0);
  EXPECT_EQ(sched.load(), 0u);

  // Idempotent stop, and pushes after it reject immediately.
  sched.stop();
  auto late = sched.push(tiny_request(4999));
  EXPECT_EQ(late.get().status, ServeStatus::kRejected);
}

// Metric writers (counter incs, gauge sets, histogram observes, NEW child
// creation under the family mutex) racing the exporters and a tracer being
// recorded into while its Chrome JSON is formatted. The exporters snapshot
// pointer lists under the leaf locks and format lock-free, so writers must
// never block on a scrape and TSan must see no races; afterwards the totals
// add up exactly because no increment was lost or double-counted.
TEST(RaceStress, ObsWritersVsConcurrentExporters) {
  obs::MetricsRegistry reg;
  obs::ScopedRegistryOverride override_guard(reg);
  auto& counters = reg.counter_family("hammer_total", "writes", {"w"});
  auto& gauges = reg.gauge_family("hammer_gauge", "last", {"w"});
  auto& histos = reg.histogram_family("hammer_seconds", "obs", {"w"});
  obs::Tracer tracer;

  constexpr int kWriters = 4;
  constexpr int kOps = 2'000;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Each writer bumps its own child (created mid-run, racing the
      // exporters' child snapshots) plus the shared child "all".
      const std::string mine = std::to_string(w);
      for (int i = 0; i < kOps; ++i) {
        counters.with({mine}).inc();
        counters.with({"all"}).inc();
        gauges.with({mine}).set(static_cast<double>(i));
        histos.with({mine}).observe(static_cast<double>(i % 100) * 1e-4);
        obs::TraceSpan span;
        span.trace_id = static_cast<std::uint64_t>(w * kOps + i + 1);
        span.name = "hammer";
        span.begin_s = static_cast<double>(i) * 1e-6;
        span.end_s = span.begin_s + 1e-6;
        span.lane = w;
        tracer.record(std::move(span));
      }
    });
  }
  std::vector<std::thread> exporters;
  for (int e = 0; e < 2; ++e) {
    exporters.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        ASSERT_FALSE(reg.prometheus_text().empty());
        ASSERT_FALSE(reg.json_text().empty());
        ASSERT_FALSE(tracer.chrome_trace_json().empty());
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& th : exporters) th.join();

  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(counters.with({std::to_string(w)}).value(), kOps);
    EXPECT_EQ(histos.with({std::to_string(w)}).count(), kOps);
    EXPECT_EQ(gauges.with({std::to_string(w)}).value(),
              static_cast<double>(kOps - 1));
  }
  EXPECT_EQ(counters.with({"all"}).value(), kWriters * kOps);
  EXPECT_EQ(tracer.size() + static_cast<std::size_t>(tracer.dropped()),
            static_cast<std::size_t>(kWriters) * kOps);
}

// The workload simulator's seam: one thread fast-forwarding virtual time
// through sim_replay (ManualClock set() racing every parked worker's
// wait_until) while exporters scrape the live registry and tracer and extra
// pollers hammer the settled()/next_wakeup_s() gauges the driver itself
// loops on. The clock bump-and-notify, the hold multiset, the scheduler's
// window map and the metric writers all see concurrent traffic; afterwards
// the report's queue counters must add up to the trace exactly.
TEST(RaceStress, SimReplayVsExportersAndGaugePollers) {
  obs::MetricsRegistry reg;
  obs::ScopedRegistryOverride override_guard(reg);
  auto tracer = std::make_shared<obs::Tracer>();

  workload::GeneratorSpec spec;
  spec.kind = workload::GeneratorKind::kOnOff;
  spec.requests = 300;
  spec.rate_rps = 200.0;
  const workload::Trace trace = workload::generate_trace(spec, 31);

  auto clock = std::make_shared<ManualClock>();
  ClusterOptions copt;
  copt.engine.clock = clock;
  copt.engine.queue_workers = 2;
  copt.engine.scheduler.queue_depth = 8;  // small: real rejections happen
  copt.engine.scheduler.policy = AdmissionPolicy::kReject;
  copt.engine.sim_dilation = 20.0;
  copt.engine.virtual_hold = true;
  copt.engine.tracer = tracer;
  ServingCluster cluster({gpusim::jetson_orin(), gpusim::jetson_orin()}, copt);

  std::atomic<bool> done{false};
  std::vector<std::thread> scrapers;
  for (int e = 0; e < 2; ++e) {
    scrapers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        ASSERT_FALSE(reg.prometheus_text().empty());
        ASSERT_FALSE(reg.json_text().empty());
        ASSERT_FALSE(tracer->chrome_trace_json().empty());
        std::this_thread::yield();
      }
    });
  }
  std::thread poller([&] {
    // The same gauges the sim driver polls, read from a thread that is NOT
    // the one advancing the clock.
    while (!done.load(std::memory_order_relaxed)) {
      (void)cluster.settled();
      (void)cluster.next_wakeup_s();
      std::this_thread::yield();
    }
  });

  workload::SimSummary summary;
  const ServingReport report =
      workload::sim_replay(cluster, clock, trace, {}, &summary);
  done.store(true, std::memory_order_relaxed);
  for (auto& th : scrapers) th.join();
  poller.join();

  const auto n = static_cast<std::int64_t>(trace.requests.size());
  EXPECT_EQ(report.queue.completed + report.queue.rejected, n);
  EXPECT_GT(report.queue.completed, 0);
  EXPECT_EQ(summary.requests, trace.requests.size());
  EXPECT_GE(summary.virtual_s, trace.duration_s());
}

// Two callers launch kernels at the same time on devices with different
// shared-memory limits (GTX 64 KB, Orin 164 KB). Pool workers interleave
// blocks of both grids, so each worker's shared-memory arena is reset back
// and forth between the two capacities while the other caller's blocks run
// on the other workers. Outputs and stats must equal serial runs.
TEST(RaceStress, ConcurrentKernelLaunchesOnDifferentDevices) {
  ThreadPool pool(4);
  ScopedPoolOverride guard(pool);

  const auto pw = LayerSpec::pointwise("a", 24, 20, 20, 40);
  const auto dw = LayerSpec::depthwise("b", 40, 20, 20, 3, 1);
  const auto pw2 = LayerSpec::pointwise("c", 40, 20, 20, 24);
  TensorF ifm(pw.ifm_shape());
  fill_uniform(ifm, 5);
  WeightsF w1(pw.filter_shape()), w2(dw.filter_shape()), w3(pw2.filter_shape());
  fill_uniform(w1, 6, -0.5f, 0.5f);
  fill_uniform(w2, 7, -0.5f, 0.5f);
  fill_uniform(w3, 8, -0.5f, 0.5f);
  const auto bn1 = BatchNorm::random(40, 9);
  const auto bn3 = BatchNorm::random(24, 10);
  const EpilogueF32 ep1(bn1, pw.act), ep2(bn1, dw.act), ep3(bn3, pw2.act);

  struct Result {
    TensorF out;
    gpusim::KernelStats st;
  };
  // PWDW_R then an LBL pointwise, as a plan would chain them.
  auto run = [&](const gpusim::DeviceSpec& dev) {
    TensorF mid(dw.ofm_shape());
    Result r{TensorF(pw2.ofm_shape()), {}};
    r.st = run_fcm_f32(dev, FcmKind::kPwDwR, pw, dw, ifm, w1, w2, ep1, ep2, mid,
                       FcmTiling{5, 7, 16, 0});
    r.st += run_lbl_f32(dev, pw2, mid, w3, ep3, r.out, ConvTiling{4, 5, 16});
    return r;
  };
  const gpusim::DeviceSpec devs[2] = {gpusim::gtx1660(), gpusim::jetson_orin()};
  ASSERT_LT(devs[0].max_shared_bytes, devs[1].max_shared_bytes);
  const Result serial[2] = {run(devs[0]), run(devs[1])};

  constexpr int kReps = 6;
  std::vector<Result> got[2];
  std::vector<std::thread> callers;
  for (int d = 0; d < 2; ++d) {
    callers.emplace_back([&, d] {
      for (int i = 0; i < kReps; ++i) got[d].push_back(run(devs[d]));
    });
  }
  for (auto& t : callers) t.join();

  for (int d = 0; d < 2; ++d) {
    ASSERT_EQ(got[d].size(), static_cast<std::size_t>(kReps));
    for (const Result& r : got[d]) {
      EXPECT_EQ(max_abs_diff(r.out, serial[d].out), 0.0f) << devs[d].name;
      EXPECT_EQ(r.st, serial[d].st) << devs[d].name;
    }
  }
}

}  // namespace
}  // namespace fcm::serving
