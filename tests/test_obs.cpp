// Observability subsystem tests: registry primitives (sharded counters,
// gauges, fixed-bucket histograms), labeled families with stable child
// references, the Prometheus/JSON exporters (golden strings — the formats
// are a contract with external scrapers), the bounded tracer and its Chrome
// trace_event JSON, and the serving-stack wiring: scheduler counters and
// span timelines exact under a ManualClock, request-id propagation through
// sync and async engine submits, and the FCM_OBS_OFF kill switch.
#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "gpusim/device_spec.hpp"
#include "models/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serving/inference_engine.hpp"
#include "serving/scheduler.hpp"

namespace fcm::obs {
namespace {

TEST(Obs, NextRequestIdIsMonotonicAndNeverZero) {
  const std::uint64_t a = next_request_id();
  const std::uint64_t b = next_request_id();
  EXPECT_NE(a, 0u);
  EXPECT_GT(b, a);
}

TEST(Obs, FmtDouble) {
  EXPECT_EQ(fmt_double(0.0), "0");
  EXPECT_EQ(fmt_double(42.0), "42");
  EXPECT_EQ(fmt_double(-3.0), "-3");
  EXPECT_EQ(fmt_double(0.5), "0.5");
  EXPECT_EQ(fmt_double(0.00125), "0.00125");
  EXPECT_EQ(fmt_double(std::numeric_limits<double>::infinity()), "+Inf");
  // Out of int64 range or not a number: formatted without an integer cast
  // (the float-cast-overflow sanitizer checks the cast is never reached).
  EXPECT_EQ(fmt_double(-std::numeric_limits<double>::infinity()), "-Inf");
  EXPECT_EQ(fmt_double(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(fmt_double(1e15), "1e+15");
  EXPECT_EQ(fmt_double(999999999999999.0), "999999999999999");
  EXPECT_EQ(fmt_double(9.3e18), "9.3e+18");
  EXPECT_EQ(fmt_double(-9223372036854775808.0), "-9.22337204e+18");
  EXPECT_EQ(fmt_double(1e300), "1e+300");
}

TEST(Counter, SumsConcurrentIncrements) {
  Counter c;
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5);

  constexpr int kThreads = 8, kIncs = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 5 + kThreads * kIncs);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(0.5);
  EXPECT_EQ(g.value(), 3.0);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
}

TEST(HistogramData, BucketMathIsInclusiveUpperBound) {
  HistogramData d(make_bounds({1.0, 2.0, 5.0}));
  for (double v : {0.5, 1.0, 1.5, 3.0, 7.0}) d.observe(v);
  // lower_bound semantics: a value equal to a bound lands in that bound's
  // bucket (le is inclusive); past the last bound is the overflow bucket.
  ASSERT_EQ(d.buckets.size(), 4u);
  EXPECT_EQ(d.buckets[0], 2);  // 0.5, 1.0
  EXPECT_EQ(d.buckets[1], 1);  // 1.5
  EXPECT_EQ(d.buckets[2], 1);  // 3.0
  EXPECT_EQ(d.buckets[3], 1);  // 7.0 (overflow)
  EXPECT_EQ(d.count, 5);
  EXPECT_DOUBLE_EQ(d.sum, 13.0);
  EXPECT_DOUBLE_EQ(d.min, 0.5);
  EXPECT_DOUBLE_EQ(d.max, 7.0);
  EXPECT_DOUBLE_EQ(d.mean(), 2.6);
}

TEST(HistogramData, PercentilesClampToObservedRange) {
  HistogramData d(make_bounds({1.0, 2.0, 5.0}));
  EXPECT_EQ(d.percentile(0.5), 0.0);  // empty
  d.observe(0.3);
  // A single observation reports exactly itself at every percentile.
  EXPECT_DOUBLE_EQ(d.percentile(0.0), 0.3);
  EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.3);
  EXPECT_DOUBLE_EQ(d.percentile(1.0), 0.3);

  HistogramData many(make_bounds({1.0, 2.0, 5.0}));
  for (double v : {0.5, 1.0, 1.5, 3.0, 7.0}) many.observe(v);
  // p=1.0 walks into the overflow bucket and clamps to the observed max.
  EXPECT_DOUBLE_EQ(many.percentile(1.0), 7.0);
  // Percentiles never leave [min, max].
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_GE(many.percentile(p), many.min);
    EXPECT_LE(many.percentile(p), many.max);
  }
  // Monotone in p.
  EXPECT_LE(many.percentile(0.25), many.percentile(0.75));
}

TEST(HistogramData, MergeAddsAndChecksBounds) {
  HistogramData a(make_bounds({1.0, 2.0}));
  HistogramData b(make_bounds({1.0, 2.0}));
  a.observe(0.5);
  b.observe(3.0);
  a.merge(b);
  EXPECT_EQ(a.count, 2);
  EXPECT_DOUBLE_EQ(a.sum, 3.5);
  EXPECT_DOUBLE_EQ(a.min, 0.5);
  EXPECT_DOUBLE_EQ(a.max, 3.0);

  // Merging into/from an empty side is fine regardless of bounds.
  HistogramData empty;
  empty.merge(a);
  EXPECT_EQ(empty.count, 2);

  // Populated sides with different grids refuse to merge.
  HistogramData other(make_bounds({1.0, 3.0}));
  other.observe(2.0);
  EXPECT_THROW(a.merge(other), Error);
}

TEST(Histogram, ConcurrentObserveMatchesSnapshot) {
  Histogram h(make_bounds({0.25, 0.5, 0.75}));
  constexpr int kThreads = 8, kObs = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) {
        h.observe(static_cast<double>((i + t) % 10) / 10.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramData d = h.snapshot();
  EXPECT_EQ(d.count, kThreads * kObs);
  std::int64_t total = 0;
  for (const std::int64_t n : d.buckets) total += n;
  EXPECT_EQ(total, d.count);
  EXPECT_DOUBLE_EQ(d.min, 0.0);
  EXPECT_DOUBLE_EQ(d.max, 0.9);
}

TEST(Family, ChildReferencesAreStable) {
  MetricsRegistry reg;
  auto& fam = reg.counter_family("fam_total", "help", {"model", "dtype"});
  Counter& a = fam.with({"m1", "f32"});
  Counter& b = fam.with({"m1", "f32"});
  Counter& c = fam.with({"m2", "f32"});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  EXPECT_EQ(fam.with({"m1", "f32"}).value(), 3);
  EXPECT_EQ(c.value(), 0);
}

TEST(Registry, GetOrCreateIsIdempotentAndTypeChecked) {
  MetricsRegistry reg;
  auto& fam = reg.counter_family("x_total", "help", {"k"});
  EXPECT_EQ(&reg.counter_family("x_total", "help", {"k"}), &fam);
  // Same name, different kind or keys: a registration bug, not a new family.
  EXPECT_THROW(reg.gauge_family("x_total", "help", {"k"}), Error);
  EXPECT_THROW(reg.counter_family("x_total", "help", {"other"}), Error);
}

/// One small registry both exporter goldens share: a labeled counter, a
/// bare gauge and a two-bucket histogram with one observation.
void fill_exporter_fixture(MetricsRegistry& reg) {
  reg.counter_family("requests_total", "Requests served", {"model"})
      .with({"m1"})
      .inc(3);
  reg.gauge_family("temp", "A temperature").get().set(1.5);
  reg.histogram_family("lat", "A latency", {}, make_bounds({1.0, 2.0}))
      .get()
      .observe(1.5);
}

TEST(Registry, PrometheusTextGolden) {
  MetricsRegistry reg;
  fill_exporter_fixture(reg);
  EXPECT_EQ(reg.prometheus_text(),
            "# HELP requests_total Requests served\n"
            "# TYPE requests_total counter\n"
            "requests_total{model=\"m1\"} 3\n"
            "# HELP temp A temperature\n"
            "# TYPE temp gauge\n"
            "temp 1.5\n"
            "# HELP lat A latency\n"
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"1\"} 0\n"
            "lat_bucket{le=\"2\"} 1\n"
            "lat_bucket{le=\"+Inf\"} 1\n"
            "lat_sum 1.5\n"
            "lat_count 1\n");
}

TEST(Registry, JsonTextGolden) {
  MetricsRegistry reg;
  fill_exporter_fixture(reg);
  EXPECT_EQ(
      reg.json_text(),
      "{\"metrics\":["
      "{\"name\":\"requests_total\",\"type\":\"counter\","
      "\"help\":\"Requests served\",\"series\":["
      "{\"labels\":{\"model\":\"m1\"},\"value\":3}]},"
      "{\"name\":\"temp\",\"type\":\"gauge\",\"help\":\"A temperature\","
      "\"series\":[{\"labels\":{},\"value\":1.5}]},"
      "{\"name\":\"lat\",\"type\":\"histogram\",\"help\":\"A latency\","
      "\"series\":[{\"labels\":{},\"count\":1,\"sum\":1.5,\"min\":1.5,"
      "\"max\":1.5,\"buckets\":[{\"le\":1,\"n\":0},{\"le\":2,\"n\":1},"
      "{\"le\":\"+Inf\",\"n\":0}]}]}"
      "]}");
}

TEST(Registry, LabelValuesAreEscaped) {
  EXPECT_EQ(prometheus_series_name("m", {"k"}, {"a\"b\\c\nd"}),
            "m{k=\"a\\\"b\\\\c\\nd\"}");
  EXPECT_EQ(prometheus_series_name("m", {}, {}), "m");
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
}

TEST(Tracer, BoundedBufferDropsAndCounts) {
  Tracer tr(2);
  for (int i = 0; i < 3; ++i) {
    TraceSpan s;
    s.trace_id = static_cast<std::uint64_t>(i + 1);
    s.name = "s";
    tr.record(std::move(s));
  }
  EXPECT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.dropped(), 1);
  // The survivors are the first two — overflow drops new spans, it never
  // evicts recorded ones.
  const auto spans = tr.snapshot();
  EXPECT_EQ(spans[0].trace_id, 1u);
  EXPECT_EQ(spans[1].trace_id, 2u);
  tr.clear();
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.dropped(), 0);
}

TEST(Tracer, ChromeTraceJsonGolden) {
  Tracer tr;
  TraceSpan x;
  x.trace_id = 7;
  x.name = "queue";
  x.begin_s = 1e-6;
  x.end_s = 3e-6;
  x.lane = 1;
  x.args = {{"model", "Tiny"}};
  TraceSpan i;
  i.trace_id = 7;
  i.name = "admit";
  // Recorded second but begins first: the exporter sorts by time.
  tr.record(std::move(x));
  tr.record(std::move(i));
  EXPECT_EQ(tr.chrome_trace_json(),
            "{\"traceEvents\":["
            "{\"name\":\"admit\",\"cat\":\"serving\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":0.000,\"pid\":0,\"tid\":0,"
            "\"args\":{\"trace_id\":7}},"
            "{\"name\":\"queue\",\"cat\":\"serving\",\"ph\":\"X\","
            "\"ts\":1.000,\"dur\":2.000,\"pid\":0,\"tid\":1,"
            "\"args\":{\"trace_id\":7,\"model\":\"Tiny\"}}"
            "]}");
}

}  // namespace
}  // namespace fcm::obs

namespace fcm::serving {
namespace {

/// Scheduler-only request: shape is never validated before execution.
ServeRequest one_image(const std::string& model, std::uint64_t request_id) {
  ServeRequest r = ServeRequest::f32(model, {});
  r.batch_f32.emplace_back(1, 2, 2);
  r.request_id = request_id;
  return r;
}

/// Engine request: a correctly-shaped Tiny input the runner will execute.
ServeRequest tiny_request(std::uint64_t request_id, std::uint64_t seed) {
  TensorF in(models::tiny().layers.front().ifm_shape());
  fill_uniform(in, seed);
  ServeRequest r = ServeRequest::f32("Tiny", {});
  r.batch_f32.push_back(std::move(in));
  r.request_id = request_id;
  return r;
}

std::set<std::string> span_names(const obs::Tracer& tr) {
  std::set<std::string> names;
  for (const auto& s : tr.snapshot()) names.insert(s.name);
  return names;
}

TEST(SchedulerObs, CountersAndGaugesTrackQueueLife) {
  obs::MetricsRegistry reg;
  obs::ScopedRegistryOverride override_guard(reg);
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.shard = 3;
  Scheduler sched(opt, clock);

  auto f1 = sched.push(one_image("m", 0));
  auto f2 = sched.push(one_image("m", 0));
  auto& accepted =
      reg.counter_family("fcm_queue_accepted_total", "", {"shard"})
          .with({"3"});
  auto& depth = reg.gauge_family("fcm_queue_depth", "", {"shard"}).with({"3"});
  EXPECT_EQ(accepted.value(), 2);
  EXPECT_EQ(depth.value(), 2.0);

  clock->advance(2e-3);
  Scheduler::Dispatch d;
  ASSERT_TRUE(sched.try_pop(&d));
  sched.record_completed(d.items.size());
  EXPECT_EQ(depth.value(), 1.0);
  EXPECT_EQ(reg.counter_family("fcm_queue_completed_total", "", {"shard"})
                .with({"3"})
                .value(),
            1);
  // The wait histogram sampled the 2ms virtual queue wait exactly.
  const obs::HistogramData wait =
      reg.histogram_family("fcm_queue_wait_seconds", "",
                           {"shard", "discipline"})
          .with({"3", "fifo"})
          .snapshot();
  EXPECT_EQ(wait.count, 1);
  EXPECT_DOUBLE_EQ(wait.sum, 2e-3);
  d.items[0].promise.set_value(response_stub(d.items[0].req, ServeStatus::kOk));
  (void)f1;
  (void)f2;
}

TEST(SchedulerObs, GoldenManualClockChromeTrace) {
  obs::MetricsRegistry reg;
  obs::ScopedRegistryOverride override_guard(reg);
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.tracer = std::make_shared<obs::Tracer>();
  Scheduler sched(opt, clock);

  // One request with a caller-chosen id: admit at t=0, pop 100us later.
  // Every timestamp flows through the ManualClock, so the exported trace is
  // bit-stable — a golden string, not a pattern match.
  auto fut = sched.push(one_image("m", 7));
  clock->advance(100e-6);
  Scheduler::Dispatch d;
  ASSERT_TRUE(sched.try_pop(&d));
  sched.record_completed(1);
  d.items[0].promise.set_value(response_stub(d.items[0].req, ServeStatus::kOk));
  fut.get();

  EXPECT_EQ(opt.tracer->chrome_trace_json(),
            "{\"traceEvents\":["
            "{\"name\":\"admit\",\"cat\":\"serving\",\"ph\":\"i\",\"s\":\"t\","
            "\"ts\":0.000,\"pid\":0,\"tid\":0,"
            "\"args\":{\"trace_id\":7,\"model\":\"m\",\"dtype\":\"f32\","
            "\"batch\":\"1\"}},"
            "{\"name\":\"queue\",\"cat\":\"serving\",\"ph\":\"X\","
            "\"ts\":0.000,\"dur\":100.000,\"pid\":0,\"tid\":0,"
            "\"args\":{\"trace_id\":7,\"model\":\"m\",\"dtype\":\"f32\","
            "\"batch\":\"1\"}},"
            "{\"name\":\"dispatch\",\"cat\":\"serving\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":100.000,\"pid\":0,\"tid\":0,"
            "\"args\":{\"trace_id\":7,\"model\":\"m\",\"batch\":\"1\"}}"
            "]}");
}

TEST(SchedulerObs, ExpiredRequestsRecordExpireInstant) {
  obs::MetricsRegistry reg;
  obs::ScopedRegistryOverride override_guard(reg);
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.tracer = std::make_shared<obs::Tracer>();
  Scheduler sched(opt, clock);

  ServeRequest req = one_image("m", 9);
  req.deadline_s = 1e-3;
  auto fut = sched.push(std::move(req));
  clock->advance(5e-3);  // past the deadline, nothing consumed it
  Scheduler::Dispatch d;
  EXPECT_FALSE(sched.try_pop(&d));
  EXPECT_EQ(fut.get().status, ServeStatus::kExpired);
  EXPECT_EQ(reg.counter_family("fcm_queue_expired_total", "", {"shard"})
                .with({"0"})
                .value(),
            1);
  const auto names = span_names(*opt.tracer);
  EXPECT_TRUE(names.count("expire"));
  EXPECT_FALSE(names.count("queue"));  // it never dispatched
}

TEST(SchedulerObs, DisabledSuppressesCountersAndSpans) {
  obs::MetricsRegistry reg;
  obs::ScopedRegistryOverride override_guard(reg);
  obs::set_enabled(false);
  auto clock = std::make_shared<ManualClock>();
  SchedulerOptions opt;
  opt.tracer = std::make_shared<obs::Tracer>();
  Scheduler sched(opt, clock);

  auto fut = sched.push(one_image("m", 0));
  Scheduler::Dispatch d;
  ASSERT_TRUE(sched.try_pop(&d));
  sched.record_completed(1);
  d.items[0].promise.set_value(response_stub(d.items[0].req, ServeStatus::kOk));
  obs::set_enabled(true);

  EXPECT_EQ(reg.counter_family("fcm_queue_accepted_total", "", {"shard"})
                .with({"0"})
                .value(),
            0);
  EXPECT_EQ(opt.tracer->size(), 0u);
  // The off switch gates telemetry only — the request itself still ran and
  // still got a correlation id.
  EXPECT_NE(fut.get().request_id, 0u);
}

TEST(EngineObs, RequestIdPropagatesSyncAndAsync) {
  obs::MetricsRegistry reg;
  obs::ScopedRegistryOverride override_guard(reg);
  EngineOptions opt;
  opt.queue_workers = 1;
  InferenceEngine engine(gpusim::rtx_a4000(), opt);

  // Caller-chosen ids echo back unchanged on both paths.
  const ServeResponse sync = engine.submit(tiny_request(4242, 1));
  EXPECT_EQ(sync.request_id, 4242u);
  const ServeResponse async =
      engine.submit_async(tiny_request(4243, 2)).get();
  EXPECT_EQ(async.request_id, 4243u);

  // Unset ids get distinct assigned ones from the process-wide sequence.
  const ServeResponse a = engine.submit(tiny_request(0, 3));
  const ServeResponse b = engine.submit_async(tiny_request(0, 4)).get();
  EXPECT_NE(a.request_id, 0u);
  EXPECT_NE(b.request_id, 0u);
  EXPECT_NE(a.request_id, b.request_id);
}

TEST(EngineObs, SubmitRecordsSpansAndLatencyHistogram) {
  obs::MetricsRegistry reg;
  obs::ScopedRegistryOverride override_guard(reg);
  EngineOptions opt;
  opt.queue_workers = 1;
  opt.tracer = std::make_shared<obs::Tracer>();
  InferenceEngine engine(gpusim::rtx_a4000(), opt);

  const ServeResponse sync = engine.submit(tiny_request(21, 5));
  ASSERT_TRUE(sync.ok());
  {
    const auto names = span_names(*opt.tracer);
    EXPECT_TRUE(names.count("execute"));
    EXPECT_TRUE(names.count("respond"));
  }

  // The async path adds the scheduler's spans around the execution.
  const ServeResponse async =
      engine.submit_async(tiny_request(22, 6)).get();
  ASSERT_TRUE(async.ok());
  const auto names = span_names(*opt.tracer);
  for (const char* expected : {"admit", "queue", "dispatch", "execute",
                               "respond"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }
  // A batch-4 request counts its prediction once per item, like the
  // executed gauge counts the whole batch's simulated seconds.
  ServeRequest batched = tiny_request(23, 7);
  for (std::uint64_t seed = 8; seed < 11; ++seed) {
    batched.batch_f32.push_back(tiny_request(0, seed).batch_f32.front());
  }
  ASSERT_TRUE(engine.submit(batched).ok());
  EXPECT_DOUBLE_EQ(reg.gauge_family("fcm_predicted_sim_seconds_total", "",
                                    {"model", "dtype"})
                       .with({"Tiny", "fp32"})
                       .value(),
                   engine.predict_cost_s("Tiny", DType::kF32, 6));

  // Both batch-1 requests' executions landed in the per-(model,dtype,batch)
  // family.
  const obs::HistogramData lat =
      reg.histogram_family("fcm_request_latency_seconds", "",
                           {"model", "dtype", "batch"})
          .with({"Tiny", "fp32", "1"})
          .snapshot();
  EXPECT_EQ(lat.count, 2);
  // And the executed-sim-seconds accumulator saw both simulated runs.
  EXPECT_GT(reg.gauge_family("fcm_executed_sim_seconds_total", "",
                             {"model", "dtype"})
                .with({"Tiny", "fp32"})
                .value(),
            0.0);
}

}  // namespace
}  // namespace fcm::serving
