// virtual-replay: an open-loop, dry (tensor-free) trace replay in virtual
// time through workload::sim_replay.
//
// A seeded on-off (bursty) trace with a Zipf model choice runs through a
// GTX1660 + RTX-A4000 ServingCluster: least-loaded routing, EDF, coalescing
// up to 8, kReject queues and sim-paced virtual holds. ON bursts overload the
// cluster and OFF gaps drain it, so requests queue and the latency tail grows.
// No request fails: the records carry no deadline, so none expires, and each
// queue holds a whole trace, so none is rejected (the run checks both). The
// host work is the serving scheduler, router and cluster plus the sim_replay
// event loop; no kernel runs.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench.hpp"
#include "gpusim/device_spec.hpp"
#include "obs/trace.hpp"
#include "planner/tile_search.hpp"
#include "serving/cluster.hpp"
#include "workload/generators.hpp"
#include "workload/sim_replay.hpp"

namespace perfbench {
namespace {

using fcm::serving::ServingCluster;
using fcm::serving::ServingReport;

const std::vector<std::string> kModels = {"Mob_v2", "Tiny", "EffNet_B0",
                                          "CeiT", "Mob_v1"};
constexpr double kZipfS = 1.0;
/// Long-run mean arrival rate; ON periods run at twice this.
constexpr double kRateRps = 1100.0;
constexpr double kOnMeanS = 0.1;
constexpr double kOffMeanS = 0.3;
/// Latency limit of slo_attain, virtual seconds.
constexpr double kSloS = 0.100;
constexpr int kMaxCoalesce = 8;
constexpr std::int64_t kCoalesceWaitUs = 1000;
constexpr double kSimDilation = 1.0;
constexpr int kSetupReps = 3;
constexpr int kTracedPairs = 2;

struct Sizes {
  /// Distinct seeded traces, and requests in each.
  std::size_t traces;
  std::size_t trace;
  std::size_t traced;
  std::size_t warmup;
};
Sizes sizes(const Options& opt) {
  if (opt.small) return {1, 3000, 1000, 500};
  return {8, 150000, 20000, 2000};
}

/// One cluster on its own virtual clock. Every replay gets a fresh one:
/// sim_replay may leave the ManualClock at +inf when the last response is
/// harvested (its drain step can jump to an empty wakeup), so a second replay
/// on the same clock would start at infinity.
struct Cluster {
  std::shared_ptr<fcm::ManualClock> clock;
  std::unique_ptr<ServingCluster> cluster;
};

struct Setup {
  Cluster cluster;
  std::vector<fcm::workload::Trace> traces;
  double generate_s = 0.0;
};

fcm::workload::Trace make_trace(std::size_t n, std::uint64_t seed) {
  fcm::workload::GeneratorSpec spec;
  spec.kind = fcm::workload::GeneratorKind::kOnOff;
  spec.requests = n;
  spec.rate_rps = kRateRps;
  spec.models = kModels;
  spec.zipf_s = kZipfS;
  spec.on_mean_s = kOnMeanS;
  spec.off_mean_s = kOffMeanS;
  return fcm::workload::generate_trace(spec, seed);
}

/// Cluster construction on a fresh ManualClock, with warm plans and
/// admission prices on every shard.
Cluster make_cluster(const Options& opt,
                     std::shared_ptr<fcm::obs::Tracer> tracer,
                     SpanLog& spans) {
  Cluster s;
  s.clock = std::make_shared<fcm::ManualClock>();
  fcm::serving::ClusterOptions copt;
  copt.engine.clock = s.clock;
  copt.engine.seed = mix_seed(opt.seed, 1);
  copt.engine.queue_workers = 1;
  // Deep enough for a whole trace, so admission never rejects.
  copt.engine.scheduler.queue_depth = sizes(opt).trace;
  copt.engine.scheduler.policy = fcm::serving::AdmissionPolicy::kReject;
  copt.engine.scheduler.discipline = fcm::serving::QueueDiscipline::kEdf;
  copt.engine.scheduler.max_coalesce_batch = kMaxCoalesce;
  copt.engine.scheduler.coalesce_wait_us = kCoalesceWaitUs;
  copt.engine.sim_dilation = kSimDilation;
  copt.engine.virtual_hold = true;
  copt.engine.tracer = std::move(tracer);
  copt.router = fcm::serving::RouterPolicy::kLeastLoaded;
  s.cluster = std::make_unique<ServingCluster>(
      std::vector<fcm::gpusim::DeviceSpec>{fcm::gpusim::gtx1660(),
                                           fcm::gpusim::rtx_a4000()},
      copt);
  for (std::size_t k = 0; k < s.cluster->size(); ++k) {
    auto& engine = s.cluster->engine(k);
    engine.plan_cache().set_plan_fn(spanned_plan_fn(spans));
    for (const std::string& m : kModels) {
      {
        ScopedSpan span(spans, "plan_cache.get_or_plan");
        engine.plan_for(m, fcm::DType::kF32);
      }
      engine.predict_cost_s(m, fcm::DType::kF32, 1);
    }
  }
  return s;
}

/// One cluster plus the seeded traces.
Setup set_up(const Options& opt, SpanLog& spans) {
  Setup s;
  s.cluster = make_cluster(opt, nullptr, spans);
  const Sizes n = sizes(opt);
  const double t0 = now_s();
  for (std::size_t k = 0; k < n.traces; ++k) {
    ScopedSpan span(spans, "workload.generate_trace");
    s.traces.push_back(make_trace(n.trace, mix_seed(opt.seed, 10 + k)));
  }
  s.generate_s = now_s() - t0;
  return s;
}

/// Everything the timed phase accumulates over its replays.
struct Acc {
  std::int64_t sent = 0, completed = 0, items = 0, rejected = 0, expired = 0;
  double gma = 0.0, sim = 0.0, virtual_s = 0.0, wall_s = 0.0;
  fcm::obs::HistogramData latency;
  int replays = 0;
};

/// The replay's virtual span: SimSummary's, or the last arrival when the
/// drain left the clock at infinity.
double virtual_span(const fcm::workload::SimSummary& sum,
                    const fcm::workload::Trace& trace) {
  return std::isfinite(sum.virtual_s) ? sum.virtual_s : trace.duration_s();
}

/// Check the replay's accounting (sent == completed + rejected + expired,
/// per shard and in total, with nothing rejected or expired) and fold it into
/// `acc`.
void add_replay(const ServingReport& rep, const fcm::workload::SimSummary& sum,
                const fcm::workload::Trace& trace, Acc& acc, Result& res) {
  std::int64_t routed = 0;
  for (const auto& sh : rep.shards) {
    routed += sh.routed;
    const std::string who = "shard " + std::to_string(sh.shard);
    if (sh.routed != sh.requests + sh.rejected + sh.expired) {
      res.fail(who + ": routed " + std::to_string(sh.routed) +
               " != completed + rejected + expired");
    }
    if (sh.queue.accepted + sh.queue.rejected != sh.routed ||
        sh.queue.completed + sh.queue.expired != sh.queue.accepted) {
      res.fail(who + ": queue counters do not add up to the routed requests");
    }
  }
  std::int64_t rejected = 0, expired = 0;
  for (const auto& g : rep.groups) {
    rejected += g.rejected;
    expired += g.expired;
  }
  const auto n = static_cast<std::int64_t>(trace.requests.size());
  if (routed != n) res.fail("routed requests != trace requests");
  if (rep.total_requests() + rejected + expired != n) {
    res.fail("sent != completed + rejected + expired");
  }
  if (rejected + expired != 0) {
    res.fail(std::to_string(rejected) + " rejected and " +
             std::to_string(expired) +
             " expired requests, though no request has a deadline and every "
             "queue holds a whole trace");
  }
  acc.sent += n;
  acc.completed += rep.total_requests();
  acc.items += rep.total_items();
  acc.rejected += rejected;
  acc.expired += expired;
  for (const auto& m : rep.models) {
    acc.gma += static_cast<double>(m.gma_bytes);
    acc.sim += m.sim_time_s;
    acc.latency.merge(m.latency);
  }
  acc.virtual_s += virtual_span(sum, trace);
  acc.wall_s += sum.wall_s;
  acc.replays += 1;
}

/// Completed requests whose virtual latency is within kSloS: the histogram
/// buckets whose inclusive upper bound is <= kSloS (kSloS is a bound of the
/// library's 1-2-5 latency grid, so the count is exact).
std::int64_t within_slo(const fcm::obs::HistogramData& h, Result& res) {
  if (h.bounds == nullptr) return 0;
  std::int64_t n = 0;
  bool found = false;
  for (std::size_t i = 0; i < h.bounds->size(); ++i) {
    const double b = (*h.bounds)[i];
    if (b <= kSloS * (1.0 + 1e-9)) n += h.buckets[i];
    found |= std::fabs(b - kSloS) <= kSloS * 1e-9;
  }
  if (!found) res.fail("the latency histogram has no bucket bound at the SLO");
  return n;
}

ServingReport replay(Cluster& c, const fcm::workload::Trace& trace,
                     fcm::workload::SimSummary* sum, SpanLog& spans) {
  ScopedSpan span(spans, "workload.sim_replay");
  return fcm::workload::sim_replay(*c.cluster, c.clock, trace, {}, sum);
}

/// Union length of [begin, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_b = 0.0, cur_e = -1e300;
  for (const auto& [b, e] : iv) {
    if (b > cur_e) {
      if (cur_e > cur_b) total += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_b) total += cur_e - cur_b;
  return total;
}

/// Per-layer metrics of one traced replay on `c`: scheduler and router
/// counters from its report, queue waits and per-shard busy time from the
/// Tracer's virtual-time spans.
void traced_metrics(Cluster& c, const ServingReport& rep,
                    const fcm::workload::SimSummary& sum,
                    const fcm::workload::Trace& trace,
                    const fcm::obs::Tracer& tracer, Result& res) {
  const auto& q = rep.queue;
  res.layer["scheduler.accepted"] = static_cast<double>(q.accepted);
  res.layer["scheduler.rejected"] = static_cast<double>(q.rejected);
  res.layer["scheduler.expired"] = static_cast<double>(q.expired);
  res.layer["scheduler.max_depth"] = static_cast<double>(q.max_depth);
  res.layer["scheduler.coalesced_batches"] =
      static_cast<double>(q.coalesced_batches);
  res.layer["scheduler.coalesced_items"] =
      static_cast<double>(q.coalesced_items);
  res.layer["scheduler.coalesce_ratio"] =
      q.coalesced_batches > 0 ? static_cast<double>(q.coalesced_items) /
                                    static_cast<double>(q.coalesced_batches)
                              : 0.0;
  for (const auto& sh : rep.shards) {
    const std::string p = "scheduler.shard" + std::to_string(sh.shard) + ".";
    res.layer[p + "accepted"] = static_cast<double>(sh.queue.accepted);
    res.layer[p + "rejected"] = static_cast<double>(sh.queue.rejected);
    res.layer[p + "expired"] = static_cast<double>(sh.queue.expired);
    res.layer[p + "max_depth"] = static_cast<double>(sh.queue.max_depth);
  }
  const std::vector<std::int64_t> routed = c.cluster->routed();
  for (std::size_t k = 0; k < routed.size(); ++k) {
    res.layer["router.shard" + std::to_string(k) + ".routed"] =
        static_cast<double>(routed[k]);
  }

  // Execute spans include the sim-paced hold; coalesced riders share one
  // interval, hence the union.
  std::vector<double> queue_ms;
  std::map<int, std::vector<std::pair<double, double>>> execute;
  double last_end = trace.duration_s();
  for (const fcm::obs::TraceSpan& sp : tracer.snapshot()) {
    if (sp.name == "queue") queue_ms.push_back((sp.end_s - sp.begin_s) * 1e3);
    if (sp.name == "execute") {
      execute[sp.lane].emplace_back(sp.begin_s, sp.end_s);
      last_end = std::max(last_end, sp.end_s);
    }
  }
  const double span_s = std::isfinite(sum.virtual_s) ? sum.virtual_s : last_end;
  res.layer["scheduler.virt_queue_wait_ms.p50"] = percentile(queue_ms, 0.50);
  res.layer["scheduler.virt_queue_wait_ms.p99"] = percentile(queue_ms, 0.99);
  std::vector<double> busy(c.cluster->size(), 0.0);
  for (std::size_t k = 0; k < busy.size(); ++k) {
    busy[k] = union_length(execute[static_cast<int>(k)]) / span_s;
    res.layer["cluster.shard" + std::to_string(k) + ".busy_frac"] = busy[k];
  }
  res.layer["cluster.busy_gap"] = std::fabs(busy[0] - busy[1]);
  std::cout << "busy: shard0 " << busy[0] << ", shard1 " << busy[1] << " of "
            << span_s << " virtual s; queue wait p50 "
            << percentile(queue_ms, 0.50) << " ms, p99 "
            << percentile(queue_ms, 0.99) << " ms (" << queue_ms.size()
            << " spans)\n";

  int fused = 0, layers = 0;
  fcm::serving::CacheStats cache;
  for (std::size_t k = 0; k < c.cluster->size(); ++k) {
    auto& engine = c.cluster->engine(k);
    for (const std::string& m : kModels) {
      const auto plan = engine.plan_for(m, fcm::DType::kF32);
      fused += plan->fused_layer_count();
      layers += plan->total_layer_count();
    }
    fcm::serving::cache_accumulate(cache, engine.plan_cache().stats());
  }
  res.layer["planner.fused_layer_frac"] =
      layers > 0 ? static_cast<double>(fused) / layers : 0.0;
  res.layer["plan_cache.hits"] = static_cast<double>(cache.hits);
  res.layer["plan_cache.misses"] = static_cast<double>(cache.misses);
  res.layer["plan_cache.hit_ratio"] =
      cache.hits + cache.misses > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses)
          : 0.0;
}

}  // namespace

Result run_virtual_replay(const Options& opt) {
  Result res;
  SpanLog spans;
  const Sizes n = sizes(opt);

  std::vector<double> setup_s;
  Setup s;
  for (int r = 0; r < kSetupReps; ++r) {
    s = Setup{};
    const double t0 = now_s();
    s = set_up(opt, spans);
    setup_s.push_back(now_s() - t0);
  }
  std::cout << "traces: " << n.traces << " x " << n.trace
            << " requests, on-off " << kOnMeanS << "/" << kOffMeanS
            << " s, mean " << kRateRps << " req/s, Zipf s=" << kZipfS
            << ", first spans " << s.traces.front().duration_s()
            << " virtual s\n";

  {
    Acc warm;
    fcm::workload::SimSummary sum;
    const auto wt = make_trace(n.warmup, mix_seed(opt.seed, 5));
    add_replay(replay(s.cluster, wt, &sum, spans), sum, wt, warm, res);
    print_phase("warm-up", warm.sent, warm.completed,
                warm.rejected + warm.expired);
  }

  if (!opt.trace) {
    // One fresh cluster per replay; only the replays themselves are timed.
    // Replays cycle through the traces until the time is up, and at least
    // once through all of them. The virtual-time metrics come from the first
    // pass, one replay per trace, so host speed never changes which traces
    // they describe; host throughput counts every replay.
    Acc acc, first_pass;
    for (std::size_t i = 0; i < n.traces || acc.wall_s < opt.seconds; ++i) {
      const fcm::workload::Trace& trace = s.traces[i % n.traces];
      Cluster c = make_cluster(opt, nullptr, spans);
      fcm::workload::SimSummary sum;
      const ServingReport rep = replay(c, trace, &sum, spans);
      add_replay(rep, sum, trace, acc, res);
      if (i < n.traces) add_replay(rep, sum, trace, first_pass, res);
    }
    print_phase("timed", acc.sent, acc.completed, acc.rejected + acc.expired);
    res.attempted = acc.sent;
    res.failed = acc.rejected + acc.expired;

    const Acc& v = first_pass;
    const auto items = static_cast<double>(v.items);
    const double sent = static_cast<double>(v.sent);
    const double rate = static_cast<double>(acc.sent) / acc.wall_s;
    const double slo = static_cast<double>(within_slo(v.latency, res)) / sent;
    const double p50 = v.latency.percentile(0.50) * 1e3;
    const double p99 = v.latency.percentile(0.99) * 1e3;
    const double gma = items > 0 ? v.gma / items / 1e6 : 0.0;
    const double sim = items > 0 ? v.sim / items * 1e6 : 0.0;
    const std::string samples = std::to_string(v.latency.count) +
                                " samples, histogram-interpolated";
    std::cout << "open loop: " << acc.replays << " replays of the trace; "
              << "generator lateness 0 by construction (sim_replay submits "
                 "every request exactly at its virtual arrival instant)\n"
              << "virtual time: " << acc.virtual_s << " s in " << acc.wall_s
              << " host s (" << acc.virtual_s / acc.wall_s
              << "x fast-forward); rejected " << acc.rejected << ", expired "
              << acc.expired << "\n";
    print_metric("setup_s", percentile(setup_s, 0.5), "s",
                 "median of " + std::to_string(kSetupReps) + " set-ups");
    print_metric("replay_req_per_s", rate, "req/s", "json host_ops_per_s");
    print_metric("virt_lat_p50_ms", p50, "ms", "json lat_p50_ms; " + samples);
    print_metric("virt_lat_p99_ms", p99, "ms", "json lat_tail_ms; " + samples);
    print_metric("slo_attain", slo, "fraction",
                 "completed within 100 ms virtual / sent");
    print_metric("failed_frac",
                 static_cast<double>(v.rejected + v.expired) / sent,
                 "fraction");
    print_metric("gma_mb_per_item", gma, "MB/image");
    print_metric("sim_us_per_item", sim, "us/image");
    std::cout << "output check: sent == completed + rejected + expired per "
                 "shard and in total: "
              << (res.correct ? "ok" : "MISMATCH") << "\n";
    res.e2e["setup_s"] = percentile(setup_s, 0.5);
    res.e2e["host_ops_per_s"] = rate;
    res.e2e["lat_p50_ms"] = p50;
    res.e2e["lat_tail_ms"] = p99;
    res.e2e["gma_mb_per_item"] = gma;
    res.e2e["sim_us_per_item"] = sim;
    res.e2e["slo_attain"] = slo;
    return res;
  }

  // Traced run: alternate untraced replays (A) and traced ones (B: spans on,
  // the Tracer attached) of the trace's first `n.traced` requests, each on a
  // fresh cluster. The Tracer is cleared before each B, so the per-layer
  // metrics describe the last traced replay.
  fcm::workload::Trace prefix = s.traces.front();
  prefix.requests.resize(std::min(n.traced, prefix.requests.size()));
  auto tracer = std::make_shared<fcm::obs::Tracer>(prefix.requests.size() * 10);
  fcm::planner::reset_candidates_evaluated();
  Acc a, b;
  double b_windows_s = 0.0, planner_in_b = 0.0;
  for (int p = 0; p < kTracedPairs; ++p) {
    {
      Cluster c = make_cluster(opt, nullptr, spans);
      fcm::workload::SimSummary sum;
      add_replay(replay(c, prefix, &sum, spans), sum, prefix, a, res);
    }
    spans.set_enabled(true);
    Cluster c = make_cluster(opt, tracer, spans);
    tracer->clear();
    fcm::workload::SimSummary sum;
    const double b0 = now_s();
    const ServingReport rep = replay(c, prefix, &sum, spans);
    const double b1 = now_s();
    spans.set_enabled(false);
    add_replay(rep, sum, prefix, b, res);
    b_windows_s += b1 - b0;
    const auto in_b = spans.totals(b0, b1);
    if (const auto it = in_b.find("planner.plan_model"); it != in_b.end()) {
      planner_in_b += it->second.total_s;
    }
    if (p + 1 == kTracedPairs) {
      traced_metrics(c, rep, sum, prefix, *tracer, res);
    }
  }
  print_phase("timed A (untraced)", a.sent, a.completed,
              a.rejected + a.expired);
  print_phase("timed B (traced)", b.sent, b.completed, b.rejected + b.expired);
  res.attempted = a.sent + b.sent;
  res.failed = a.rejected + a.expired + b.rejected + b.expired;
  const std::int64_t candidates = fcm::planner::candidates_evaluated();

  const auto totals = spans.totals();
  auto total_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanLog::Totals{} : it->second;
  };
  res.layer["workload.generate.host_s"] = s.generate_s;
  res.layer["workload.sim_replay.host_s"] = b.wall_s;
  res.layer["workload.virtual_s"] = b.virtual_s;
  res.layer["workload.fast_forward_x"] = b.virtual_s / b.wall_s;
  res.layer["planner.plan_model.calls"] =
      static_cast<double>(total_of("planner.plan_model").calls);
  res.layer["planner.plan_model.host_s"] = total_of("planner.plan_model").total_s;
  res.layer["planner.candidates_evaluated"] = static_cast<double>(candidates);
  res.layer["planner.timed_frac"] = planner_in_b / b_windows_s;
  res.layer["plan_cache.get_or_plan.host_s"] =
      total_of("plan_cache.get_or_plan").self_s;

  const double rate_a = static_cast<double>(a.sent) / a.wall_s;
  const double rate_b = static_cast<double>(b.sent) / b.wall_s;
  const double overhead = 1.0 - rate_b / rate_a;
  res.layer["obs.spans_recorded"] = static_cast<double>(tracer->size());
  res.layer["obs.spans_dropped"] = static_cast<double>(tracer->dropped());
  res.layer["obs.trace_overhead_frac"] = overhead;
  std::cout << "trace overhead: replay_req_per_s untraced " << rate_a
            << ", traced " << rate_b << " (" << overhead * 100.0 << "%)\n"
            << "tracer: " << tracer->size() << " spans recorded, "
            << tracer->dropped() << " dropped (last traced replay)\n";

  const std::string stem = "virtual-replay-seed" + std::to_string(opt.seed);
  res.traces_written.push_back(
      write_output(opt.out_dir, stem + ".spans.json", spans.chrome_trace_json()));
  res.traces_written.push_back(write_output(
      opt.out_dir, stem + ".tracer.json", tracer->chrome_trace_json()));
  return res;
}

}  // namespace perfbench
