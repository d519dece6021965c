// plan-zoo: cold planning sweeps through fresh PlanCaches.
//
// One sweep plans the 7 zoo models x {GTX, RTX, Orin} x {FP32, INT8} x
// {pair-only, enable_triple} = 84 plans, in a seeded order, through a new
// PlanCache, so every get_or_plan misses and runs the planner (DP plus tile
// search). Each plan's total GMA is checked against the goldens committed
// beside the benchmark.
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>

#include "bench.hpp"
#include "common/error.hpp"
#include "gpusim/device_spec.hpp"
#include "models/model_zoo.hpp"
#include "planner/tile_search.hpp"
#include "runtime/executor.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kModels = {"Mob_v1", "Mob_v2", "XCe", "Prox",
                                          "CeiT",   "CMT",    "EffNet_B0"};
const std::vector<std::string> kDevices = {"GTX", "RTX", "Orin"};
constexpr int kSetupReps = 3;

struct Combo {
  std::size_t model = 0;
  std::size_t device = 0;
  fcm::DType dtype = fcm::DType::kF32;
  bool triple = false;

  std::string key() const {
    return kModels[model] + " " + kDevices[device] + " " +
           fcm::dtype_name(dtype) + " " + (triple ? "triple" : "pair");
  }
};

struct Setup {
  std::vector<fcm::ModelGraph> models;
  std::vector<fcm::gpusim::DeviceSpec> devices;
  std::vector<Combo> combos;
  std::map<std::string, std::int64_t> golden;
};

std::map<std::string, std::int64_t> load_golden(const std::string& path) {
  std::ifstream is(path);
  FCM_CHECK(static_cast<bool>(is), "cannot read goldens '" + path + "'");
  std::map<std::string, std::int64_t> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string m, d, dt, mode;
    std::int64_t gma = 0;
    FCM_CHECK(static_cast<bool>(ls >> m >> d >> dt >> mode >> gma),
              "bad golden line '" + line + "'");
    out[m + " " + d + " " + dt + " " + mode] = gma;
  }
  return out;
}

struct Sweep {
  std::vector<double> plan_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double gma = 0.0;
  double sim_s = 0.0;
  std::int64_t fused_layers = 0;
  std::int64_t layers = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t full_sweeps = 0;

  std::int64_t planned() const { return attempted - failed; }
};

/// Plan the combos in a seeded order through fresh caches, one cache per
/// sweep, until `duration_s` passes (checked after every plan, so the last
/// sweep may be partial) or `max_sweeps` complete.
void sweep(const Setup& s, std::mt19937_64& rng, double duration_s,
           std::int64_t max_sweeps, SpanLog& spans, Sweep& out, Result& res) {
  const double t0 = now_s();
  std::vector<std::size_t> order(s.combos.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::int64_t n = 0; n < max_sweeps; ++n) {
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng() % (i + 1)]);
    }
    fcm::serving::PlanCache cache(s.combos.size());
    cache.set_plan_fn(spanned_plan_fn(spans));
    std::size_t done = 0;
    for (const std::size_t ci : order) {
      const Combo& c = s.combos[ci];
      const fcm::ModelGraph& model = s.models[c.model];
      const fcm::gpusim::DeviceSpec& dev = s.devices[c.device];
      fcm::planner::PlanOptions po;
      po.enable_triple = c.triple;
      ++out.attempted;
      std::shared_ptr<const fcm::planner::Plan> plan;
      const double a = now_s();
      try {
        ScopedSpan span(spans, "plan_cache.get_or_plan");
        plan = cache.get_or_plan(dev, model, c.dtype, po);
      } catch (const std::exception& e) {
        ++out.failed;
        std::cout << "plan " << c.key() << " failed: " << e.what() << "\n";
        continue;
      }
      out.plan_ms.push_back((now_s() - a) * 1e3);
      const std::int64_t gma = plan->total_gma_bytes();
      out.gma += static_cast<double>(gma);
      out.sim_s += fcm::runtime::evaluate_plan(dev, model, *plan).total_time_s();
      out.fused_layers += plan->fused_layer_count();
      out.layers += plan->total_layer_count();
      if (!s.golden.empty()) {
        const auto it = s.golden.find(c.key());
        if (it == s.golden.end()) {
          res.fail("no golden for " + c.key());
        } else if (it->second != gma) {
          res.fail("planned GMA of " + c.key() + " is " + std::to_string(gma) +
                   " B, golden " + std::to_string(it->second) + " B");
        }
      }
      ++done;
      if (now_s() - t0 >= duration_s) break;
    }
    const fcm::serving::CacheStats cs = cache.stats();
    out.cache_hits += cs.hits;
    out.cache_misses += cs.misses;
    if (cs.hits != 0 || cs.misses != static_cast<std::int64_t>(done)) {
      res.fail("a cold sweep hit the plan cache");
    }
    if (done == order.size()) ++out.full_sweeps;
    if (now_s() - t0 >= duration_s) break;
  }
}

/// Model graphs, devices, the 84 combos, the goldens, and one warm-up sweep
/// (planning is the work this workload measures, so set-up includes the
/// first, cold-process sweep).
Setup set_up(const Options& opt, SpanLog& spans, Sweep& warm, Result& res) {
  Setup s;
  for (const std::string& m : kModels) {
    s.models.push_back(fcm::models::model_by_name(m));
  }
  for (const std::string& d : kDevices) {
    s.devices.push_back(fcm::gpusim::device_by_name(d));
  }
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    for (std::size_t d = 0; d < kDevices.size(); ++d) {
      for (const fcm::DType dt : {fcm::DType::kF32, fcm::DType::kI8}) {
        for (const bool triple : {false, true}) {
          s.combos.push_back({m, d, dt, triple});
        }
      }
    }
  }
  if (!opt.golden.empty()) s.golden = load_golden(opt.golden);
  std::mt19937_64 rng(mix_seed(opt.seed, 6));
  sweep(s, rng, 1e9, 1, spans, warm, res);
  return s;
}

void write_golden(const Options& opt) {
  Setup s;
  Result res;
  SpanLog spans;
  Options o = opt;
  o.golden.clear();
  Sweep warm;
  s = set_up(o, spans, warm, res);
  std::ostringstream os;
  os << "# Planned total GMA (bytes) of every plan-zoo combination:\n"
        "# model device dtype mode gma_bytes. Regenerate with\n"
        "# fcm_bench --write-golden <file> only when a planner change is\n"
        "# meant to change plans.\n";
  for (const Combo& c : s.combos) {
    fcm::planner::PlanOptions po;
    po.enable_triple = c.triple;
    const auto plan = fcm::planner::plan_model(s.devices[c.device],
                                               s.models[c.model], c.dtype, po);
    os << c.key() << " " << plan.total_gma_bytes() << "\n";
  }
  std::ofstream f(opt.write_golden, std::ios::trunc);
  FCM_CHECK(static_cast<bool>(f), "cannot write " + opt.write_golden);
  f << os.str();
  std::cout << "wrote " << s.combos.size() << " goldens to "
            << opt.write_golden << "\n";
}

}  // namespace

Result run_plan_zoo(const Options& opt) {
  if (!opt.write_golden.empty()) {
    write_golden(opt);
    return {};
  }
  Result res;
  SpanLog spans;
  if (opt.golden.empty()) res.fail("plan-zoo needs --golden");

  std::vector<double> setup_s;
  Setup s;
  Sweep warm;
  for (int r = 0; r < kSetupReps; ++r) {
    warm = Sweep{};
    const double t0 = now_s();
    s = set_up(opt, spans, warm, res);
    setup_s.push_back(now_s() - t0);
  }
  print_phase("warm-up", warm.attempted, warm.planned(), warm.failed);
  const double planned_gma_mb = warm.gma / 1e6;

  std::mt19937_64 rng(mix_seed(opt.seed, 2));
  const std::int64_t max_sweeps = opt.small ? 1 : INT64_MAX;
  if (!opt.trace) {
    Sweep st;
    const double t0 = now_s();
    sweep(s, rng, opt.seconds, max_sweeps, spans, st, res);
    const double wall = now_s() - t0;
    print_phase("timed", st.attempted, st.planned(), st.failed);
    res.attempted = st.attempted;
    res.failed = st.failed;
    const auto planned = static_cast<double>(st.planned());
    const double p50 = percentile(st.plan_ms, 0.50);
    const double p99 = percentile(st.plan_ms, 0.99);
    const double gma = planned > 0 ? st.gma / planned / 1e6 : 0.0;
    const double sim = planned > 0 ? st.sim_s / planned * 1e6 : 0.0;
    std::cout << "sweeps: " << st.full_sweeps << " full sweeps of "
              << s.combos.size() << " cold plans (" << st.planned()
              << " plans) in " << wall << " s\n";
    print_metric("setup_s", percentile(setup_s, 0.5), "s",
                 "median of " + std::to_string(kSetupReps) +
                     " set-ups, each one warm-up sweep");
    print_metric("plans_per_s", planned / wall, "plans/s",
                 "json host_ops_per_s");
    print_metric("plan_p50_ms", p50, "ms",
                 "json lat_p50_ms; " + std::to_string(st.plan_ms.size()) +
                     " samples");
    print_metric("plan_p99_ms", p99, "ms",
                 "json lat_tail_ms; " + std::to_string(st.plan_ms.size()) +
                     " samples");
    print_metric("planned_gma_mb", planned_gma_mb, "MB",
                 "sum over one sweep of Plan::total_gma_bytes()");
    print_metric("gma_mb_per_item", gma, "MB/image",
                 "planned GMA per plan, i.e. per planned image");
    print_metric("sim_us_per_item", sim, "us/image",
                 "predicted sim time per plan");
    print_metric("failed_frac",
                 static_cast<double>(st.failed) /
                     static_cast<double>(st.attempted),
                 "fraction", "json slo_attain = 1 - failed_frac");
    res.e2e["setup_s"] = percentile(setup_s, 0.5);
    res.e2e["host_ops_per_s"] = planned / wall;
    res.e2e["lat_p50_ms"] = p50;
    res.e2e["lat_tail_ms"] = p99;
    res.e2e["gma_mb_per_item"] = gma;
    res.e2e["sim_us_per_item"] = sim;
    res.e2e["slo_attain"] = planned / static_cast<double>(st.attempted);
    std::cout << "output check: every planned GMA matched its golden: "
              << (res.correct ? "ok" : "MISMATCH") << "\n";
    return res;
  }

  // Traced run: untraced sweeps (A) then traced sweeps (B), half the run
  // each.
  Sweep a;
  const double a0 = now_s();
  sweep(s, rng, opt.seconds / 2, max_sweeps, spans, a, res);
  const double a_wall = now_s() - a0;
  spans.set_enabled(true);
  fcm::planner::reset_candidates_evaluated();
  Sweep b;
  const double b0 = now_s();
  sweep(s, rng, opt.seconds / 2, max_sweeps, spans, b, res);
  const double b1 = now_s();
  const std::int64_t candidates = fcm::planner::candidates_evaluated();
  print_phase("timed A (untraced)", a.attempted, a.planned(), a.failed);
  print_phase("timed B (traced)", b.attempted, b.planned(), b.failed);
  res.attempted = a.attempted + b.attempted;
  res.failed = a.failed + b.failed;

  const auto totals = spans.totals();
  auto total_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanLog::Totals{} : it->second;
  };
  const auto planner = total_of("planner.plan_model");
  res.layer["planner.plan_model.calls"] = static_cast<double>(planner.calls);
  res.layer["planner.plan_model.host_s"] = planner.total_s;
  res.layer["planner.candidates_evaluated"] = static_cast<double>(candidates);
  res.layer["planner.fused_layer_frac"] =
      b.layers > 0 ? static_cast<double>(b.fused_layers) /
                         static_cast<double>(b.layers)
                   : 0.0;
  res.layer["planner.timed_frac"] = planner.total_s / (b1 - b0);
  res.layer["plan_cache.hits"] = static_cast<double>(b.cache_hits);
  res.layer["plan_cache.misses"] = static_cast<double>(b.cache_misses);
  res.layer["plan_cache.hit_ratio"] =
      b.cache_hits + b.cache_misses > 0
          ? static_cast<double>(b.cache_hits) /
                static_cast<double>(b.cache_hits + b.cache_misses)
          : 0.0;
  res.layer["plan_cache.get_or_plan.host_s"] =
      total_of("plan_cache.get_or_plan").self_s;
  const double rate_a = static_cast<double>(a.planned()) / a_wall;
  const double rate_b = static_cast<double>(b.planned()) / (b1 - b0);
  const double overhead = 1.0 - rate_b / rate_a;
  res.layer["obs.trace_overhead_frac"] = overhead;
  res.layer["obs.spans_recorded"] = static_cast<double>(spans.size());
  std::cout << "trace overhead: plans_per_s untraced " << rate_a
            << ", traced " << rate_b << " (" << overhead * 100.0 << "%)\n"
            << "planner share of traced sweep time: "
            << planner.total_s / (b1 - b0) * 100.0 << "%\n";

  const std::string stem = "plan-zoo-seed" + std::to_string(opt.seed);
  res.traces_written.push_back(
      write_output(opt.out_dir, stem + ".spans.json", spans.chrome_trace_json()));
  return res;
}

}  // namespace perfbench
