// fcm_bench — the repository benchmark program (see perfbench/README.md).
//
//   fcm_bench --workload functional-mix|virtual-replay|plan-zoo
//             --seed N --seconds S --trace 0|1 [--small] [--out-dir DIR]
//             [--golden FILE]
//   fcm_bench --write-golden FILE      regenerate the plan-zoo goldens
//   fcm_bench --list-metrics           print the metric tables as JSON
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// an output check fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace {

using perfbench::MetricDef;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fcm_bench: " << why
            << "\nusage: fcm_bench --workload "
               "functional-mix|virtual-replay|plan-zoo --seed N --seconds S "
               "--trace 0|1 [--small] [--out-dir DIR] [--golden FILE]\n"
               "       fcm_bench --write-golden FILE\n"
               "       fcm_bench --list-metrics\n";
  std::exit(2);
}

std::string metrics_json(const std::vector<MetricDef>& defs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = values.at(defs[i].name);
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + defs[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + fcm::obs::json_escape(defs[i].unit) + "\"}";
  }
  return out + "}";
}

std::string defs_json(const std::vector<MetricDef>& defs) {
  std::string out = "[";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::string("{\"name\": \"") +
           defs[i].name + "\", \"unit\": \"" + defs[i].unit +
           "\", \"better\": \"" + defs[i].better + "\"}";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        opt.trace = t == "1";
        have_trace = true;
      } else if (a == "--small") {
        opt.small = true;
      } else if (a == "--out-dir") {
        opt.out_dir = value();
      } else if (a == "--golden") {
        opt.golden = value();
      } else if (a == "--write-golden") {
        opt.write_golden = value();
      } else if (a == "--list-metrics") {
        std::cout << "{\"end_to_end\": "
                  << defs_json(perfbench::end_to_end_metrics())
                  << ", \"per_layer\": "
                  << defs_json(perfbench::per_layer_metrics()) << "}\n";
        return 0;
      } else {
        usage("unknown argument '" + a + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }

  // Thread budget: at most 4 pool workers, whatever the host offers.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  fcm::ThreadPool pool(std::min(4u, hw));
  fcm::ScopedPoolOverride pool_override(pool);

  perfbench::Result result;
  try {
    if (!opt.write_golden.empty()) {
      opt.workload = "plan-zoo";
      perfbench::run_plan_zoo(opt);
      return 0;
    }
    if (!have_seed || !have_seconds || !have_trace) {
      usage("--seed, --seconds and --trace are required");
    }
    if (!(opt.seconds > 0.0) || opt.seconds > 600.0) {
      usage("--seconds must be in (0, 600]");
    }
    std::cout << "fcm_bench workload=" << opt.workload << " seed=" << opt.seed
              << " seconds=" << opt.seconds << " trace=" << opt.trace
              << (opt.small ? " small" : "") << " pool_workers=" << pool.size()
              << "\n";
    if (opt.workload == "functional-mix") {
      result = perfbench::run_functional_mix(opt);
    } else if (opt.workload == "virtual-replay") {
      result = perfbench::run_virtual_replay(opt);
    } else if (opt.workload == "plan-zoo") {
      result = perfbench::run_plan_zoo(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "fcm_bench: error: " << e.what() << "\n";
    return 1;
  }

  const auto& defs = opt.trace ? perfbench::per_layer_metrics()
                               : perfbench::end_to_end_metrics();
  auto& values = opt.trace ? result.layer : result.e2e;
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const MetricDef& d : defs) known |= d.name == name;
    if (!known) result.fail("metric '" + name + "' is not in the table");
  }
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end()) {
      values[d.name] = 0.0;
      if (!opt.trace) result.fail("metric '" + d.name + "' was not measured");
    } else if (!std::isfinite(it->second)) {
      result.fail("metric '" + d.name + "' is not finite");
      it->second = 0.0;
    }
  }
  if (result.attempted < 1) result.fail("no operation was attempted");
  for (const std::string& path : result.traces_written) {
    std::cout << "trace written: " << path << "\n";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json(defs, values) << "}"
            << std::endl;
  return result.correct ? 0 : 1;
}
