// fcmserve — serve the bundled models through the cached-plan inference
// engine.
//
// Demonstrates the serving workflow end to end: the first request per
// (model, device, dtype, options) pays the full FusePlanner tile search
// (cold), every later request reuses the cached plan (warm), and a cache
// directory carries the plans across process restarts. Replays a synthetic
// round-robin request mix across the model zoo on the simulator and prints
// per-model throughput/latency percentiles. It always serves a cluster:
// --device X is a one-shard cluster, --devices a list of shards.
//
//   fcmserve --device RTX --requests 4
//   fcmserve --models Mob_v1,Mob_v2 --cache-dir plans/ --threads 8
//   fcmserve --models Tiny --batch 4 --dtype i8 --queue-depth 8 --policy reject
//   fcmserve --devices GTX,RTX --router least-loaded --models Tiny --requests 8
//   fcmserve --plan-only --cache-dir plans/     # cold/warm planning table only
#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "models/model_zoo.hpp"
#include "serving/cluster.hpp"
#include "serving/inference_engine.hpp"
#include "tools/cli_util.hpp"
#include "workload/trace.hpp"

using namespace fcm;

namespace {

void usage() {
  std::cout <<
      "fcmserve — cached-plan inference serving for the bundled models\n"
      "  --device <GTX|RTX|Orin>      serve one shard on this device,\n"
      "                               default RTX\n"
      "  --devices <csv>              serve a CLUSTER: one engine shard per\n"
      "                               listed device (repeats allowed, e.g.\n"
      "                               GTX,RTX,RTX), requests routed per\n"
      "                               --router; overrides --device\n"
      "  --router <round-robin|least-loaded|least-requests>\n"
      "                               cluster shard selection, default\n"
      "                               round-robin (least-loaded = join the\n"
      "                               shortest predicted work in seconds;\n"
      "                               least-requests = count-based baseline)\n"
      "  --autoscale-max <n>          elastic scaling: let the cluster grow\n"
      "                               to n shards (reserve shards clone the\n"
      "                               last device), default 0 (off)\n"
      "  --scale-up-s <x>             add a shard when predicted backlog\n"
      "                               exceeds x seconds per serving shard,\n"
      "                               default 0.05\n"
      "  --scale-down-s <x>           drain a shard when backlog would stay\n"
      "                               under x seconds per shard (must be\n"
      "                               < --scale-up-s), default 0.01\n"
      "  --scale-cooldown-s <x>       min clock seconds between scale\n"
      "                               events, default 0.25\n"
      "  --models <csv>               zoo short names, default all seven\n"
      "                               (Mob_v1,Mob_v2,XCe,Prox,CeiT,CMT,EffNet_B0)\n"
      "  --requests <n>               requests per model, default 3\n"
      "  --batch <n>                  inputs per request, default 1\n"
      "  --dtype <f32|i8>             request precision, default f32 (i8\n"
      "                               needs DW/PW-only models, e.g. Tiny)\n"
      "  --queue-depth <n>            admission queue bound, default 32\n"
      "  --policy <block|reject>      full-queue behaviour, default block\n"
      "  --discipline <fifo|edf>      dequeue order, default fifo (edf =\n"
      "                               earliest deadline first)\n"
      "  --coalesce <n>               merge up to n same-(model, dtype)\n"
      "                               single-image requests into one batch\n"
      "                               at dequeue, default 1 (off)\n"
      "  --coalesce-wait-us <n>       batching window from the head's\n"
      "                               enqueue, default 0 (merge only what\n"
      "                               is already queued)\n"
      "  --deadline-ms <x>            queueing deadline per request,\n"
      "                               default 0 (none)\n"
      "  --sim-dilation <x>           hold each request on its worker for\n"
      "                               simulated-GPU-time x this factor, so\n"
      "                               shard drain rates track the simulated\n"
      "                               devices; must be > 0 when given\n"
      "                               (omit the flag to disable holds)\n"
      "  --threads <n>                worker threads (default: hardware)\n"
      "  --cache-dir <dir>            persistent plan-cache directory\n"
      "  --cache-capacity <n>         plan-cache LRU bound, default 32\n"
      "  --triple                     enable PWDWPW triple fusion in plans\n"
      "  --seed <n>                   weight seed, default 2024\n"
      "  --plan-only                  cold/warm planning table only (no\n"
      "                               functional execution of requests)\n"
      "  --metrics-out <file>         dump the process metrics registry on\n"
      "                               exit: Prometheus text, or JSON when\n"
      "                               the file ends in .json\n"
      "  --metrics-interval-ms <n>    also rewrite --metrics-out every n ms\n"
      "                               while serving (n >= 1; requires\n"
      "                               --metrics-out)\n"
      "  --trace-out <file>           record per-request spans (admit/queue/\n"
      "                               coalesce/dispatch/execute/respond) and\n"
      "                               write a Chrome trace_event JSON file —\n"
      "                               open it at chrome://tracing\n"
      "  --trace-in <file>            replay a recorded workload trace\n"
      "                               (fcmsim JSONL format) at its recorded\n"
      "                               arrival times instead of the synthetic\n"
      "                               mix; overrides --models/--requests/\n"
      "                               --batch/--dtype/--deadline-ms\n";
}

/// Background thread rewriting the metrics file every interval until
/// destruction — live dashboards can tail the file while fcmserve replays.
class PeriodicMetricsDumper {
 public:
  PeriodicMetricsDumper(std::string path, std::int64_t interval_ms)
      : path_(std::move(path)),
        interval_(std::chrono::milliseconds(interval_ms)),
        worker_([this] { loop(); }) {}

  ~PeriodicMetricsDumper() {
    {
      MutexLock lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

 private:
  void loop() {
    MutexLock lk(mu_);
    auto next = std::chrono::steady_clock::now() + interval_;
    for (;;) {
      while (!stop_ && std::chrono::steady_clock::now() < next) {
        cv_.wait_until(lk, next);
      }
      if (stop_) return;
      next += interval_;
      lk.unlock();
      cli::dump_metrics(path_);  // best effort; the final dump reports failure
      lk.lock();
    }
  }

  const std::string path_;
  const std::chrono::steady_clock::duration interval_;
  Mutex mu_;
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread worker_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string device = "RTX", models_csv, cache_dir;
  int requests = 3, batch = 1;
  unsigned threads = 0;
  std::size_t cache_capacity = 32;
  std::uint64_t seed = 2024;
  bool triple = false, plan_only = false;
  DType dtype = DType::kF32;
  serving::AdmissionPolicy policy = serving::AdmissionPolicy::kBlock;
  cli::ClusterFlags flags;  // fcmserve: queue depth 32, holds off
  double deadline_ms = 0.0;
  std::string trace_in;
  std::int64_t metrics_interval_ms = 0;

  cli::Args args{argc, argv, 1, usage};
  for (; args.i < argc; ++args.i) {
    const std::string arg = argv[args.i];
    if (flags.parse(args)) continue;
    if (arg == "--device") device = args.next(arg);
    else if (arg == "--models") models_csv = args.next(arg);
    else if (arg == "--requests") {
      requests = static_cast<int>(args.next_u64(arg, 1 << 20));
    } else if (arg == "--batch") {
      batch = static_cast<int>(args.next_u64(arg, 1 << 12));
    } else if (arg == "--dtype") {
      dtype = args.next_dtype(arg);
    } else if (arg == "--policy") {
      const std::string v = args.next(arg);
      if (v == "block") policy = serving::AdmissionPolicy::kBlock;
      else if (v == "reject") policy = serving::AdmissionPolicy::kReject;
      else args.bad_value(arg, v, "block|reject");
    } else if (arg == "--deadline-ms") {
      // Fractional deadlines matter: Tiny's per-request service time is well
      // under a millisecond.
      deadline_ms = args.next_double(arg, 1e9);
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(args.next_u64(arg, 1024));
    } else if (arg == "--cache-dir") cache_dir = args.next(arg);
    else if (arg == "--cache-capacity") {
      cache_capacity = args.next_u64(arg, 1 << 20);
    } else if (arg == "--seed") {
      seed = args.next_u64(arg, std::numeric_limits<std::uint64_t>::max());
    }
    else if (arg == "--trace-in") trace_in = args.next(arg);
    else if (arg == "--metrics-interval-ms") {
      metrics_interval_ms =
          static_cast<std::int64_t>(args.next_u64(arg, 1u << 30));
      if (metrics_interval_ms < 1) {
        args.bad_value(arg, args.argv[args.i], "an integer >= 1");
      }
    }
    else if (arg == "--triple") triple = true;
    else if (arg == "--plan-only") plan_only = true;
    else args.unknown();
  }
  if (requests < 1 || batch < 1 || cache_capacity < 1) {
    args.fail("--requests/--batch/--cache-capacity must all be >= 1");
  }
  if (!flags.devices_set) {
    // --device names the one shard; a list belongs in --devices.
    if (device.empty() || device.find(',') != std::string::npos) {
      args.bad_value("--device", device, "one device; lists go to --devices");
    }
    flags.devices_csv = device;
  }
  flags.validate(args);
  if (metrics_interval_ms > 0 && flags.metrics_out.empty()) {
    // Same no-silent-noop rule: a periodic dump with nowhere to dump would
    // quietly do nothing.
    args.fail("--metrics-interval-ms requires --metrics-out");
  }

  // --trace-in: the replay mix comes from a recorded trace instead of the
  // synthetic round-robin mix. A malformed trace is a usage error like any
  // other bad flag value — hard exit 2 with the parser's line diagnosis.
  workload::Trace in_trace;
  const bool trace_mode = !trace_in.empty();
  if (trace_mode) {
    try {
      in_trace = workload::load_trace_file(trace_in);
    } catch (const Error& e) {
      args.fail(std::string("invalid trace for --trace-in: ") + e.what());
    }
  }

  try {
    // 0 keeps the default (hardware concurrency) pool.
    std::unique_ptr<ThreadPool> own_pool;
    std::unique_ptr<ScopedPoolOverride> pool_guard;
    if (threads > 0) {
      own_pool = std::make_unique<ThreadPool>(threads);
      pool_guard = std::make_unique<ScopedPoolOverride>(*own_pool);
    }

    std::vector<std::string> model_names = cli::split_csv(models_csv);
    if (trace_mode) {
      // The cold/warm planning table covers the trace's models, in
      // first-appearance order.
      model_names.clear();
      for (const auto& r : in_trace.requests) {
        if (std::find(model_names.begin(), model_names.end(), r.model) ==
            model_names.end()) {
          model_names.push_back(r.model);
        }
      }
    } else if (model_names.empty()) {
      // The INT8 functional path needs DW/PW-only models; every paper model
      // opens with a standard-conv stem, so the i8 default is Tiny.
      if (dtype == DType::kI8) {
        model_names = {"Tiny"};
      } else {
        model_names = {"Mob_v1", "Mob_v2", "XCe",      "Prox",
                       "CeiT",   "CMT",    "EffNet_B0"};
      }
    }
    for (const auto& name : model_names) {
      const auto g = models::model_by_name(name);  // validate early
      if ((dtype == DType::kI8 && !trace_mode) && !plan_only) {
        for (const auto& l : g.layers) {
          if (l.kind == ConvKind::kStandard) {
            std::cerr << "error: --dtype i8 cannot serve " << name
                      << " (layer " << l.name << " is a standard conv; the "
                      << "INT8 functional path supports DW/PW only — try "
                      << "--models Tiny)\n";
            return 2;
          }
        }
      }
    }
    if (trace_mode && !plan_only) {
      // Per-record dtypes: every model a trace record serves at INT8 must be
      // DW/PW-only — fail before any request is queued, not mid-replay.
      std::vector<std::string> checked;
      for (const auto& r : in_trace.requests) {
        if (r.dtype != DType::kI8 ||
            std::find(checked.begin(), checked.end(), r.model) !=
                checked.end()) {
          continue;
        }
        checked.push_back(r.model);
        for (const auto& l : models::model_by_name(r.model).layers) {
          if (l.kind == ConvKind::kStandard) {
            std::cerr << "error: --trace-in serves " << r.model
                      << " at int8, but layer " << l.name
                      << " is a standard conv (the INT8 functional path "
                      << "supports DW/PW only)\n";
            return 2;
          }
        }
      }
    }

    serving::EngineOptions opt;
    opt.plan_cache_capacity = cache_capacity;
    opt.cache_dir = cache_dir;
    opt.seed = seed;
    opt.plan_options.enable_triple = triple;
    opt.scheduler.policy = policy;
    // --threads bounds serving concurrency too: the admission queue's
    // request workers, not only the simulator pool.
    opt.queue_workers = threads;
    // --trace-out spans land on per-shard lanes; the trace file is written
    // once the replay drains.
    flags.wire(opt);

    // One engine shard per device behind the router.
    serving::ServingCluster cluster(flags.devices(),
                                    flags.cluster_options(opt));
    // --metrics-interval-ms: rewrite the metrics file in the background
    // while the run progresses (stopped before the authoritative final dump).
    std::unique_ptr<PeriodicMetricsDumper> dumper;
    if (metrics_interval_ms > 0) {
      dumper = std::make_unique<PeriodicMetricsDumper>(flags.metrics_out,
                                                       metrics_interval_ms);
    }

    // --- cold vs warm planning, per shard engine -------------------------
    const std::size_t n_shards = cluster.size();
    std::cout << "== plan cache: cold vs warm (" << n_shards << " shard"
              << (n_shards == 1 ? "" : "s") << ", " << dtype_name(dtype)
              << (triple ? ", triple" : "") << ") ==\n";
    Table t({"device", "model", "cold ms", "warm us", "speedup", "source"});
    for (std::size_t s = 0; s < n_shards; ++s) {
      serving::InferenceEngine& engine = cluster.engine(s);
      for (const auto& name : model_names) {
        const auto before = engine.plan_cache().stats();
        auto t0 = steady_now();
        const auto plan = engine.plan_for(name, dtype);
        const double cold_s = seconds_since(t0);
        const auto after = engine.plan_cache().stats();
        const bool from_disk = after.disk_hits > before.disk_hits;

        constexpr int kWarmReps = 32;
        t0 = steady_now();
        for (int r = 0; r < kWarmReps; ++r) engine.plan_for(name, dtype);
        const double warm_s = seconds_since(t0) / kWarmReps;

        t.add_row({engine.device().name, name, fmt_f(cold_s * 1e3, 2),
                   fmt_f(warm_s * 1e6, 1),
                   fmt_f(warm_s > 0.0 ? cold_s / warm_s : 0.0, 0) + "x",
                   from_disk ? "disk" : "planned"});
        (void)plan;
      }
    }
    std::cout << t.str();
    if (!cache_dir.empty()) {
      std::cout << "plans persisted under " << cache_dir
                << " — a restarted fcmserve warm-starts from it\n";
    }
    if (plan_only) {
      dumper.reset();  // stop the periodic writer before the final dump
      if (!flags.metrics_out.empty() && !cli::dump_metrics(flags.metrics_out)) {
        return 1;
      }
      return 0;
    }

    // --- request mix through the admission queue -------------------------
    std::vector<serving::ReplayRequest> mix;
    std::vector<double> arrivals;
    if (trace_mode) {
      mix = workload::trace_mix(in_trace, /*dry=*/false);
      arrivals = workload::trace_arrivals(in_trace);
    } else {
      for (int r = 0; r < requests; ++r) {
        for (const auto& name : model_names) {
          mix.push_back({name,
                         seed + static_cast<std::uint64_t>(mix.size()) *
                                    static_cast<std::uint64_t>(batch),
                         dtype, batch, deadline_ms / 1e3});
        }
      }
    }
    std::cout << "\n== replaying " << mix.size() << " requests (";
    if (trace_mode) {
      std::cout << "trace '" << in_trace.name << "' over "
                << in_trace.duration_s() << " s, real-time arrivals";
    } else {
      std::cout << model_names.size() << " models x " << requests
                << ", interleaved, batch " << batch << ", "
                << dtype_name(dtype);
    }
    std::cout << ", queue depth " << flags.queue_depth << ", "
              << serving::admission_policy_name(policy) << ", "
              << serving::queue_discipline_name(flags.discipline);
    const std::size_t n_devices = flags.device_names.size();
    std::cout << ", " << n_devices << " shard" << (n_devices == 1 ? "" : "s");
    if (flags.autoscale_max > 0) {
      std::cout << " (elastic, up to " << flags.autoscale_max << ")";
    }
    std::cout << ", router " << serving::router_policy_name(flags.router);
    if (flags.coalesce > 1) {
      std::cout << ", coalesce " << flags.coalesce << " within "
                << flags.coalesce_wait_us << " us";
    }
    if (deadline_ms > 0.0) std::cout << ", deadline " << deadline_ms << " ms";
    if (flags.sim_dilation > 0.0) {
      std::cout << ", sim-dilation " << flags.sim_dilation;
    }
    std::cout << ") ==\n";
    const auto report = cluster.replay_scheduled(mix, arrivals);
    std::cout << report.table() << report.group_table()
              << report.shard_table() << report.summary() << "\n";

    dumper.reset();  // stop the periodic writer before the final dump
    if (!flags.write_outputs()) return 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
