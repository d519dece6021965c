// fcmsim — trace-driven workload simulation for the serving cluster.
//
// Two subcommands. `generate` renders a seeded synthetic workload (poisson,
// on-off bursts, diurnal ramp, flash crowd, hot-model skew) into the
// versioned JSONL trace format; the same --kind/--seed pair always writes a
// byte-identical file. `replay` drives a trace through a ServingCluster on a
// virtual clock, event-to-event: hours of trace time replay in wall seconds
// (the fast-forward ratio is printed), with the standard serving report,
// metrics registry and Chrome trace export intact.
//
//   fcmsim generate --kind poisson --requests 100000 --rate 500 --out p.jsonl
//   fcmsim generate --kind flash-crowd --rate 50 --flash-x 20 --out f.jsonl
//   fcmsim replay --trace p.jsonl --devices GTX,RTX --router least-loaded
//   fcmsim replay --trace f.jsonl --sim-dilation 1 --metrics-out m.json
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "serving/cluster.hpp"
#include "tools/cli_util.hpp"
#include "workload/generators.hpp"
#include "workload/sim_replay.hpp"
#include "workload/trace.hpp"

using namespace fcm;

namespace {

void usage() {
  std::cout <<
      "fcmsim — trace-driven workload simulation on a virtual clock\n"
      "\n"
      "fcmsim generate --out <file> [options]   write a synthetic trace\n"
      "  --kind <poisson|on-off|diurnal|flash-crowd|hot-skew>\n"
      "                               arrival process, default poisson\n"
      "  --requests <n>               trace length, default 1000\n"
      "  --rate <x>                   mean request rate/s, default 100\n"
      "  --models <csv>               zoo short names, default Tiny\n"
      "  --dtype <f32|i8>             request precision, default f32\n"
      "  --batch <n>                  inputs per request, default 1\n"
      "  --deadline-ms <x>            queueing deadline per request,\n"
      "                               default 0 (none)\n"
      "  --tenants <csv>              tag records with tenants drawn\n"
      "                               uniformly from this list\n"
      "  --zipf-s <x>                 Zipf exponent over --models (0 =\n"
      "                               uniform; hot-skew defaults 1.2)\n"
      "  --on-ms/--off-ms <x>         on-off: mean sojourns, default 500\n"
      "  --period-s <x>               diurnal: day length, default 60\n"
      "  --min-x <x>                  diurnal: trough fraction, default 0.1\n"
      "  --flash-at-s/--flash-len-s/--flash-x <x>\n"
      "                               flash-crowd: spike window (default\n"
      "                               5 s + 1 s) and multiplier (default 10)\n"
      "  --seed <n>                   generator seed, default 1\n"
      "\n"
      "fcmsim replay --trace <file> [options]   simulate a trace\n"
      "  --devices <csv>              cluster shards, default RTX (repeats\n"
      "                               allowed, e.g. GTX,RTX,RTX)\n"
      "  --router <round-robin|least-loaded|least-requests>\n"
      "                               shard selection, default round-robin\n"
      "  --discipline <fifo|edf>      dequeue order, default fifo\n"
      "  --queue-depth <n>            per-shard admission bound, default 64\n"
      "  --coalesce <n>               merge up to n single-image requests,\n"
      "                               default 1 (off)\n"
      "  --coalesce-wait-us <n>       batching window, default 0\n"
      "  --sim-dilation <x>           occupy each worker for simulated GPU\n"
      "                               time x this factor (virtual holds, so\n"
      "                               shard drain rates track the simulated\n"
      "                               devices), default 1; must be > 0\n"
      "  --autoscale-max <n>          elastic scaling: let the cluster grow\n"
      "                               to n shards (reserve shards clone the\n"
      "                               last --devices entry), default 0 (off)\n"
      "  --scale-up-s <x>             add a shard when predicted backlog\n"
      "                               exceeds x seconds per serving shard,\n"
      "                               default 0.05\n"
      "  --scale-down-s <x>           drain a shard when backlog would stay\n"
      "                               under x seconds per shard (must be\n"
      "                               < --scale-up-s), default 0.01\n"
      "  --scale-cooldown-s <x>       min clock seconds between scale\n"
      "                               events, default 0.25\n"
      "  --functional                 execute every request's kernels for\n"
      "                               real instead of the dry-run cost\n"
      "                               model (orders of magnitude slower)\n"
      "  --threads <n>                queue workers per shard (default:\n"
      "                               hardware)\n"
      "  --seed <n>                   weight seed, default 2024\n"
      "  --metrics-out <file>         dump the metrics registry on exit\n"
      "                               (Prometheus text, or JSON for .json)\n"
      "  --trace-out <file>           write per-request spans as a Chrome\n"
      "                               trace_event JSON file\n";
}

int run_generate(cli::Args& args) {
  workload::GeneratorSpec spec;
  std::string out;
  std::uint64_t seed = 1;
  for (; args.i < args.argc; ++args.i) {
    const std::string arg = args.argv[args.i];
    if (arg == "--kind") {
      const std::string v = args.next(arg);
      try {
        spec.kind = workload::generator_from_name(v);
      } catch (const Error&) {
        args.bad_value("--kind", v, workload::generator_names_csv());
      }
    } else if (arg == "--out") {
      out = args.next(arg);
    } else if (arg == "--requests") {
      spec.requests = args.next_u64(arg, std::uint64_t{1} << 24);
    } else if (arg == "--rate") {
      spec.rate_rps = args.next_double(arg, 1e9);
    } else if (arg == "--models") {
      spec.models = cli::split_csv(args.next(arg));
    } else if (arg == "--dtype") {
      spec.dtype = args.next_dtype(arg);
    } else if (arg == "--batch") {
      spec.batch = static_cast<int>(args.next_u64(arg, 1 << 12));
    } else if (arg == "--deadline-ms") {
      spec.deadline_s = args.next_double(arg, 1e9) / 1e3;
    } else if (arg == "--tenants") {
      spec.tenants = cli::split_csv(args.next(arg));
    } else if (arg == "--zipf-s") {
      spec.zipf_s = args.next_double(arg, 64.0);
    } else if (arg == "--on-ms") {
      spec.on_mean_s = args.next_double(arg, 1e9) / 1e3;
    } else if (arg == "--off-ms") {
      spec.off_mean_s = args.next_double(arg, 1e9) / 1e3;
    } else if (arg == "--period-s") {
      spec.period_s = args.next_double(arg, 1e9);
    } else if (arg == "--min-x") {
      spec.diurnal_min_x = args.next_double(arg, 1.0);
    } else if (arg == "--flash-at-s") {
      spec.flash_at_s = args.next_double(arg, 1e9);
    } else if (arg == "--flash-len-s") {
      spec.flash_len_s = args.next_double(arg, 1e9);
    } else if (arg == "--flash-x") {
      spec.flash_x = args.next_double(arg, 1e9);
    } else if (arg == "--seed") {
      seed = args.next_u64(arg, std::numeric_limits<std::uint64_t>::max());
    } else {
      args.unknown();
    }
  }
  if (out.empty()) args.fail("generate needs --out <file>");

  const workload::Trace trace = workload::generate_trace(spec, seed);
  workload::save_trace_file(trace, out);
  std::cout << "trace: " << trace.requests.size() << " requests ("
            << workload::generator_name(spec.kind) << ", seed " << seed
            << ") spanning " << trace.duration_s() << " s -> " << out << "\n";
  return 0;
}

int run_replay(cli::Args& args) {
  std::string trace_path;
  cli::ClusterFlags flags;  // fcmsim: one RTX shard, queue depth 64, holds on
  flags.queue_depth = 64;
  flags.sim_dilation = 1.0;
  bool functional = false;
  unsigned threads = 0;
  std::uint64_t seed = 2024;
  for (; args.i < args.argc; ++args.i) {
    const std::string arg = args.argv[args.i];
    if (flags.parse(args)) continue;
    if (arg == "--trace") {
      trace_path = args.next(arg);
    } else if (arg == "--functional") {
      functional = true;
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(args.next_u64(arg, 1024));
    } else if (arg == "--seed") {
      seed = args.next_u64(arg, std::numeric_limits<std::uint64_t>::max());
    } else {
      args.unknown();
    }
  }
  if (trace_path.empty()) args.fail("replay needs --trace <file>");
  flags.validate(args);

  workload::Trace trace;
  try {
    trace = workload::load_trace_file(trace_path);
  } catch (const Error& e) {
    args.fail(std::string("invalid trace for --trace: ") + e.what());
  }

  try {
    auto clock = std::make_shared<ManualClock>();
    serving::EngineOptions opt;
    opt.clock = clock;
    opt.seed = seed;
    opt.queue_workers = threads;
    opt.virtual_hold = true;
    // Virtual holds rule out kBlock (a full queue would park the driver the
    // workers wait on); overload sheds load instead, like a real server.
    opt.scheduler.policy = serving::AdmissionPolicy::kReject;
    flags.wire(opt);
    serving::ServingCluster cluster(flags.devices(),
                                    flags.cluster_options(opt));

    std::cout << "== replaying " << trace.requests.size() << " requests ('"
              << trace.name << "', " << trace.duration_s()
              << " s of trace time) on " << flags.device_names.size()
              << " shard" << (flags.device_names.size() == 1 ? "" : "s")
              << (flags.autoscale_max > 0
                      ? " (elastic, up to " +
                            std::to_string(flags.autoscale_max) + ")"
                      : "")
              << ", router " << serving::router_policy_name(flags.router)
              << ", " << serving::queue_discipline_name(flags.discipline)
              << ", "
              << (functional ? "functional" : "dry-run") << " ==\n";

    workload::SimOptions sopt;
    sopt.functional = functional;
    workload::SimSummary summary;
    const serving::ServingReport report =
        workload::sim_replay(cluster, clock, trace, sopt, &summary);

    std::cout << report.table() << report.group_table() << report.shard_table()
              << report.summary() << "\n"
              << "fast-forward: " << summary.str() << "\n";

    if (!flags.write_outputs()) return 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  cli::Args args{argc, argv, 2, usage};
  try {
    if (cmd == "generate") return run_generate(args);
    if (cmd == "replay") return run_replay(args);
    if (cmd == "--help" || cmd == "-h") {
      usage();
      return 0;
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "error: unknown command '" << cmd
            << "' (expected generate or replay)\n";
  usage();
  return 2;
}
