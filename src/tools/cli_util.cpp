#include "tools/cli_util.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/metrics.hpp"

namespace fcm::cli {

std::string Args::next(const std::string& flag) {
  if (i + 1 >= argc) fail(flag + " needs a value");
  return argv[++i];
}

double Args::next_double(const std::string& flag, double max) {
  const std::string v = next(flag);
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || !(x >= 0.0) || x > max) {
    std::ostringstream msg;
    msg << "bad numeric value '" << v << "' for " << flag << " (expected 0.."
        << max << ")";
    fail(msg.str());
  }
  return x;
}

std::uint64_t Args::next_u64(const std::string& flag, std::uint64_t max) {
  const std::string s = next(flag);
  try {
    if (!s.empty() && s[0] != '-') {  // stoull wraps negatives silently
      std::size_t used = 0;
      const std::uint64_t v = std::stoull(s, &used);
      if (used == s.size() && v <= max) return v;
    }
  } catch (const std::exception&) {
  }
  fail("bad numeric value '" + s + "' for " + flag + " (expected 0.." +
       std::to_string(max) + ")");
}

DType Args::next_dtype(const std::string& flag) {
  const std::string v = next(flag);
  if (v == "f32" || v == "fp32") return DType::kF32;
  if (v == "i8" || v == "int8") return DType::kI8;
  bad_value(flag, v, "f32|fp32|i8|int8");
}

void Args::fail(const std::string& msg) const {
  std::cerr << "error: " << msg << "\n";
  usage();
  std::exit(2);
}

void Args::bad_value(const std::string& flag, const std::string& value,
                     const std::string& expected) const {
  fail("unknown value '" + value + "' for " + flag + " (expected " +
       expected + ")");
}

void Args::unknown() const {
  const std::string arg = argv[i];
  if (arg == "--help" || arg == "-h") {
    usage();
    std::exit(0);
  }
  fail("unknown argument '" + arg + "'");
}

bool wants_json(const std::string& path) {
  constexpr const char* kExt = ".json";
  return path.size() >= 5 && path.compare(path.size() - 5, 5, kExt) == 0;
}

bool dump_metrics(const std::string& path) {
  auto& reg = obs::MetricsRegistry::global();
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    std::cerr << "error: cannot write metrics file '" << path << "'\n";
    return false;
  }
  os << (wants_json(path) ? reg.json_text() : reg.prometheus_text());
  return os.good();
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string part;
  while (std::getline(is, part, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

bool ClusterFlags::parse(Args& args) {
  const std::string arg = args.argv[args.i];
  if (arg == "--devices") {
    devices_csv = args.next(arg);
    devices_set = true;
  } else if (arg == "--router") {
    const std::string v = args.next(arg);
    const auto parsed = serving::router_policy_from_name(v);
    if (!parsed.has_value()) {
      args.bad_value(arg, v, "round-robin|least-loaded|least-requests");
    }
    router = *parsed;
  } else if (arg == "--discipline") {
    const std::string v = args.next(arg);
    if (v == "fifo") discipline = serving::QueueDiscipline::kFifo;
    else if (v == "edf") discipline = serving::QueueDiscipline::kEdf;
    else args.bad_value(arg, v, "fifo|edf");
  } else if (arg == "--queue-depth") {
    queue_depth = args.next_u64(arg, 1 << 20);
  } else if (arg == "--coalesce") {
    coalesce = static_cast<int>(args.next_u64(arg, 1 << 12));
  } else if (arg == "--coalesce-wait-us") {
    coalesce_wait_us = args.next_u64(arg, 1u << 30);
  } else if (arg == "--sim-dilation") {
    sim_dilation = args.next_double(arg, 1e12);
    // next_double() allows 0, but a zero dilation would let worker holds
    // collapse and every shard drain instantly — reject it here.
    if (!(sim_dilation > 0.0)) args.bad_value(arg, args.argv[args.i], "> 0");
  } else if (arg == "--autoscale-max") {
    autoscale_max = args.next_u64(arg, 1 << 10);
  } else if (arg == "--scale-up-s") {
    scale_up_s = args.next_double(arg, 1e9);
    scale_set = true;
  } else if (arg == "--scale-down-s") {
    scale_down_s = args.next_double(arg, 1e9);
    scale_set = true;
  } else if (arg == "--scale-cooldown-s") {
    scale_cooldown_s = args.next_double(arg, 1e9);
    scale_set = true;
  } else if (arg == "--metrics-out") {
    metrics_out = args.next(arg);
  } else if (arg == "--trace-out") {
    trace_out = args.next(arg);
  } else {
    return false;
  }
  return true;
}

void ClusterFlags::validate(const Args& args) {
  if (queue_depth < 1 || coalesce < 1) {
    args.fail("--queue-depth/--coalesce must be >= 1");
  }
  // A knob whose mechanism is off would be accepted and change nothing.
  if (coalesce_wait_us > 0 && coalesce < 2) {
    args.fail("--coalesce-wait-us requires --coalesce >= 2");
  }
  if (scale_set && autoscale_max == 0) {
    args.fail(
        "--scale-up-s/--scale-down-s/--scale-cooldown-s require "
        "--autoscale-max");
  }
  device_names = split_csv(devices_csv);
  if (devices_set && device_names.empty()) {
    // "--devices ," must not fall through to the default device.
    args.bad_value("--devices", devices_csv, "a non-empty device list");
  }
  if (autoscale_max > 0 && autoscale_max < device_names.size()) {
    args.fail("--autoscale-max must be >= the --devices count (" +
              std::to_string(device_names.size()) + ")");
  }
  if (autoscale_max > 0 && !(scale_down_s < scale_up_s)) {
    args.fail("--scale-down-s must be < --scale-up-s");
  }
}

std::vector<gpusim::DeviceSpec> ClusterFlags::devices() const {
  std::vector<gpusim::DeviceSpec> out;
  for (const auto& name : device_names) {
    out.push_back(gpusim::device_by_name(name));
  }
  return out;
}

void ClusterFlags::wire(serving::EngineOptions& opt) {
  opt.scheduler.queue_depth = queue_depth;
  opt.scheduler.discipline = discipline;
  opt.scheduler.max_coalesce_batch = coalesce;
  opt.scheduler.coalesce_wait_us = static_cast<std::int64_t>(coalesce_wait_us);
  opt.sim_dilation = sim_dilation;
  if (!trace_out.empty()) {
    tracer = std::make_shared<obs::Tracer>();
    opt.tracer = tracer;
  }
}

serving::ClusterOptions ClusterFlags::cluster_options(
    const serving::EngineOptions& engine) const {
  serving::ClusterOptions copt;
  copt.engine = engine;
  copt.router = router;
  copt.autoscale.max_shards = autoscale_max;
  copt.autoscale.scale_up_load_s = scale_up_s;
  copt.autoscale.scale_down_load_s = scale_down_s;
  copt.autoscale.cooldown_s = scale_cooldown_s;
  return copt;
}

bool ClusterFlags::write_outputs() const {
  if (tracer) {
    std::ofstream os(trace_out, std::ios::trunc);
    if (!os) {
      std::cerr << "error: cannot write trace file '" << trace_out << "'\n";
      return false;
    }
    os << tracer->chrome_trace_json();
    std::cout << "trace: " << tracer->size() << " spans -> " << trace_out;
    if (tracer->dropped() > 0) {
      std::cout << " (" << tracer->dropped() << " dropped at capacity)";
    }
    std::cout << "\n";
  }
  if (!metrics_out.empty()) {
    if (!dump_metrics(metrics_out)) return false;
    std::cout << "metrics: "
              << (wants_json(metrics_out) ? "JSON" : "Prometheus text")
              << " -> " << metrics_out << "\n";
  }
  return true;
}

}  // namespace fcm::cli
