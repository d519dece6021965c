// Shared argv machinery for the command-line tools: an argv cursor with the
// usage-error conventions (message, the tool's usage text, exit 2), the
// metrics-file helpers, and ClusterFlags — the cluster flags fcmserve and
// `fcmsim replay` have in common, parsed, validated and wired in one place.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "gpusim/device_spec.hpp"
#include "obs/trace.hpp"
#include "serving/cluster.hpp"

namespace fcm::cli {

/// Cursor over one tool's argv; `usage` prints that tool's help.
struct Args {
  int argc;
  char** argv;
  int i;
  void (*usage)();

  /// The value after `flag` (advances the cursor onto it).
  std::string next(const std::string& flag);
  /// next() as a number in [0, max]. Malformed or out-of-range input is a
  /// usage error (std::stoull alone would escape main as
  /// std::invalid_argument, and silent narrowing would mangle oversized
  /// values).
  double next_double(const std::string& flag, double max);
  std::uint64_t next_u64(const std::string& flag, std::uint64_t max);
  /// next() as a precision: f32|fp32 or i8|int8; anything else is a usage
  /// error naming the value.
  DType next_dtype(const std::string& flag);

  /// "error: <msg>", usage, exit 2.
  [[noreturn]] void fail(const std::string& msg) const;
  /// A flag got a value outside its closed set: name the value and the
  /// accepted spellings, print usage, exit 2 — never silently default.
  [[noreturn]] void bad_value(const std::string& flag,
                              const std::string& value,
                              const std::string& expected) const;
  /// The flag under the cursor matched nothing: --help/-h prints usage and
  /// exits 0, anything else is an unknown-argument usage error.
  [[noreturn]] void unknown() const;
};

/// True when `path` names a JSON file — picks the metrics export format.
bool wants_json(const std::string& path);

/// Serialise the global registry into `path` (format by extension). Returns
/// false (with a message on stderr) when the file cannot be written.
bool dump_metrics(const std::string& path);

/// The non-empty comma-separated parts of `csv`.
std::vector<std::string> split_csv(const std::string& csv);

/// The flags fcmserve and `fcmsim replay` share: --devices --router
/// --discipline --queue-depth --coalesce --coalesce-wait-us --sim-dilation
/// --autoscale-max --scale-up-s --scale-down-s --scale-cooldown-s
/// --metrics-out --trace-out. Each tool starts from its own
/// defaults (the member initialisers are fcmserve's) and keeps its other
/// flags, --threads and --seed included, to itself. Both tools always serve
/// a cluster; fcmserve's --device is the one-device list.
struct ClusterFlags {
  /// The shard devices, comma-separated (--devices).
  std::string devices_csv = "RTX";
  serving::RouterPolicy router = serving::RouterPolicy::kRoundRobin;
  serving::QueueDiscipline discipline = serving::QueueDiscipline::kFifo;
  std::size_t queue_depth = 32;
  int coalesce = 1;
  std::uint64_t coalesce_wait_us = 0;
  /// 0 = no worker holds (only reachable as a default: the flag wants > 0).
  double sim_dilation = 0.0;
  std::size_t autoscale_max = 0;
  double scale_up_s = 0.05, scale_down_s = 0.01, scale_cooldown_s = 0.25;
  std::string metrics_out, trace_out;

  /// --devices was given explicitly (it then overrides fcmserve's
  /// --device, and an empty list is an error).
  bool devices_set = false;
  /// A --scale-* flag was given (an error without --autoscale-max).
  bool scale_set = false;
  /// split_csv(devices_csv), set by validate().
  std::vector<std::string> device_names;
  /// Created by wire() when --trace-out asks for it.
  std::shared_ptr<obs::Tracer> tracer;

  /// Consume the flag under the cursor, and its value, when it is one of
  /// the shared flags; false leaves the cursor for the tool's own flags.
  bool parse(Args& args);
  /// The cross-flag rules, run once after the argv loop; usage-error exit
  /// on a violation.
  void validate(const Args& args);
  /// The shard devices (fcm::Error for an unknown name).
  std::vector<gpusim::DeviceSpec> devices() const;
  /// Apply the shared engine knobs (admission queue, coalescing, sim
  /// dilation) to `opt` and install one tracer, which a cluster then shares
  /// across its shards.
  void wire(serving::EngineOptions& opt);
  /// `engine` behind the chosen router and autoscaler.
  serving::ClusterOptions cluster_options(
      const serving::EngineOptions& engine) const;

  /// End of run: the --trace-out file, then the --metrics-out dump, each
  /// reported on stdout. False (message on stderr) when a file cannot be
  /// written.
  bool write_outputs() const;
};

}  // namespace fcm::cli
