// Versioned request-trace format for the workload simulator.
//
// A trace is a JSONL file: one header line followed by one flat JSON object
// per request, in arrival order. The header pins the format version and the
// generator provenance (name, seed, request count); each record carries the
// arrival instant in seconds from trace start, the model, dtype, batch size,
// an optional queueing deadline, an optional tenant tag and the input seed
// functional replays generate tensors from. Example:
//
//   {"fcm_trace": 1, "name": "poisson", "seed": 7, "requests": 2}
//   {"t": 0, "model": "Tiny", "dtype": "fp32", "batch": 1, "seed": 11}
//   {"t": 0.004, "model": "Tiny", "dtype": "int8", "batch": 2,
//    "deadline": 0.05, "tenant": "bulk", "seed": 12}
//
// Parsing is strict (the shared scanner in common/jsonl.hpp) — unknown keys,
// duplicate keys, nested values, out-of-range numbers, a wrong version, a
// request-count mismatch or non-monotone arrivals all throw fcm::Error with
// the offending line number — so a trace that loads is a trace the replay
// engines can trust. Serialisation renders doubles in the shortest form that
// round-trips exactly: serialize/parse is an identity, and byte-identical
// traces mean identical workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "serving/cluster.hpp"

namespace fcm::workload {

/// Format version written to (and required in) the header line.
inline constexpr int kTraceVersion = 1;

/// One request in a trace.
struct TraceRecord {
  /// Arrival instant, seconds from trace start (>= 0, non-decreasing).
  double t_s = 0.0;
  /// Zoo short name; validate_trace resolves it, so unknown models fail at
  /// load time rather than mid-replay.
  std::string model;
  DType dtype = DType::kF32;
  int batch = 1;
  /// Queueing deadline, seconds from enqueue (0 = none).
  double deadline_s = 0.0;
  /// Free-form tenant tag ("" = none) — multi-tenant workloads label their
  /// traffic classes here.
  std::string tenant;
  /// Input seed for functional replay (batch item j uses seed + j).
  std::uint64_t seed = 1;

  bool operator==(const TraceRecord&) const = default;
};

struct Trace {
  /// Workload name (the generator kind, or anything for curated traces).
  std::string name;
  /// Generator seed recorded for provenance (0 for hand-written traces).
  std::uint64_t seed = 0;
  std::vector<TraceRecord> requests;

  bool operator==(const Trace&) const = default;

  /// Last arrival instant (0 for an empty trace) — the virtual span an
  /// open-loop replay of this trace covers before draining.
  double duration_s() const {
    return requests.empty() ? 0.0 : requests.back().t_s;
  }
};

/// Render `trace` in the JSONL format above (header + one line per record,
/// trailing newline). Optional fields are omitted when at their defaults.
std::string serialize_trace(const Trace& trace);

/// Strict inverse of serialize_trace; throws fcm::Error naming the first
/// offending line. Also runs validate_trace, so the result is replayable.
Trace parse_trace(const std::string& text);

/// Structural validation shared by parse_trace and generators: arrivals
/// non-negative and non-decreasing, batches >= 1, deadlines >= 0, every
/// model resolvable in the zoo, header count consistent. Throws fcm::Error.
void validate_trace(const Trace& trace);

/// File convenience wrappers (fcm::Error on I/O failure).
Trace load_trace_file(const std::string& path);
void save_trace_file(const Trace& trace, const std::string& path);

/// Lower `trace` into the serving layer's replay inputs: one ReplayRequest
/// per record (dry-run when `dry` — timing-only, no tensors) ...
std::vector<serving::ReplayRequest> trace_mix(const Trace& trace, bool dry);
/// ... plus the matching absolute arrival schedule for replay_scheduled.
std::vector<double> trace_arrivals(const Trace& trace);

}  // namespace fcm::workload
