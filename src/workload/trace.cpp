#include "workload/trace.hpp"

#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/jsonl.hpp"
#include "models/model_zoo.hpp"

namespace fcm::workload {

using jsonl::fmt_double_rt;
using jsonl::json_string;

std::string serialize_trace(const Trace& trace) {
  std::ostringstream os;
  os << "{\"fcm_trace\": " << kTraceVersion
     << ", \"name\": " << json_string(trace.name) << ", \"seed\": "
     << trace.seed << ", \"requests\": " << trace.requests.size() << "}\n";
  for (const TraceRecord& r : trace.requests) {
    os << "{\"t\": " << fmt_double_rt(r.t_s) << ", \"model\": "
       << json_string(r.model) << ", \"dtype\": \"" << dtype_name(r.dtype)
       << "\", \"batch\": " << r.batch;
    if (r.deadline_s != 0.0) {
      os << ", \"deadline\": " << fmt_double_rt(r.deadline_s);
    }
    if (!r.tenant.empty()) os << ", \"tenant\": " << json_string(r.tenant);
    os << ", \"seed\": " << r.seed << "}\n";
  }
  return os.str();
}

Trace parse_trace(const std::string& text) {
  Trace trace;
  bool have_header = false;
  std::uint64_t declared = 0;
  jsonl::for_each_object(text, "trace", [&](jsonl::FieldReader& fields) {
    if (!have_header) {
      fields.require_version("fcm_trace", kTraceVersion, "trace");
      trace.name = fields.string("name");
      trace.seed = fields.u64("seed");
      declared = fields.u64("requests");
      fields.check_no_unknown();
      have_header = true;
      return;
    }
    TraceRecord r;
    r.t_s = fields.number("t");
    r.model = fields.string("model");
    r.dtype = fields.dtype("dtype");
    if (fields.has("batch")) r.batch = fields.integer("batch", 1);
    if (fields.has("deadline")) r.deadline_s = fields.number("deadline");
    if (fields.has("tenant")) r.tenant = fields.string("tenant");
    if (fields.has("seed")) r.seed = fields.u64("seed");
    fields.check_no_unknown();
    trace.requests.push_back(std::move(r));
  });
  if (!have_header) {
    throw Error(
        "trace: missing header line ({\"fcm_trace\": 1, \"name\": ..., "
        "\"seed\": ..., \"requests\": ...})");
  }
  if (trace.requests.size() != declared) {
    throw Error("trace: header declares " + std::to_string(declared) +
                " requests but the file carries " +
                std::to_string(trace.requests.size()) +
                " — truncated or concatenated trace");
  }
  validate_trace(trace);
  return trace;
}

void validate_trace(const Trace& trace) {
  std::unordered_set<std::string> known;
  double prev_t = 0.0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const TraceRecord& r = trace.requests[i];
    const std::string at = "trace: record " + std::to_string(i) + ": ";
    FCM_CHECK(r.t_s >= 0.0, at + "arrival must be >= 0");
    FCM_CHECK(r.t_s >= prev_t,
              at + "arrivals must be non-decreasing (" +
                  fmt_double_rt(r.t_s) + " after " + fmt_double_rt(prev_t) +
                  ")");
    prev_t = r.t_s;
    FCM_CHECK(r.batch >= 1, at + "batch must be >= 1");
    FCM_CHECK(r.deadline_s >= 0.0, at + "deadline must be >= 0");
    if (known.insert(r.model).second) {
      try {
        (void)models::model_by_name(r.model);
      } catch (const Error& e) {
        throw Error(at + e.what());
      }
    }
  }
}

Trace load_trace_file(const std::string& path) {
  return jsonl::load_file(path, "trace", parse_trace);
}

void save_trace_file(const Trace& trace, const std::string& path) {
  jsonl::save_file(path, serialize_trace(trace), "trace");
}

std::vector<serving::ReplayRequest> trace_mix(const Trace& trace, bool dry) {
  std::vector<serving::ReplayRequest> mix;
  mix.reserve(trace.requests.size());
  for (const TraceRecord& r : trace.requests) {
    serving::ReplayRequest q;
    q.model = r.model;
    q.input_seed = r.seed;
    q.dtype = r.dtype;
    q.batch = r.batch;
    q.deadline_s = r.deadline_s;
    q.dry = dry;
    mix.push_back(std::move(q));
  }
  return mix;
}

std::vector<double> trace_arrivals(const Trace& trace) {
  std::vector<double> arrivals;
  arrivals.reserve(trace.requests.size());
  for (const TraceRecord& r : trace.requests) arrivals.push_back(r.t_s);
  return arrivals;
}

}  // namespace fcm::workload
