// Shared plumbing of the repository benchmark (fcm_bench): options, the
// result every workload fills, the metric tables, and the benchmark's own
// span log.
//
// The benchmark measures the library from outside, through its public API
// only. Spans are recorded here, around calls into each module, never inside
// the library; a traced run additionally attaches the library's own
// obs::Tracer through EngineOptions::tracer.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serving/plan_cache.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes for the benchmark's self-test: shorter traces, fewer
  /// repetitions, no minimum sample counts.
  bool small = false;
  std::string out_dir = ".bench_out";
  /// plan-zoo: committed golden planned-GMA file to check against.
  std::string golden;
  /// plan-zoo: write the goldens of the current planner here and exit.
  std::string write_golden;
};

/// What one run produced. `e2e` holds the end-to-end metrics of an untraced
/// run, `layer` the per-layer metrics of a traced run, both keyed by the
/// names in the tables below.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> traces_written;

  /// Record a failed output check: printed immediately, and the run reports
  /// correct=false and exits non-zero.
  void fail(const std::string& why);
};

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
};

/// End-to-end metrics: every workload reports every one of them.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics: every traced run reports every one of them (0 where
/// the workload does not exercise the layer).
const std::vector<MetricDef>& per_layer_metrics();
/// The kernel kinds the functional-mix plans use, as "<kind>.<dtype>".
const std::vector<std::string>& reported_kernel_kinds();

/// Host seconds on the steady clock since process start.
double now_s();

/// Nearest-rank percentile of `xs`, p in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> xs, double p);

/// Deterministic 64-bit mix of a seed and a stream tag (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Print "  name  value unit" (the human-readable metric lines).
void print_metric(const std::string& name, double value,
                  const std::string& unit, const std::string& note = "");

/// Print sent/succeeded/failed for one phase of a workload.
void print_phase(const std::string& phase, std::int64_t sent,
                 std::int64_t ok, std::int64_t failed);

/// The benchmark's own spans: name, interval, caller span and thread.
/// Recording is off unless enabled, so the untraced phases pay one relaxed
/// load per call site.
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string name;
    double begin_s = 0.0;
    double end_s = 0.0;
    int tid = 0;
  };
  struct Totals {
    std::int64_t calls = 0;
    double total_s = 0.0;
    /// Duration minus the time the span's child spans cover.
    double self_s = 0.0;
  };

  void set_enabled(bool on);
  bool enabled() const;

  /// Open a span on the calling thread; returns 0 when disabled.
  std::uint64_t open(const char* name) EXCLUDES(mu_);
  void close(std::uint64_t id) EXCLUDES(mu_);

  std::vector<Span> snapshot() const EXCLUDES(mu_);
  std::size_t size() const EXCLUDES(mu_);
  /// Per-name totals over spans that begin in [from_s, to_s).
  std::map<std::string, Totals> totals(double from_s = -1e300,
                                       double to_s = 1e300) const;
  /// Chrome trace_event JSON of every span (pid 1, one row per thread).
  std::string chrome_trace_json() const;

 private:
  mutable fcm::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  std::uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::atomic<bool> enabled_{false};
};

/// RAII span on `log` for the current scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// planner::plan_model wrapped in a "planner.plan_model" span — installed on
/// every PlanCache the benchmark drives, so planner time is separable from
/// the cache's own time in traced runs.
fcm::serving::PlanCache::PlanFn spanned_plan_fn(SpanLog& log);

/// Write `text` to `<out_dir>/<file>`, creating the directory; returns the
/// path written.
std::string write_output(const std::string& out_dir, const std::string& file,
                         const std::string& text);

/// The three workloads. Each runs set-up, warm-up, the timed phase and its
/// output checks; a traced run also fills the per-layer metrics.
Result run_functional_mix(const Options& opt);
Result run_virtual_replay(const Options& opt);
Result run_plan_zoo(const Options& opt);

}  // namespace perfbench
