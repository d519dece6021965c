#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "planner/fuse_planner.hpp"

namespace perfbench {

void Result::fail(const std::string& why) {
  correct = false;
  std::cout << "CHECK FAILED: " << why << "\n";
}

const std::vector<std::string>& reported_kernel_kinds() {
  // Every (kind, dtype) a functional-mix plan executes today: the Mob_v2 and
  // CeiT stems are standard convs, the rest are LBL pointwise layers and the
  // DWPW / PWDW_R modules FusePlanner picks on the RTX-A4000 (every
  // depthwise layer is fused). The profile phase prints any other kind a
  // changed plan starts to use.
  static const std::vector<std::string> kinds = {
      "std.fp32", "pw.fp32", "dwpw.fp32", "pwdw_r.fp32", "pw.int8",
      "pwdw_r.int8"};
  return kinds;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"host_ops_per_s", "ops/s", "higher"},
      {"lat_p50_ms", "ms", "lower"},
      {"lat_tail_ms", "ms", "lower"},
      {"gma_mb_per_item", "MB/image", "lower"},
      {"sim_us_per_item", "us/image", "lower"},
      {"slo_attain", "fraction", "higher"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (const std::string& k : reported_kernel_kinds()) {
      d.push_back({"kernels." + k + ".calls", "count", "higher"});
      d.push_back({"kernels." + k + ".host_s", "s", "lower"});
      d.push_back({"kernels." + k + ".gmacs_per_s", "GMAC/s", "higher"});
      d.push_back({"kernels." + k + ".gma_mb", "MB", "lower"});
    }
    const std::vector<MetricDef> fixed = {
        {"runtime.run_batch.calls", "count", "higher"},
        {"runtime.run_batch.host_s", "s", "lower"},
        {"runtime.self_frac", "fraction", "lower"},
        {"runtime.b1_item_ms", "ms", "lower"},
        {"runtime.b8_item_ms", "ms", "lower"},
        {"planner.plan_model.calls", "count", "lower"},
        {"planner.plan_model.host_s", "s", "lower"},
        {"planner.candidates_evaluated", "count", "lower"},
        {"planner.fused_layer_frac", "fraction", "higher"},
        {"planner.timed_frac", "fraction", "lower"},
        {"plan_cache.hits", "count", "higher"},
        {"plan_cache.misses", "count", "lower"},
        {"plan_cache.hit_ratio", "fraction", "higher"},
        {"plan_cache.get_or_plan.host_s", "s", "lower"},
        {"engine.submit_async.host_us", "us", "lower"},
        {"engine.exec_ms.p50", "ms", "lower"},
        {"scheduler.queue_wait_ms.p50", "ms", "lower"},
        {"scheduler.queue_wait_ms.p95", "ms", "lower"},
        {"scheduler.accepted", "count", "higher"},
        {"scheduler.rejected", "count", "lower"},
        {"scheduler.expired", "count", "lower"},
        {"scheduler.max_depth", "count", "lower"},
        {"scheduler.shard0.accepted", "count", "higher"},
        {"scheduler.shard0.rejected", "count", "lower"},
        {"scheduler.shard0.expired", "count", "lower"},
        {"scheduler.shard0.max_depth", "count", "lower"},
        {"scheduler.shard1.accepted", "count", "higher"},
        {"scheduler.shard1.rejected", "count", "lower"},
        {"scheduler.shard1.expired", "count", "lower"},
        {"scheduler.shard1.max_depth", "count", "lower"},
        {"scheduler.coalesced_batches", "count", "higher"},
        {"scheduler.coalesced_items", "count", "higher"},
        {"scheduler.coalesce_ratio", "items/batch", "higher"},
        {"scheduler.virt_queue_wait_ms.p50", "ms", "lower"},
        {"scheduler.virt_queue_wait_ms.p99", "ms", "lower"},
        {"router.shard0.routed", "count", "higher"},
        {"router.shard1.routed", "count", "higher"},
        {"cluster.shard0.busy_frac", "fraction", "higher"},
        {"cluster.shard1.busy_frac", "fraction", "higher"},
        {"cluster.busy_gap", "fraction", "lower"},
        {"workload.generate.host_s", "s", "lower"},
        {"workload.sim_replay.host_s", "s", "lower"},
        {"workload.virtual_s", "s", "higher"},
        {"workload.fast_forward_x", "x", "higher"},
        {"obs.spans_recorded", "count", "higher"},
        {"obs.spans_dropped", "count", "lower"},
        {"obs.trace_overhead_frac", "fraction", "lower"},
    };
    d.insert(d.end(), fixed.begin(), fixed.end());
    return d;
  }();
  return defs;
}

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void print_metric(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  std::cout << "  " << name << std::string(name.size() < 24 ? 24 - name.size() : 1, ' ')
            << buf << " " << unit << (note.empty() ? "" : "  (" + note + ")")
            << "\n";
}

void print_phase(const std::string& phase, std::int64_t sent,
                 std::int64_t ok, std::int64_t failed) {
  std::cout << "phase " << phase << ": sent " << sent << ", succeeded " << ok
            << ", failed " << failed << "\n";
}

// ----------------------------------------------------------------- spans ---

namespace {
/// Open spans of the calling thread, innermost last (the parent of the next
/// span opened on this thread).
thread_local std::vector<std::uint64_t> t_open;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int idx = next.fetch_add(1);
  return idx;
}
}  // namespace

void SpanLog::set_enabled(bool on) { enabled_.store(on); }
bool SpanLog::enabled() const { return enabled_.load(std::memory_order_relaxed); }

std::uint64_t SpanLog::open(const char* name) {
  if (!enabled()) return 0;
  Span s;
  s.parent = t_open.empty() ? 0 : t_open.back();
  s.name = name;
  s.tid = thread_index();
  s.begin_s = now_s();
  std::uint64_t id = 0;
  {
    fcm::MutexLock lk(mu_);
    id = next_id_++;
    s.id = id;
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void SpanLog::close(std::uint64_t id) {
  if (id == 0) return;
  const double end = now_s();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  fcm::MutexLock lk(mu_);
  // Ids are handed out in append order, so span `id` sits at index id - 1.
  spans_[static_cast<std::size_t>(id - 1)].end_s = end;
}

std::vector<SpanLog::Span> SpanLog::snapshot() const {
  fcm::MutexLock lk(mu_);
  return spans_;
}

std::size_t SpanLog::size() const {
  fcm::MutexLock lk(mu_);
  return spans_.size();
}

std::map<std::string, SpanLog::Totals> SpanLog::totals(double from_s,
                                                       double to_s) const {
  const std::vector<Span> spans = snapshot();
  // Children run on their parent's thread inside its interval, so the time
  // they cover is the sum of their durations.
  std::vector<double> child_s(spans.size() + 1, 0.0);
  for (const Span& s : spans) {
    if (s.parent != 0) child_s[s.parent] += s.end_s - s.begin_s;
  }
  std::map<std::string, Totals> out;
  for (const Span& s : spans) {
    if (s.begin_s < from_s || s.begin_s >= to_s) continue;
    Totals& t = out[s.name];
    const double dur = s.end_s - s.begin_s;
    t.calls += 1;
    t.total_s += dur;
    t.self_s += dur - child_s[s.id];
  }
  return out;
}

std::string SpanLog::chrome_trace_json() const {
  const std::vector<Span> spans = snapshot();
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":\"" + fcm::obs::json_escape(s.name) + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  s.begin_s * 1e6, (s.end_s - s.begin_s) * 1e6, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

fcm::serving::PlanCache::PlanFn spanned_plan_fn(SpanLog& log) {
  return [&log](const fcm::gpusim::DeviceSpec& dev, const fcm::ModelGraph& m,
                fcm::DType dt, const fcm::planner::PlanOptions& o) {
    ScopedSpan span(log, "planner.plan_model");
    return fcm::planner::plan_model(dev, m, dt, o);
  };
}

std::string write_output(const std::string& out_dir, const std::string& file,
                         const std::string& text) {
  std::filesystem::create_directories(out_dir);
  const std::string path = out_dir + "/" + file;
  std::ofstream os(path, std::ios::trunc);
  FCM_CHECK(static_cast<bool>(os), "cannot write " + path);
  os << text;
  FCM_CHECK(static_cast<bool>(os), "write failed: " + path);
  return path;
}

}  // namespace perfbench
