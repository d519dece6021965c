// Process-wide metrics registry: sharded counters, gauges and fixed-bucket
// histograms grouped into labeled families, exported as Prometheus-style text
// exposition or a JSON snapshot.
//
// Design contract (mirrors the rest of the serving stack):
//  * Hot-path writes are lock-free. Counter shards its count over cache-line
//    padded atomic cells (one round-robin slot per thread), Gauge is a single
//    atomic double, Histogram buckets are atomics found by binary search.
//  * Child lookup (`Family::with`) takes the family's leaf mutex once; call
//    sites that care cache the returned reference — children are never erased
//    so the reference stays valid for the registry's lifetime.
//  * Exporters snapshot the family/child pointer lists under the locks, then
//    RELEASE them and read the atomics lock-free: no lock is held while
//    formatting, so writers are never blocked by a scrape.
//  * `MetricsRegistry::global()` is a leaked singleton with a
//    set_global_override seam (same idiom as ThreadPool::global()) so tests
//    get a private registry via ScopedRegistryOverride.
//  * The `FCM_OBS_OFF` environment variable (any non-empty value) or
//    `set_enabled(false)` turns every instrumentation site into a cheap
//    relaxed-load + branch, the telemetry-off side of an overhead A/B.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace fcm::obs {

/// Global instrumentation switch. Initialised once from FCM_OBS_OFF; flip at
/// runtime with set_enabled. Relaxed atomics — a racing reader sees the old
/// value for at most one observation.
bool enabled();
void set_enabled(bool on);

/// Process-wide request-id source: monotonically increasing, never 0 (0 is
/// the "assign me one" sentinel on ServeRequest).
std::uint64_t next_request_id();

/// Ordered label key/value pairs. Keys are fixed per family; `with` takes
/// just the values in key order.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Deterministic double formatting for both exporters: integral values print
/// without a decimal point ("42"), everything else via %.9g ("0.00125").
std::string fmt_double(double v);

/// Monotonic counter sharded over cache-line padded cells: each thread picks
/// a home slot round-robin on first use, so concurrent inc() calls from
/// different threads usually touch different cache lines.
class Counter {
 public:
  void inc(std::int64_t n = 1) {
    cells_[slot()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::int64_t value() const {
    std::int64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  static constexpr int kCells = 8;
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };

  static int slot();

  Cell cells_[kCells];
};

/// Last-write-wins double gauge with an atomic add (C++20 fetch_add on
/// atomic<double>) for accumulator-style use (sim-seconds executed).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Plain-value histogram snapshot: cumulative math, merging and percentile
/// estimation live here so ServingReport can aggregate without touching the
/// live atomics. Percentiles interpolate linearly within the target bucket
/// and clamp to the observed [min, max], so single-value histograms report
/// that exact value.
struct HistogramData {
  /// Inclusive upper bounds of the finite buckets, ascending. One extra
  /// overflow bucket (+Inf) is implied: buckets.size() == bounds->size()+1.
  /// shared_ptr keeps copies of snapshots cheap — bounds are immutable.
  std::shared_ptr<const std::vector<double>> bounds;
  std::vector<std::int64_t> buckets;
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  HistogramData() = default;
  explicit HistogramData(std::shared_ptr<const std::vector<double>> b);

  /// Single-threaded observe (report aggregation); the concurrent path is
  /// Histogram::observe below.
  void observe(double v);
  /// Element-wise merge; both sides must share identical bounds (or either
  /// side may be empty/default-constructed).
  void merge(const HistogramData& other);

  double mean() const { return count > 0 ? sum / count : 0.0; }
  /// Estimated p-th percentile, p in [0,1].
  double percentile(double p) const;
};

/// Default latency bounds: a 1-2-5 log grid from 1us to 60s (~17 buckets).
std::shared_ptr<const std::vector<double>> latency_bounds();
/// Arbitrary explicit bounds (sorted ascending, strictly increasing).
std::shared_ptr<const std::vector<double>> make_bounds(std::vector<double> b);

/// Fixed-bucket concurrent histogram. observe() is lock-free: binary-search
/// the immutable bounds, then three relaxed atomic bumps. min/max are
/// maintained with CAS loops (cold after warm-up).
class Histogram {
 public:
  explicit Histogram(std::shared_ptr<const std::vector<double>> bounds =
                         latency_bounds());

  void observe(double v);
  HistogramData snapshot() const;
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }

  const std::vector<double>& bounds() const { return *bounds_; }

 private:
  struct alignas(64) Bucket {
    std::atomic<std::int64_t> n{0};
  };

  std::shared_ptr<const std::vector<double>> bounds_;
  std::unique_ptr<Bucket[]> buckets_;  // bounds_->size() + 1 (overflow last)
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// A named metric family: fixed label keys, one child metric per label-value
/// tuple. Children are created on first `with()` and never erased, so the
/// returned references remain valid for the registry's lifetime and hot
/// paths may cache them.
class FamilyBase {
 public:
  FamilyBase(std::string name, std::string help, std::vector<std::string> keys,
             MetricKind kind)
      : name_(std::move(name)),
        help_(std::move(help)),
        keys_(std::move(keys)),
        kind_(kind) {}
  virtual ~FamilyBase() = default;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<std::string>& keys() const { return keys_; }
  MetricKind kind() const { return kind_; }

  /// Append this family in Prometheus text exposition format.
  virtual void write_prometheus(std::string& out) const = 0;
  /// Append this family as a JSON object (no trailing comma/newline).
  virtual void write_json(std::string& out) const = 0;

 protected:
  std::string name_;
  std::string help_;
  std::vector<std::string> keys_;
  MetricKind kind_;
};

/// Format `name{k1="v1",...}` (no braces when label-free). Values are escaped
/// per the Prometheus exposition rules (backslash, quote, newline).
std::string prometheus_series_name(const std::string& name,
                                   const std::vector<std::string>& keys,
                                   const std::vector<std::string>& values);
/// JSON string escaping (quotes, backslash, control characters).
std::string json_escape(const std::string& s);

template <typename M>
class Family final : public FamilyBase {
 public:
  Family(std::string name, std::string help, std::vector<std::string> keys,
         MetricKind kind,
         std::shared_ptr<const std::vector<double>> bounds = nullptr)
      : FamilyBase(std::move(name), std::move(help), std::move(keys), kind),
        bounds_(std::move(bounds)) {}

  /// The child for this label-value tuple (created on first use). `values`
  /// must match keys() in length and order. The reference is stable —
  /// children are never erased.
  M& with(std::vector<std::string> values) EXCLUDES(mu_) {
    MutexLock lk(mu_);
    auto it = children_.find(values);
    if (it == children_.end()) {
      it = children_.emplace(std::move(values), make_child()).first;
    }
    return *it->second;
  }

  /// Label-free convenience for families with no keys.
  M& get() { return with({}); }

  void write_prometheus(std::string& out) const override;
  void write_json(std::string& out) const override;

 private:
  std::unique_ptr<M> make_child() const {
    if constexpr (std::is_same_v<M, Histogram>) {
      return std::make_unique<M>(bounds_ ? bounds_ : latency_bounds());
    } else {
      return std::make_unique<M>();
    }
  }

  /// (label values, metric) pairs snapshotted under mu_; the metric pointers
  /// are stable (children are never erased), so the exporters read them
  /// AFTER this returns and the lock is gone.
  std::vector<std::pair<std::vector<std::string>, const M*>>
  snapshot_children() const EXCLUDES(mu_) {
    std::vector<std::pair<std::vector<std::string>, const M*>> out;
    MutexLock lk(mu_);
    out.reserve(children_.size());
    for (const auto& [values, metric] : children_) {
      out.emplace_back(values, metric.get());
    }
    return out;
  }

  mutable Mutex mu_;
  std::map<std::vector<std::string>, std::unique_ptr<M>> children_
      GUARDED_BY(mu_);
  std::shared_ptr<const std::vector<double>> bounds_;  // histograms only
};

/// The registry: named families, get-or-create semantics. Family getters are
/// idempotent — asking again with the same name returns the same family and
/// FCM_CHECKs that kind and label keys match. Exporters walk a snapshot of
/// the family list taken under the registry mutex, then format lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Family<Counter>& counter_family(const std::string& name,
                                  const std::string& help,
                                  std::vector<std::string> keys = {})
      EXCLUDES(mu_);
  Family<Gauge>& gauge_family(const std::string& name, const std::string& help,
                              std::vector<std::string> keys = {})
      EXCLUDES(mu_);
  Family<Histogram>& histogram_family(
      const std::string& name, const std::string& help,
      std::vector<std::string> keys = {},
      std::shared_ptr<const std::vector<double>> bounds = nullptr)
      EXCLUDES(mu_);

  /// Prometheus text exposition (# HELP/# TYPE + one line per series;
  /// histograms expand to _bucket{le=...}/_sum/_count).
  std::string prometheus_text() const EXCLUDES(mu_);
  /// JSON snapshot: {"metrics":[{name,type,help,series:[...]}]}.
  std::string json_text() const EXCLUDES(mu_);

  /// The process-wide registry (leaked — safe during static destruction),
  /// unless a test installed an override.
  static MetricsRegistry& global();
  /// The process-wide registry whatever override is installed — for
  /// process-lifetime objects whose handles must outlive every override.
  static MetricsRegistry& process();
  /// Install/remove a registry override; returns the previous override.
  /// Prefer ScopedRegistryOverride.
  static MetricsRegistry* set_global_override(MetricsRegistry* reg);

 private:
  template <typename M>
  Family<M>& family_impl(const std::string& name, const std::string& help,
                         std::vector<std::string> keys, MetricKind kind,
                         std::shared_ptr<const std::vector<double>> bounds)
      EXCLUDES(mu_);

  std::vector<const FamilyBase*> snapshot_families() const EXCLUDES(mu_);

  mutable Mutex mu_;
  // Insertion-ordered so export output is stable; lookup by name via map.
  std::vector<std::unique_ptr<FamilyBase>> families_ GUARDED_BY(mu_);
  std::map<std::string, FamilyBase*> by_name_ GUARDED_BY(mu_);
};

/// RAII registry override for tests: installs `reg` as the global registry
/// for its scope, restoring the previous override on destruction.
class ScopedRegistryOverride {
 public:
  explicit ScopedRegistryOverride(MetricsRegistry& reg)
      : prev_(MetricsRegistry::set_global_override(&reg)) {}
  ~ScopedRegistryOverride() { MetricsRegistry::set_global_override(prev_); }

  ScopedRegistryOverride(const ScopedRegistryOverride&) = delete;
  ScopedRegistryOverride& operator=(const ScopedRegistryOverride&) = delete;

 private:
  MetricsRegistry* prev_;
};

}  // namespace fcm::obs
