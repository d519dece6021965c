#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"

namespace fcm::obs {

namespace {

std::atomic<bool>& enabled_flag() {
  // Read FCM_OBS_OFF exactly once, at first use; set_enabled overrides.
  static std::atomic<bool> flag{[] {
    const char* off = std::getenv("FCM_OBS_OFF");
    return off == nullptr || off[0] == '\0';
  }()};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

std::uint64_t next_request_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string fmt_double(double v) {
  // Integral values (including negative) print without a decimal point so
  // counter-like series read naturally; everything else goes through %.9g,
  // enough digits to round-trip the values the tests golden-match. The range
  // test comes first: casting ±Inf, NaN or |v| >= 2^63 to int64 is UB.
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<std::int64_t>(v))) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
    return buf;
  }
  if (v == std::numeric_limits<double>::infinity()) return "+Inf";
  if (v == -std::numeric_limits<double>::infinity()) return "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

int Counter::slot() {
  // Round-robin home-slot assignment: cheap, stable per thread, and spreads
  // writers over the padded cells without any per-thread registration.
  static std::atomic<unsigned> next{0};
  thread_local const int s =
      static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) % kCells);
  return s;
}

HistogramData::HistogramData(std::shared_ptr<const std::vector<double>> b)
    : bounds(std::move(b)) {
  buckets.assign(bounds->size() + 1, 0);
}

void HistogramData::observe(double v) {
  if (!bounds) {
    bounds = latency_bounds();
    buckets.assign(bounds->size() + 1, 0);
  }
  const auto it = std::lower_bound(bounds->begin(), bounds->end(), v);
  ++buckets[static_cast<std::size_t>(it - bounds->begin())];
  if (count == 0 || v < min) min = v;
  if (count == 0 || v > max) max = v;
  ++count;
  sum += v;
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  FCM_CHECK(bounds && other.bounds && *bounds == *other.bounds,
            "HistogramData::merge: bucket bounds differ");
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

double HistogramData::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the target observation (1-based, nearest-rank then interpolated
  // within the bucket). Clamping to [min, max] keeps single-value and
  // narrow-range histograms exact instead of smeared over a whole bucket.
  const double rank = p * static_cast<double>(count);
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::int64_t prev = cum;
    cum += buckets[i];
    if (static_cast<double>(cum) >= rank) {
      const double lo = i == 0 ? min : (*bounds)[i - 1];
      const double hi = i < bounds->size() ? (*bounds)[i] : max;
      const double frac =
          buckets[i] > 0
              ? (rank - static_cast<double>(prev)) /
                    static_cast<double>(buckets[i])
              : 0.0;
      const double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return std::clamp(v, min, max);
    }
  }
  return max;
}

std::shared_ptr<const std::vector<double>> latency_bounds() {
  static const std::shared_ptr<const std::vector<double>> bounds = [] {
    // 1-2-5 log grid, 1us .. 60s. Covers sub-millisecond warm cache lookups
    // through multi-second cold plans in ~17 buckets.
    std::vector<double> b;
    for (double decade = 1e-6; decade < 50.0; decade *= 10.0) {
      for (double m : {1.0, 2.0, 5.0}) {
        const double v = decade * m;
        if (v > 60.0) break;
        b.push_back(v);
      }
    }
    b.push_back(60.0);
    return std::make_shared<const std::vector<double>>(std::move(b));
  }();
  return bounds;
}

std::shared_ptr<const std::vector<double>> make_bounds(std::vector<double> b) {
  FCM_CHECK(!b.empty(), "make_bounds: bounds must be non-empty");
  FCM_CHECK(std::is_sorted(b.begin(), b.end()) &&
                std::adjacent_find(b.begin(), b.end()) == b.end(),
            "make_bounds: bounds must be strictly increasing");
  return std::make_shared<const std::vector<double>>(std::move(b));
}

Histogram::Histogram(std::shared_ptr<const std::vector<double>> bounds)
    : bounds_(std::move(bounds)),
      buckets_(std::make_unique<Bucket[]>(bounds_->size() + 1)) {}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_->begin(), bounds_->end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_->begin())].n.fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  // min/max via CAS loops. First observation claims both through the count
  // 0 -> 1 transition; racing first observers may each think they are first,
  // which the CAS loops absorb (both end up folded in).
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    double expected = 0.0;
    min_.compare_exchange_strong(expected, v, std::memory_order_relaxed);
    expected = 0.0;
    max_.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  }
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::snapshot() const {
  HistogramData d(bounds_);
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = buckets_[i].n.load(std::memory_order_relaxed);
    d.count += d.buckets[i];
  }
  d.sum = sum_.load(std::memory_order_relaxed);
  d.min = min_.load(std::memory_order_relaxed);
  d.max = max_.load(std::memory_order_relaxed);
  return d;
}

std::string prometheus_series_name(const std::string& name,
                                   const std::vector<std::string>& keys,
                                   const std::vector<std::string>& values) {
  if (keys.empty()) return name;
  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ',';
    out += keys[i];
    out += "=\"";
    for (char c : values[i]) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    out += '"';
  }
  out += '}';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void write_json_labels(std::string& out, const std::vector<std::string>& keys,
                       const std::vector<std::string>& values) {
  out += "{";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + json_escape(keys[i]) + "\":\"" + json_escape(values[i]) +
           "\"";
  }
  out += "}";
}

}  // namespace

template <typename M>
void Family<M>::write_prometheus(std::string& out) const {
  const auto children = snapshot_children();
  // The lock is released; metric pointers are stable and reads are atomic.
  out += "# HELP " + name_ + " " + help_ + "\n";
  out += "# TYPE " + name_ + " " + kind_name(kind_) + "\n";
  for (const auto& [values, metric] : children) {
    if constexpr (std::is_same_v<M, Counter>) {
      out += prometheus_series_name(name_, keys_, values) + " " +
             fmt_double(static_cast<double>(metric->value())) + "\n";
    } else if constexpr (std::is_same_v<M, Gauge>) {
      out += prometheus_series_name(name_, keys_, values) + " " +
             fmt_double(metric->value()) + "\n";
    } else {
      const HistogramData d = metric->snapshot();
      std::int64_t cum = 0;
      std::vector<std::string> keys = keys_;
      keys.push_back("le");
      for (std::size_t i = 0; i < d.buckets.size(); ++i) {
        cum += d.buckets[i];
        std::vector<std::string> vals = values;
        vals.push_back(i < d.bounds->size() ? fmt_double((*d.bounds)[i])
                                            : "+Inf");
        out += prometheus_series_name(name_ + "_bucket", keys, vals) + " " +
               fmt_double(static_cast<double>(cum)) + "\n";
      }
      out += prometheus_series_name(name_ + "_sum", keys_, values) + " " +
             fmt_double(d.sum) + "\n";
      out += prometheus_series_name(name_ + "_count", keys_, values) + " " +
             fmt_double(static_cast<double>(d.count)) + "\n";
    }
  }
}

template <typename M>
void Family<M>::write_json(std::string& out) const {
  const auto children = snapshot_children();
  out += "{\"name\":\"" + json_escape(name_) + "\",\"type\":\"";
  out += kind_name(kind_);
  out += "\",\"help\":\"" + json_escape(help_) + "\",\"series\":[";
  bool first = true;
  for (const auto& [values, metric] : children) {
    if (!first) out += ",";
    first = false;
    out += "{\"labels\":";
    write_json_labels(out, keys_, values);
    if constexpr (std::is_same_v<M, Counter>) {
      out += ",\"value\":" + fmt_double(static_cast<double>(metric->value()));
    } else if constexpr (std::is_same_v<M, Gauge>) {
      out += ",\"value\":" + fmt_double(metric->value());
    } else {
      const HistogramData d = metric->snapshot();
      out += ",\"count\":" + fmt_double(static_cast<double>(d.count));
      out += ",\"sum\":" + fmt_double(d.sum);
      out += ",\"min\":" + fmt_double(d.min);
      out += ",\"max\":" + fmt_double(d.max);
      out += ",\"buckets\":[";
      for (std::size_t i = 0; i < d.buckets.size(); ++i) {
        if (i > 0) out += ",";
        out += "{\"le\":";
        out += i < d.bounds->size() ? fmt_double((*d.bounds)[i])
                                    : "\"+Inf\"";
        out += ",\"n\":" + fmt_double(static_cast<double>(d.buckets[i])) + "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";
}

template class Family<Counter>;
template class Family<Gauge>;
template class Family<Histogram>;

template <typename M>
Family<M>& MetricsRegistry::family_impl(
    const std::string& name, const std::string& help,
    std::vector<std::string> keys, MetricKind kind,
    std::shared_ptr<const std::vector<double>> bounds) {
  MutexLock lk(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    FCM_CHECK(it->second->kind() == kind,
              "MetricsRegistry: family '" + name +
                  "' re-registered with a different metric kind");
    FCM_CHECK(it->second->keys() == keys,
              "MetricsRegistry: family '" + name +
                  "' re-registered with different label keys");
    return *static_cast<Family<M>*>(it->second);
  }
  auto fam = std::make_unique<Family<M>>(name, help, std::move(keys), kind,
                                         std::move(bounds));
  Family<M>& ref = *fam;
  by_name_.emplace(name, fam.get());
  families_.push_back(std::move(fam));
  return ref;
}

Family<Counter>& MetricsRegistry::counter_family(const std::string& name,
                                                 const std::string& help,
                                                 std::vector<std::string> keys) {
  return family_impl<Counter>(name, help, std::move(keys),
                              MetricKind::kCounter, nullptr);
}

Family<Gauge>& MetricsRegistry::gauge_family(const std::string& name,
                                             const std::string& help,
                                             std::vector<std::string> keys) {
  return family_impl<Gauge>(name, help, std::move(keys), MetricKind::kGauge,
                            nullptr);
}

Family<Histogram>& MetricsRegistry::histogram_family(
    const std::string& name, const std::string& help,
    std::vector<std::string> keys,
    std::shared_ptr<const std::vector<double>> bounds) {
  return family_impl<Histogram>(name, help, std::move(keys),
                                MetricKind::kHistogram, std::move(bounds));
}

std::vector<const FamilyBase*> MetricsRegistry::snapshot_families() const {
  MutexLock lk(mu_);
  std::vector<const FamilyBase*> out;
  out.reserve(families_.size());
  for (const auto& f : families_) out.push_back(f.get());
  return out;
}

std::string MetricsRegistry::prometheus_text() const {
  // Families are never erased, so the snapshot's pointers outlive the lock;
  // formatting below runs with no registry lock held.
  std::string out;
  for (const FamilyBase* f : snapshot_families()) {
    f->write_prometheus(out);
  }
  return out;
}

std::string MetricsRegistry::json_text() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const FamilyBase* f : snapshot_families()) {
    if (!first) out += ",";
    first = false;
    f->write_json(out);
  }
  out += "]}";
  return out;
}

namespace {
std::atomic<MetricsRegistry*> g_registry_override{nullptr};
}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  if (MetricsRegistry* o = g_registry_override.load(std::memory_order_acquire);
      o != nullptr) {
    return *o;
  }
  return process();
}

MetricsRegistry& MetricsRegistry::process() {
  // Leaked: instrumentation sites in static-destruction order stay safe.
  static MetricsRegistry* const g = new MetricsRegistry();
  return *g;
}

MetricsRegistry* MetricsRegistry::set_global_override(MetricsRegistry* reg) {
  return g_registry_override.exchange(reg, std::memory_order_acq_rel);
}

}  // namespace fcm::obs
