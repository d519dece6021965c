#include "serving/plan_cache.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

#include "common/clock.hpp"
#include "common/error.hpp"
#include "planner/plan_io.hpp"

namespace fcm::serving {

namespace fs = std::filesystem;

namespace {

/// Keep [A-Za-z0-9_.-], replace everything else — model/device names feed
/// straight into file names.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

/// Per-write staging suffix: concurrent writers of one plan file must never
/// interleave writes in a shared tmp file. Other processes differ by pid;
/// within one process, two caches sharing a directory (a cluster's
/// same-device shards) single-flight a key only per cache, so every write
/// also takes a process-wide sequence number.
std::string tmp_suffix() {
  static std::atomic<std::uint64_t> seq{0};
#if defined(_WIN32)
  const auto pid = _getpid();
#else
  const auto pid = ::getpid();
#endif
  return ".tmp." + std::to_string(pid) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

std::string PlanKey::slug() const {
  std::ostringstream os;
  os << sanitize(model) << "__" << sanitize(device) << "__"
     << dtype_name(dtype) << "__"
     << (options.enable_triple ? "triple" : "pair");
  return os.str();
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  std::size_t h = std::hash<std::string>{}(k.model);
  hash_combine(h, std::hash<std::string>{}(k.device));
  hash_combine(h, static_cast<std::size_t>(k.dtype));
  hash_combine(h, static_cast<std::size_t>(k.options.enable_triple));
  return h;
}

PlanCache::PlanCache(std::size_t capacity, std::string cache_dir)
    : capacity_(capacity),
      cache_dir_(std::move(cache_dir)),
      plan_fn_([](const gpusim::DeviceSpec& dev, const ModelGraph& model,
                  DType dt, const planner::PlanOptions& opt) {
        return planner::plan_model(dev, model, dt, opt);
      }) {
  FCM_CHECK(capacity_ >= 1, "PlanCache capacity must be >= 1");
  auto& reg = obs::MetricsRegistry::global();
  const auto counter = [&](const char* name, const char* help) {
    return &reg.counter_family(name, help).get();
  };
  m_.hits = counter("fcm_plan_cache_hits_total", "In-memory plan-cache hits");
  m_.misses = counter("fcm_plan_cache_misses_total",
                      "Lookups that left the in-memory plan cache");
  m_.evictions =
      counter("fcm_plan_cache_evictions_total", "LRU plan-cache evictions");
  m_.disk_hits = counter("fcm_plan_cache_disk_hits_total",
                         "Misses satisfied by the persistent cache directory");
  m_.coalesced = counter("fcm_plan_cache_coalesced_total",
                         "Lookups that waited on another thread's in-flight "
                         "planning of the same key (single-flight)");
  m_.plan_time = &reg.histogram_family(
      "fcm_plan_seconds",
      "Wall time of actual planner runs (cache misses that reached the "
      "planner; disk loads excluded), seconds",
      {"model", "dtype"});
}

std::string PlanCache::file_path(const PlanKey& key) const {
  return (fs::path(cache_dir_) / (key.slug() + ".plan")).string();
}

std::shared_ptr<const planner::Plan> PlanCache::try_load_disk(
    const gpusim::DeviceSpec& dev, const ModelGraph& model,
    const PlanKey& key) {
  std::ifstream in(file_path(key));
  if (!in.good()) return nullptr;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    auto plan = planner::deserialize(text.str());
    // reconcile stamps the plan with `dev`, so another device's plan (its
    // tiles may not even fit this device's shared memory) must be refused
    // before it.
    FCM_CHECK(plan.model_name == key.model && plan.device_name == key.device &&
                  plan.dtype == key.dtype,
              "plan cache file does not match its key");
    planner::reconcile(dev, model, plan);
    // reconcile accepts any fusable triple, so a pair-only key must refuse
    // a triple plan itself.
    FCM_CHECK(key.options.enable_triple ||
                  std::none_of(plan.steps.begin(), plan.steps.end(),
                               [](const planner::PlanStep& s) {
                                 return s.fused &&
                                        s.fcm_kind == FcmKind::kPwDwPw;
                               }),
              "plan cache file fuses a triple under a pair-only key");
    {
      MutexLock lk(mu_);
      ++stats_.disk_hits;
    }
    if (obs::enabled()) m_.disk_hits->inc();
    return std::make_shared<const planner::Plan>(std::move(plan));
  } catch (const Error&) {
    // Stale or foreign file (model changed, truncated write, wrong device,
    // dtype or options): the caller replans and the store below repairs it.
    return nullptr;
  }
}

std::shared_ptr<const planner::Plan> PlanCache::produce(
    const gpusim::DeviceSpec& dev, const ModelGraph& model, DType dt,
    const PlanKey& key) {
  const bool persistent = !cache_dir_.empty();
  if (persistent) {
    if (auto plan = try_load_disk(dev, model, key)) return plan;
  }

  PlanFn fn;
  {
    MutexLock lk(mu_);
    fn = plan_fn_;
  }
  const SteadyTime t0 = steady_now();
  auto plan =
      std::make_shared<const planner::Plan>(fn(dev, model, dt, key.options));
  if (obs::enabled()) {
    // Planning is host compute, so it is timed on the real clock even when
    // the serving stack runs on a ManualClock.
    m_.plan_time->with({key.model, dtype_name(key.dtype)})
        .observe(seconds_since(t0));
  }

  if (persistent) {
    // Best-effort persistence: a read-only or full cache directory must not
    // fail the request. Write-then-rename keeps concurrent writers from
    // observing half-written plans.
    std::error_code ec;
    fs::create_directories(cache_dir_, ec);
    const std::string path = file_path(key);
    const std::string tmp = path + tmp_suffix();
    std::ofstream out(tmp);
    bool ok = out.good();
    if (ok) {
      out << planner::serialize(*plan);
      out.close();
      ok = out.good();
    }
    if (ok) {
      fs::rename(tmp, path, ec);
      ok = !ec;
    }
    if (!ok) fs::remove(tmp, ec);  // never leave a partial .tmp behind
  }
  return plan;
}

void PlanCache::insert_locked(const PlanKey& key,
                              std::shared_ptr<const planner::Plan> plan) {
  lru_.push_front(Entry{key, std::move(plan)});
  map_[key] = lru_.begin();
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    if (obs::enabled()) m_.evictions->inc();
  }
}

std::shared_ptr<const planner::Plan> PlanCache::get_or_plan(
    const gpusim::DeviceSpec& dev, const ModelGraph& model, DType dt,
    const planner::PlanOptions& opt) {
  const PlanKey key{model.name, dev.name, dt, opt};

  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    MutexLock lk(mu_);
    if (auto it = map_.find(key); it != map_.end()) {
      ++stats_.hits;
      if (obs::enabled()) m_.hits->inc();
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      return it->second->plan;
    }
    if (auto it = inflight_.find(key); it != inflight_.end()) {
      ++stats_.coalesced;
      if (obs::enabled()) m_.coalesced->inc();
      flight = it->second;
    } else {
      ++stats_.misses;
      if (obs::enabled()) m_.misses->inc();
      flight = std::make_shared<InFlight>();
      inflight_[key] = flight;
      owner = true;
    }
  }

  if (!owner) {
    MutexLock lk(flight->m);
    flight->cv.wait(lk, [&] {
      flight->m.assert_held();
      return flight->done;
    });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->plan;
  }

  // This thread plans (or loads) the key; every other thread waits on the
  // flight. The planner runs outside the cache lock so unrelated keys stay
  // servable.
  std::shared_ptr<const planner::Plan> plan;
  std::exception_ptr error;
  try {
    plan = produce(dev, model, dt, key);
  } catch (...) {
    error = std::current_exception();
  }

  {
    MutexLock lk(mu_);
    if (!error) insert_locked(key, plan);
    inflight_.erase(key);
  }
  {
    MutexLock lk(flight->m);
    flight->done = true;
    flight->plan = plan;
    flight->error = error;
  }
  flight->cv.notify_all();

  if (error) std::rethrow_exception(error);
  return plan;
}

std::size_t PlanCache::size() const {
  MutexLock lk(mu_);
  return map_.size();
}

CacheStats PlanCache::stats() const {
  MutexLock lk(mu_);
  return stats_;
}

void PlanCache::clear() {
  MutexLock lk(mu_);
  map_.clear();
  lru_.clear();
}

void PlanCache::set_plan_fn(PlanFn fn) {
  FCM_CHECK(static_cast<bool>(fn), "PlanCache::set_plan_fn: empty function");
  MutexLock lk(mu_);
  plan_fn_ = std::move(fn);
}

}  // namespace fcm::serving
