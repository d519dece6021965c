#include "serving/plan_cache.hpp"

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

#if defined(_WIN32)
#include <process.h>
#else
#include <fcntl.h>
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

/// Outcome of one lock-file claim attempt. kBusy means another process holds
/// the lock (the only case worth waiting on); kUnavailable means the
/// directory cannot host a lock at all (read-only, missing, ENOSPC) — the
/// caller must plan locally without coordination, because persistence is
/// best-effort and a broken cache dir must never fail or hang a request.
enum class LockClaim { kOwner, kBusy, kUnavailable };

/// Atomically claim `path` as this process's planning lock. O_CREAT|O_EXCL
/// succeeds for exactly one contender — the POSIX primitive behind classic
/// lock files. On platforms without it every process claims successfully,
/// degrading to the pre-lock behaviour (duplicate planning, still correct).
LockClaim claim_lock(const std::string& path) {
#if defined(_WIN32)
  (void)path;
  return LockClaim::kOwner;
#else
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd >= 0) {
    ::close(fd);
    return LockClaim::kOwner;
  }
  return errno == EEXIST ? LockClaim::kBusy : LockClaim::kUnavailable;
#endif
}

/// A lock whose mtime is older than this is presumed abandoned (owner
/// crashed mid-planning) and may be stolen. Far above any real planning
/// time, so a healthy owner is never robbed.
constexpr auto kStaleLockAge = std::chrono::seconds(60);

/// Per-process staging suffix: concurrent writers of one plan file (stale
/// steal, lock-unavailable fallback, platforms without O_EXCL claiming)
/// must never interleave writes in a shared tmp file. Within one process
/// the cache single-flights each key, so the pid is discriminator enough.
std::string tmp_suffix() {
#if defined(_WIN32)
  return ".tmp." + std::to_string(_getpid());
#else
  return ".tmp." + std::to_string(::getpid());
#endif
}

}  // namespace

std::string PlanKey::slug() const {
  std::ostringstream os;
  os << sanitize(model) << "__" << sanitize(device) << "__"
     << dtype_name(dtype) << "__"
     << (options.enable_triple ? "triple" : "pair");
  // A non-default beam appends a suffix so the historical file names stay
  // valid for default-option plans.
  if (options.beam_width > 0) os << "__beam" << options.beam_width;
  return os.str();
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  std::size_t h = std::hash<std::string>{}(k.model);
  hash_combine(h, std::hash<std::string>{}(k.device));
  hash_combine(h, static_cast<std::size_t>(k.dtype));
  hash_combine(h, static_cast<std::size_t>(k.options.enable_triple));
  hash_combine(h, static_cast<std::size_t>(k.options.beam_width));
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
  m_.lock_waits = counter("fcm_plan_cache_lock_waits_total",
                          "Misses that waited on another process's plan lock "
                          "file instead of planning");
  m_.plan_time = &reg.histogram_family(
      "fcm_plan_seconds",
      "Wall time of actual planner runs (cache misses that reached the "
      "planner; disk loads excluded), seconds",
      {"model", "dtype"});
}

std::string PlanCache::file_path(const PlanKey& key) const {
  return (fs::path(cache_dir_) / (key.slug() + ".plan")).string();
}

std::string PlanCache::lock_path(const PlanKey& key) const {
  return file_path(key) + ".lock";
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
    FCM_CHECK(plan.model_name == key.model && plan.dtype == key.dtype,
              "plan cache file does not match its key");
    planner::reconcile(dev, model, plan);
    {
      MutexLock lk(mu_);
      ++stats_.disk_hits;
    }
    if (obs::enabled()) m_.disk_hits->inc();
    return std::make_shared<const planner::Plan>(std::move(plan));
  } catch (const Error&) {
    // Stale or foreign file (model changed, truncated write, wrong dtype):
    // the caller replans and the store below repairs it.
    return nullptr;
  }
}

std::shared_ptr<const planner::Plan> PlanCache::produce(
    const gpusim::DeviceSpec& dev, const ModelGraph& model, DType dt,
    const PlanKey& key) {
  const bool persistent = !cache_dir_.empty();
  bool lock_owner = false;
  std::string lock;
  if (persistent) {
    if (auto plan = try_load_disk(dev, model, key)) return plan;

    // Cross-process dedup: claim <plan>.lock before planning. Losing the
    // claim means another cold process is already planning this key — wait
    // for its plan file instead of repeating the tile search. A lock left by
    // a crashed owner goes stale and is stolen with fs::rename, which is
    // atomic: exactly one contender's rename succeeds and takes ownership.
    std::error_code ec;
    fs::create_directories(cache_dir_, ec);
    lock = lock_path(key);
    LockClaim claim = claim_lock(lock);
    lock_owner = claim == LockClaim::kOwner;
    if (claim == LockClaim::kBusy) {
      {
        MutexLock lk(mu_);
        ++stats_.lock_waits;
      }
      if (obs::enabled()) m_.lock_waits->inc();
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (auto plan = try_load_disk(dev, model, key)) return plan;
        std::error_code sec;
        if (!fs::exists(lock, sec)) {
          // Owner released without delivering a loadable plan (e.g. its
          // write failed): take over. kUnavailable (directory vanished or
          // turned read-only mid-wait) drops coordination and plans locally.
          claim = claim_lock(lock);
          if (claim == LockClaim::kBusy) continue;  // lost the re-claim race
          lock_owner = claim == LockClaim::kOwner;
          break;
        }
        const auto mtime = fs::last_write_time(lock, sec);
        if (!sec && fs::file_time_type::clock::now() - mtime > kStaleLockAge) {
          const std::string aside = lock + ".stale";
          fs::rename(lock, aside, sec);
          if (!sec) {
            fs::remove(aside, sec);
            claim = claim_lock(lock);
            if (claim == LockClaim::kBusy) continue;
            lock_owner = claim == LockClaim::kOwner;
            break;
          }
        }
      }
      // The owner may have delivered its plan file between this waiter's
      // last probe and the successful (re-)claim — load it rather than
      // repeating the tile search it just waited out.
      if (auto plan = try_load_disk(dev, model, key)) {
        if (lock_owner) {
          std::error_code sec;
          fs::remove(lock, sec);
        }
        return plan;
      }
    }
    // claim == kUnavailable falls through with lock_owner == false: the
    // cache directory cannot coordinate processes, so plan without it.
  }

  PlanFn fn;
  {
    MutexLock lk(mu_);
    fn = plan_fn_;
  }
  std::shared_ptr<const planner::Plan> plan;
  try {
    const SteadyTime t0 = steady_now();
    plan = std::make_shared<const planner::Plan>(fn(dev, model, dt, key.options));
    if (obs::enabled()) {
      // Planning is host compute, so it is timed on the real clock even when
      // the serving stack runs on a ManualClock.
      m_.plan_time->with({key.model, dtype_name(key.dtype)})
          .observe(seconds_since(t0));
    }
  } catch (...) {
    if (lock_owner) {
      std::error_code ec;
      fs::remove(lock, ec);  // never strand waiters behind a failed planning
    }
    throw;
  }

  if (persistent) {
    // Best-effort persistence: a read-only or full cache directory must not
    // fail the request. Write-then-rename keeps concurrent processes from
    // observing half-written plans.
    std::error_code ec;
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
    if (lock_owner) fs::remove(lock, ec);
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

bool PlanCache::contains(const PlanKey& key) const {
  MutexLock lk(mu_);
  return map_.find(key) != map_.end();
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
