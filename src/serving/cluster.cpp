#include "serving/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/random.hpp"
#include "models/model_zoo.hpp"

namespace fcm::serving {

namespace {

/// Materialise one replay request into a concrete ServeRequest of `shape`-d
/// inputs (item j seeded with input_seed + j, outputs discarded — replay
/// aggregates metrics, never tensors).
ServeRequest materialise_request(const ReplayRequest& q, const FmShape& shape) {
  ServeRequest r;
  r.model = q.model;
  r.dtype = q.dtype;
  r.deadline_s = q.deadline_s;
  r.discard_outputs = true;  // replay aggregates metrics, never outputs
  if (q.dry) {
    r.dry_run = true;
    r.dry_batch = q.batch;
    return r;
  }
  for (int j = 0; j < q.batch; ++j) {
    const std::uint64_t seed = q.input_seed + static_cast<std::uint64_t>(j);
    if (q.dtype == DType::kF32) {
      TensorF in(shape);
      fill_uniform(in, seed);
      r.batch_f32.push_back(std::move(in));
    } else {
      TensorI8 in(shape);
      fill_uniform_i8(in, seed);
      r.batch_i8.push_back(std::move(in));
    }
  }
  return r;
}

/// The arrival schedule an offered rate implies: uniform 1/rps spacing
/// starting at 0 (empty when rps <= 0 — submit all at once).
std::vector<double> arrivals_at_rate(std::size_t n, double offered_rps) {
  if (offered_rps <= 0.0) return {};
  std::vector<double> arrivals(n);
  for (std::size_t i = 0; i < n; ++i) {
    arrivals[i] = static_cast<double>(i) / offered_rps;
  }
  return arrivals;
}

/// Fold one replay outcome into the report's per-(dtype × batch) group,
/// per-model and per-shard stats.
void accumulate_outcome(ServingReport& report, const ReplayRequest& q,
                        const ReplayOutcome& outcome,
                        ShardServingStats& shard) {
  GroupServingStats& group = group_stats(report, q.dtype, q.batch);
  if (outcome.status == ServeStatus::kRejected) {
    ++group.rejected;
    ++shard.rejected;
    return;
  }
  if (outcome.status == ServeStatus::kExpired) {
    ++group.expired;
    ++shard.expired;
    return;
  }
  ++group.requests;
  group.items += q.batch;
  group.latency.observe(outcome.latency_s);
  group.sim_time_s += outcome.sim_time_s;

  ModelServingStats& stats = model_stats(report, q.model);
  ++stats.requests;
  stats.items += q.batch;
  stats.latency.observe(outcome.latency_s);
  stats.sim_time_s += outcome.sim_time_s;
  stats.gma_bytes += outcome.gma_bytes;

  ++shard.requests;
  shard.items += q.batch;
  shard.latency.observe(outcome.latency_s);
  shard.sim_time_s += outcome.sim_time_s;
  shard.gma_bytes += outcome.gma_bytes;
}

}  // namespace

std::vector<ReplayOutcome> drive_replay_scheduled(
    const std::vector<ReplayRequest>& mix, const std::vector<double>& arrivals,
    Clock& clock,
    const std::function<std::future<ServeResponse>(ServeRequest, std::size_t)>&
        submit,
    double* wall_s, const ReplayWait& wait) {
  FCM_CHECK(arrivals.empty() || arrivals.size() == mix.size(),
            "replay: arrival schedule must be empty or sized like the mix");
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    FCM_CHECK(arrivals[i] >= arrivals[i - 1],
              "replay: arrival schedule must be non-decreasing");
  }
  // Input shapes are resolved once per distinct model (a mix is typically
  // thousands of requests over a handful of models); each request's tensors
  // are generated just before its submission, so replay's resident set is
  // bounded by the queue depth + in-flight requests, never by mix.size().
  // Dry requests carry no tensors and skip shape resolution entirely.
  std::unordered_map<std::string, FmShape> shapes;
  const FmShape no_shape{};
  for (const ReplayRequest& q : mix) {
    FCM_CHECK(q.batch >= 1, "replay: request batch must be >= 1");
    if (!q.dry && shapes.find(q.model) == shapes.end()) {
      shapes.emplace(
          q.model, models::model_by_name(q.model).layers.front().ifm_shape());
    }
  }

  // Responses come back output-free (materialise_request sets
  // discard_outputs), so a resolved-but-unharvested future holds only
  // scalar stats; the incremental in-order harvest below just keeps the
  // outcome records current while submission is still running.
  std::vector<std::future<ServeResponse>> futures(mix.size());
  std::vector<ReplayOutcome> outcomes(mix.size());
  std::size_t submitted = 0, harvested = 0;
  auto harvest = [&](bool drain_all) {
    while (harvested < submitted) {
      auto& f = futures[harvested];
      if (!drain_all &&
          f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        break;
      }
      const ServeResponse resp = f.get();
      outcomes[harvested] = ReplayOutcome{resp.status, resp.latency_s,
                                          resp.sim_time_s, resp.gma_bytes};
      ++harvested;
    }
  };
  const std::function<bool()> poll = [&] {
    harvest(false);
    return harvested == mix.size();
  };

  const double t0 = clock.now_s();
  for (std::size_t i = 0; i < mix.size(); ++i) {
    // Generate before the pacing wait: the generation cost overlaps the
    // idle gap instead of skewing the offered inter-arrival times. The
    // submit callback runs after it — a routing decision must see the
    // shard loads of the submission instant, not of one gap earlier.
    ServeRequest req = materialise_request(
        mix[i], mix[i].dry ? no_shape : shapes.at(mix[i].model));
    if (!arrivals.empty()) {
      // Absolute target off the single origin t0: a submission that runs
      // late (slow generation, blocked push) never shifts the rest of the
      // schedule — later requests fire at their own t0 + arrivals[j], and
      // sleep_until past deadlines returns immediately.
      const double due = t0 + arrivals[i];
      if (wait) {
        wait(due, poll);
      } else {
        clock.sleep_until(due);
      }
    }
    futures[i] = submit(std::move(req), i);
    submitted = i + 1;
    harvest(false);
  }
  if (wait) wait(std::numeric_limits<double>::infinity(), poll);
  harvest(true);
  *wall_s = clock.now_s() - t0;
  return outcomes;
}

ServingCluster::ServingCluster(std::vector<gpusim::DeviceSpec> devices,
                               ClusterOptions opt)
    : opt_(std::move(opt)),
      clock_(opt_.engine.clock ? opt_.engine.clock
                               : std::make_shared<SteadyClock>()),
      router_(make_router(opt_.router)) {
  FCM_CHECK(!devices.empty(), "ServingCluster: device list must be non-empty");
  FCM_CHECK(opt_.autoscale.max_shards == 0 ||
                opt_.autoscale.max_shards >= devices.size(),
            "ServingCluster: autoscale.max_shards must be 0 (off) or >= the "
            "device-list size");
  FCM_CHECK(opt_.autoscale.max_shards == 0 ||
                opt_.autoscale.scale_down_load_s < opt_.autoscale.scale_up_load_s,
            "ServingCluster: autoscale.scale_down_load_s must be below "
            "scale_up_load_s (the hysteresis band)");
  const bool elastic = opt_.autoscale.max_shards > 0;
  // Without autoscaling every listed device stays in service; with it the
  // loop may drain the fleet down to one shard and grow it to max_shards.
  min_serving_ = elastic ? 1 : devices.size();
  serving_ = devices.size();
  active_ = devices.size();
  const std::size_t total =
      elastic ? std::max(opt_.autoscale.max_shards, devices.size())
              : devices.size();
  // Reserve shards beyond the device list clone the last listed device.
  const gpusim::DeviceSpec reserve_dev = devices.back();
  EngineOptions eopt = opt_.engine;
  eopt.clock = clock_;  // one timeline across every shard
  shards_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    // Each shard labels its metrics and trace lanes with its index.
    eopt.shard = static_cast<int>(i);
    shards_.push_back(std::make_unique<InferenceEngine>(
        i < devices.size() ? std::move(devices[i]) : reserve_dev, eopt));
  }
  routed_.assign(shards_.size(), 0);
  pending_routes_.assign(shards_.size(), 0);
  pending_seconds_.assign(shards_.size(), 0.0);

  auto& reg = obs::MetricsRegistry::global();
  auto& routed_fam = reg.counter_family(
      "fcm_routed_total", "Requests the router sent to each shard",
      {"shard", "policy"});
  auto& load_fam = reg.gauge_family(
      "fcm_shard_load",
      "Shard load gauge (queued + in-flight) sampled at routing decisions",
      {"shard"});
  auto& load_s_fam = reg.gauge_family(
      "fcm_shard_load_seconds",
      "Shard predicted-seconds-of-work gauge sampled at routing decisions",
      {"shard"});
  const std::string policy = router_policy_name(opt_.router);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string shard = std::to_string(i);
    m_routed_.push_back(&routed_fam.with({shard, policy}));
    m_load_.push_back(&load_fam.with({shard}));
    m_load_seconds_.push_back(&load_s_fam.with({shard}));
  }
  m_scale_ups_ = &reg.counter_family(
                        "fcm_cluster_scale_ups_total",
                        "Autoscaler shard activations", {"policy"})
                      .with({policy});
  m_scale_downs_ = &reg.counter_family(
                          "fcm_cluster_scale_downs_total",
                          "Autoscaler shard drains", {"policy"})
                        .with({policy});
  m_serving_ = &reg.gauge_family("fcm_cluster_serving_shards",
                                 "Shards currently accepting new work", {})
                    .get();
  if (obs::enabled()) m_serving_->set(static_cast<double>(serving_));
}

void ServingCluster::autoscale_locked(const std::vector<ShardState>& states,
                                      double now_s) {
  if (opt_.autoscale.max_shards == 0) return;
  // Decommission drained shards first: a drainer whose gauge hit zero has
  // resolved every request it will ever see, so it leaves the active set
  // (top-down — the draining suffix stays contiguous).
  while (active_ > serving_ && states[active_ - 1].load == 0) {
    --active_;
  }
  const bool cooled = now_s - last_scale_s_ >= opt_.autoscale.cooldown_s;
  if (!cooled) return;
  double total_s = 0.0;
  for (std::size_t i = 0; i < serving_; ++i) {
    total_s += states[i].load_seconds;
  }
  const auto per_shard = [&](std::size_t n) {
    return total_s / static_cast<double>(n);
  };
  if (serving_ < opt_.autoscale.max_shards &&
      per_shard(serving_) > opt_.autoscale.scale_up_load_s) {
    // Reclaim the nearest draining shard (its backlog counts as capacity
    // already paid for) before activating a pristine one.
    ++serving_;
    active_ = std::max(active_, serving_);
    ++scale_ups_;
    last_scale_s_ = now_s;
    if (obs::enabled()) {
      m_scale_ups_->inc();
      m_serving_->set(static_cast<double>(serving_));
    }
  } else if (serving_ > min_serving_ &&
             per_shard(serving_ - 1) < opt_.autoscale.scale_down_load_s) {
    // The top serving shard stops taking new work and drains out.
    --serving_;
    ++scale_downs_;
    last_scale_s_ = now_s;
    if (obs::enabled()) {
      m_scale_downs_->inc();
      m_serving_->set(static_cast<double>(serving_));
    }
  }
}

ServingCluster::RouteTicket ServingCluster::begin_route(
    const ServeRequest& req) {
  // Shard gauges are gathered outside the routing lock (each shard's gauges
  // are internally consistent under its own queue mutex; no shard mutex may
  // be taken under route_mu_). They go stale the moment they are read —
  // the pending folds below correct for every route that has been decided
  // but not yet enqueued, so concurrent routes cannot dogpile one shard.
  const double now_s = clock_->now_s();
  const std::size_t n = shards_.size();
  std::vector<ShardState> states(n);
  const bool obs_on = obs::enabled();
  const int batch = std::max(1, req.batch());
  for (std::size_t i = 0; i < n; ++i) {
    states[i].index = i;
    states[i].load = shards_[i]->load();
    states[i].load_seconds = shards_[i]->load_seconds();
    // Memo-only pricing: a forcing predict here would cold-plan the model
    // on every shard per pick.
    states[i].est_cost_s =
        shards_[i]
            ->try_predict_cost_s(req.model, req.dtype, batch)
            .value_or(0.0);
  }
  MutexLock lk(route_mu_);
  for (std::size_t i = 0; i < n; ++i) {
    states[i].load += static_cast<std::size_t>(pending_routes_[i]);
    states[i].load_seconds += pending_seconds_[i];
    states[i].routed = routed_[i];
    if (obs_on) {
      m_load_[i]->set(static_cast<double>(states[i].load));
      m_load_seconds_[i]->set(states[i].load_seconds);
    }
  }
  autoscale_locked(states, now_s);
  // Only the serving prefix is routable; drainers and idle reserves are
  // invisible to the router.
  states.resize(serving_);
  const std::size_t shard = router_->pick(states);
  RouteTicket ticket;
  ticket.shard = shard;
  ticket.est_cost_s = states[shard].est_cost_s;
  ++routed_[shard];
  ++pending_routes_[shard];
  pending_seconds_[shard] += ticket.est_cost_s;
  if (obs_on) m_routed_[shard]->inc();
  return ticket;
}

void ServingCluster::end_route(const RouteTicket& ticket) {
  MutexLock lk(route_mu_);
  if (pending_routes_[ticket.shard] > 0) --pending_routes_[ticket.shard];
  pending_seconds_[ticket.shard] -= ticket.est_cost_s;
  if (pending_seconds_[ticket.shard] < 0.0 ||
      pending_routes_[ticket.shard] == 0) {
    pending_seconds_[ticket.shard] = 0.0;  // absorb float-cancellation dust
  }
}

ServeResponse ServingCluster::submit(const ServeRequest& req) {
  const RouteTicket ticket = begin_route(req);
  // The pending fold stands in for the whole synchronous execution: sync
  // submits bypass the shard's queue, so without it they would be invisible
  // to every concurrent routing decision.
  ServeResponse resp;
  try {
    resp = shards_[ticket.shard]->submit(req);
  } catch (...) {
    end_route(ticket);
    throw;
  }
  end_route(ticket);
  return resp;
}

std::future<ServeResponse> ServingCluster::submit_async(ServeRequest req) {
  std::size_t shard = 0;
  return submit_routed(std::move(req), &shard);
}

std::future<ServeResponse> ServingCluster::submit_routed(ServeRequest req,
                                                         std::size_t* shard) {
  const RouteTicket ticket = begin_route(req);
  *shard = ticket.shard;
  std::future<ServeResponse> fut;
  try {
    // submit_async stamps req.cost_s (forcing predict) and enqueues: once
    // it returns, the shard's own gauges carry the request and the pending
    // reservation can lift.
    fut = shards_[ticket.shard]->submit_async(std::move(req));
  } catch (...) {
    end_route(ticket);
    throw;
  }
  end_route(ticket);
  return fut;
}

double ServingCluster::next_wakeup_s() {
  double next = std::numeric_limits<double>::infinity();
  for (auto& shard : shards_) next = std::min(next, shard->next_wakeup_s());
  return next;
}

bool ServingCluster::settled() {
  for (auto& shard : shards_) {
    if (!shard->settled()) return false;
  }
  return true;
}

std::vector<std::int64_t> ServingCluster::routed() const {
  MutexLock lk(route_mu_);
  return routed_;
}

std::size_t ServingCluster::serving_shards() const {
  MutexLock lk(route_mu_);
  return serving_;
}

std::int64_t ServingCluster::scale_ups() const {
  MutexLock lk(route_mu_);
  return scale_ups_;
}

std::int64_t ServingCluster::scale_downs() const {
  MutexLock lk(route_mu_);
  return scale_downs_;
}

ServingCluster::ReplayBracket ServingCluster::begin_replay() {
  // Bracket every shard's counters: cache/queue deltas and a fresh depth
  // watermark.
  const std::size_t n_shards = shards_.size();
  ReplayBracket bracket;
  bracket.cache_before.resize(n_shards);
  bracket.queue_before.resize(n_shards);
  bracket.routed_before = routed();
  bracket.scale_ups_before = scale_ups();
  bracket.scale_downs_before = scale_downs();
  for (std::size_t s = 0; s < n_shards; ++s) {
    bracket.cache_before[s] = shards_[s]->plan_cache().stats();
    bracket.queue_before[s] = shards_[s]->queue_stats();
    shards_[s]->reset_depth_watermark();
  }
  return bracket;
}

ServingReport ServingCluster::finish_replay(
    const ReplayBracket& bracket, const std::vector<ReplayRequest>& mix,
    const std::vector<ReplayOutcome>& outcomes,
    const std::vector<std::size_t>& shard_of, double wall_s) {
  const std::size_t n_shards = shards_.size();
  ServingReport report;
  if (n_shards == 1) {
    report.device = shards_[0]->device().name;
  } else {
    report.device = "cluster[";
    for (std::size_t s = 0; s < n_shards; ++s) {
      report.device += (s > 0 ? "+" : "") + shards_[s]->device().name;
    }
    report.device += "]";
  }
  report.router = router_policy_name(opt_.router);
  report.wall_s = wall_s;
  report.scale_ups = scale_ups() - bracket.scale_ups_before;
  report.scale_downs = scale_downs() - bracket.scale_downs_before;
  report.serving_shards = static_cast<int>(serving_shards());

  const std::vector<std::int64_t> routed_after = routed();
  for (std::size_t s = 0; s < n_shards; ++s) {
    ShardServingStats shard;
    shard.shard = static_cast<int>(s);
    shard.device = shards_[s]->device().name;
    shard.routed =
        static_cast<int>(routed_after[s] - bracket.routed_before[s]);
    shard.queue =
        queue_delta(shards_[s]->queue_stats(), bracket.queue_before[s]);
    shard.queue.max_depth = shards_[s]->depth_watermark();
    cache_accumulate(report.cache,
                     cache_delta(shards_[s]->plan_cache().stats(),
                                 bracket.cache_before[s]));
    queue_accumulate(report.queue, shard.queue);
    report.shards.push_back(std::move(shard));
  }

  for (std::size_t i = 0; i < mix.size(); ++i) {
    accumulate_outcome(report, mix[i], outcomes[i], report.shards[shard_of[i]]);
  }
  return report;
}

ServingReport ServingCluster::replay(const std::vector<ReplayRequest>& mix,
                                     double offered_rps) {
  return replay_scheduled(mix, arrivals_at_rate(mix.size(), offered_rps));
}

ServingReport ServingCluster::replay_scheduled(
    const std::vector<ReplayRequest>& mix, const std::vector<double>& arrivals,
    const ReplayWait& wait) {
  const ReplayBracket bracket = begin_replay();
  std::vector<std::size_t> shard_of(mix.size(), 0);
  double wall_s = 0.0;
  const std::vector<ReplayOutcome> outcomes = drive_replay_scheduled(
      mix, arrivals, *clock_,
      [&](ServeRequest req, std::size_t i) {
        return submit_routed(std::move(req), &shard_of[i]);
      },
      &wall_s, wait);
  return finish_replay(bracket, mix, outcomes, shard_of, wall_s);
}

}  // namespace fcm::serving
