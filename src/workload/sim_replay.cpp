#include "workload/sim_replay.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "models/model_zoo.hpp"

namespace fcm::workload {

std::string SimSummary::str() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu requests: %.1f virtual s in %.2f wall s (%.1fx "
                "fast-forward)",
                requests, virtual_s, wall_s, fast_forward_x());
  return buf;
}

serving::ServingReport sim_replay(serving::ServingCluster& cluster,
                                  const std::shared_ptr<ManualClock>& clock,
                                  const Trace& trace, const SimOptions& opt,
                                  SimSummary* summary) {
  FCM_CHECK(clock != nullptr, "sim_replay: clock must be non-null");
  FCM_CHECK(&cluster.clock() == clock.get(),
            "sim_replay: the cluster must run on the provided ManualClock "
            "(inject it via EngineOptions::clock)");
  const serving::EngineOptions& eopt = cluster.options().engine;
  FCM_CHECK(eopt.sim_dilation == 0.0 ||
                (eopt.virtual_hold &&
                 eopt.scheduler.policy == serving::AdmissionPolicy::kReject),
            "sim_replay: sim_dilation needs EngineOptions::virtual_hold and "
            "the kReject admission policy — virtual holds under kBlock park "
            "the driver on a full queue while every worker waits for the "
            "driver to advance time");
  validate_trace(trace);

  const std::vector<serving::InferenceEngine::Request> mix =
      trace_mix(trace, /*dry=*/!opt.functional);
  const std::vector<double> arrivals = trace_arrivals(trace);
  const std::size_t n = mix.size();

  // Functional replays need each model's input shape; dry replays carry no
  // tensors at all.
  std::unordered_map<std::string, FmShape> shapes;
  const FmShape no_shape{};
  if (opt.functional) {
    for (const auto& q : mix) {
      if (shapes.find(q.model) == shapes.end()) {
        shapes.emplace(
            q.model, models::model_by_name(q.model).layers.front().ifm_shape());
      }
    }
  }

  std::vector<std::future<serving::ServeResponse>> futures(n);
  std::vector<serving::ReplayOutcome> outcomes(n);
  std::vector<std::size_t> shard_of(n, 0);
  std::size_t submitted = 0, harvested = 0;
  auto harvest = [&](bool drain_all) {
    while (harvested < submitted) {
      auto& f = futures[harvested];
      if (!drain_all &&
          f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        break;
      }
      const serving::ServeResponse resp = f.get();
      outcomes[harvested] = serving::ReplayOutcome{
          resp.status, resp.latency_s, resp.sim_time_s, resp.gma_bytes};
      ++harvested;
    }
  };

  // One virtual-time step: with the cluster settled, move the clock to the
  // earliest pending wakeup (bounded by `target`). Returns false when
  // nothing could move yet (unsettled, a due wakeup's waiter has not run —
  // re-nudged so it does — or no finite instant to move to) and the caller
  // should yield and retry.
  //
  // settled() and next_wakeup_s() are separate snapshots, so the wakeup is
  // read on both sides of settled() and time moves only when the two reads
  // agree. A worker woken by the previous set() may still count as parked
  // while settled() runs; its due instant (<= now) shows in the first read
  // unless it already left, and then settled() no longer counts it. A
  // worker that parks in a new hold during settled() shows in the second.
  auto step_clock = [&](double target) {
    const double now = clock->now_s();
    const double wakeup = cluster.next_wakeup_s();
    if (!cluster.settled() || cluster.next_wakeup_s() != wakeup) return false;
    if (wakeup <= now) {
      // A waiter's deadline is due at (or before) the current instant but it
      // has not woken yet; set() re-notifies without moving time.
      clock->set(now);
      return false;
    }
    const double next = std::min(wakeup, target);
    // Settled with nothing pending and no target: outstanding responses are
    // mid-handoff (a worker between set_value and parking). Never move to
    // +inf; the virtual span ends at the last finite event.
    if (!std::isfinite(next)) return false;
    clock->set(next);
    return true;
  };

  serving::ServingCluster::ReplayBracket bracket = cluster.begin_replay();
  const SteadyClock wall;
  const double wall0 = wall.now_s();
  const double t0 = clock->now_s();

  for (std::size_t i = 0; i < n; ++i) {
    serving::ServeRequest req = serving::materialise_request(
        mix[i], opt.functional ? shapes.at(mix[i].model) : no_shape);
    // Advance virtual time to this arrival, stepping through every earlier
    // worker wakeup in order (never past one — a window must close at its
    // own instant, not at the next arrival's).
    const double due = t0 + arrivals[i];
    while (clock->now_s() < due) {
      harvest(false);
      if (!step_clock(due)) std::this_thread::yield();
    }
    futures[i] = cluster.submit_routed(std::move(req), &shard_of[i]);
    submitted = i + 1;
    harvest(false);
  }

  // Drain: keep stepping until every response is harvested. A settled
  // cluster with no pending wakeup and outstanding futures is mid-handoff
  // (a worker between set_value and parking) — step_clock yields there
  // instead of advancing.
  while (harvested < n) {
    harvest(false);
    if (harvested == n) break;
    if (!step_clock(std::numeric_limits<double>::infinity())) {
      std::this_thread::yield();
    }
  }

  const double virtual_s = clock->now_s() - t0;
  if (summary != nullptr) {
    summary->virtual_s = virtual_s;
    summary->wall_s = wall.now_s() - wall0;
    summary->requests = n;
  }
  return cluster.finish_replay(bracket, mix, outcomes, shard_of, virtual_s);
}

}  // namespace fcm::workload
