#include "workload/sim_replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "common/error.hpp"

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

  // The driver's waits, stepping the virtual clock. Time moves only while
  // the cluster is settled, to the earliest pending wakeup and never past
  // one (a window must close at its own instant, not at the next
  // arrival's). An arrival waits until the cluster is settled at its
  // instant, so a load-based router never reads a gauge that a worker is
  // still changing; the drain (due = +inf) steps until every response is
  // in, and never moves to +inf: the virtual span ends at the last finite
  // event.
  //
  // settled() and next_wakeup_s() are separate snapshots, so the wakeup is
  // read on both sides of settled() and counts only when the two reads
  // agree. A worker woken by the previous set() may still count as parked
  // while settled() runs; its due instant (<= now) shows in the first read
  // unless it already left, and then settled() no longer counts it. A
  // worker that parks in a new hold during settled() shows in the second.
  const serving::ReplayWait wait = [&](double due,
                                       const std::function<bool()>& poll) {
    for (;;) {
      if (poll() && !std::isfinite(due)) return;  // drained
      const double now = clock->now_s();
      const double wakeup = cluster.next_wakeup_s();
      if (cluster.settled() && cluster.next_wakeup_s() == wakeup) {
        if (wakeup <= now) {
          // A waiter's deadline is due but it has not woken yet; set()
          // re-notifies without moving time.
          clock->set(now);
        } else if (now >= due) {
          return;  // settled at the arrival instant
        } else if (std::isfinite(std::min(wakeup, due))) {
          clock->set(std::min(wakeup, due));
          if (due < wakeup) return;  // nothing wakes at the arrival instant
          continue;
        }
        // Else settled with nothing pending while responses are
        // outstanding: they are mid-handoff (a worker between set_value
        // and parking).
      }
      std::this_thread::yield();
    }
  };

  const SteadyClock wall;
  const double wall0 = wall.now_s();
  serving::ServingReport report = cluster.replay_scheduled(
      trace_mix(trace, /*dry=*/!opt.functional), trace_arrivals(trace), wait);
  if (summary != nullptr) {
    summary->virtual_s = report.wall_s;
    summary->wall_s = wall.now_s() - wall0;
    summary->requests = trace.requests.size();
  }
  return report;
}

}  // namespace fcm::workload
