// Virtual-time trace replay: discrete-event simulation over the real
// serving stack.
//
// sim_replay drives a ServingCluster running on a ManualClock through a
// trace event-to-event. It runs the cluster's own replay driver
// (ServingCluster::replay_scheduled) and supplies only the waits: the
// driver thread submits each request when virtual time reaches its arrival
// instant, and between arrivals advances the clock directly to the next
// scheduled event — the next arrival, the next coalescing-window close, or
// the next completion-hold release (EngineOptions::virtual_hold) — skipping
// the idle gaps a real clock would sleep through. A 33-minute 1M-request
// trace replays in seconds of wall time while producing the same
// ServingReport, metrics and request spans a real-clock replay of the same
// schedule would.
//
// Correctness hinges on one invariant: the clock only moves, and a request
// is only routed, while the cluster is settled — every queue worker parked
// (empty-queue wait, open coalescing window, or completion hold) and no
// dispatchable backlog awaiting an idle worker — so no in-flight timestamp
// can straddle a jump and no route reads a gauge mid-change, even when
// several requests arrive at one instant. The waits never call sleep_until
// on the shared ManualClock (that would leap past intermediate wakeups);
// they step set() through each wakeup in order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "serving/cluster.hpp"
#include "workload/trace.hpp"

namespace fcm::workload {

struct SimOptions {
  /// false (default): dry-run replay — no tensors, no kernels, per-request
  /// sim stats from the plan's roofline estimate; the fast path for large
  /// traces. true: full functional execution of every request (bit-exact
  /// outputs machinery, ~10^4x slower per request).
  bool functional = false;
};

/// How far the simulation outran the host.
struct SimSummary {
  /// Virtual span of the replay: first submission to full drain on the
  /// ManualClock, seconds. Finite: the clock stops at the last event.
  double virtual_s = 0.0;
  /// Host wall-clock time the replay took, seconds.
  double wall_s = 0.0;
  std::size_t requests = 0;
  /// The fast-forward ratio (virtual seconds simulated per wall second).
  double fast_forward_x() const {
    return wall_s > 0.0 ? virtual_s / wall_s : 0.0;
  }
  /// "1000000 requests: 2001.3 virtual s in 7.42 wall s (269.7x
  /// fast-forward)"
  std::string str() const;
};

/// Replay `trace` through `cluster` on `clock`, which MUST be the clock the
/// cluster was built on. Requirements checked up front (fcm::Error):
///   - the cluster runs on exactly this ManualClock;
///   - if EngineOptions::sim_dilation > 0, the engines must use
///     virtual_hold and the kReject admission policy — with kBlock a full
///     queue would park the driver thread while every worker waits for the
///     driver to advance time: deadlock by construction.
/// Fills *summary when non-null. The returned report is the cluster's
/// standard replay report over the trace (wall_s holds the VIRTUAL span).
serving::ServingReport sim_replay(serving::ServingCluster& cluster,
                                  const std::shared_ptr<ManualClock>& clock,
                                  const Trace& trace, const SimOptions& opt,
                                  SimSummary* summary);

}  // namespace fcm::workload
