// Shared helpers for the paper scorecard and the L2 ablation.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/roofline.hpp"
#include "models/fusion_cases.hpp"
#include "planner/fuse_planner.hpp"

namespace fcm::bench {

/// Roofline time of a kernel-stats profile.
inline double time_of(const gpusim::DeviceSpec& dev,
                      const gpusim::KernelStats& st) {
  return gpusim::estimate_time(dev, st).total_s;
}

/// Pair decision + the FCM/LBL speedup (1.0 when the planner declines to
/// fuse — the paper reports what its suggested implementation achieves, and
/// a declined fusion runs LBL).
struct CaseResult {
  planner::PairDecision decision;
  double lbl_time = 0.0;
  double impl_time = 0.0;  ///< time of the planner-suggested implementation
  bool fused = false;
  double speedup() const { return lbl_time / impl_time; }
};

inline CaseResult eval_case(const gpusim::DeviceSpec& dev,
                            const models::FusionCase& c, DType dt) {
  CaseResult r;
  r.decision = planner::plan_pair(dev, c.first, c.second, dt);
  r.lbl_time = time_of(dev, r.decision.lbl_first.stats) +
               time_of(dev, r.decision.lbl_second.stats);
  r.fused = r.decision.fuse();
  r.impl_time = r.fused ? time_of(dev, r.decision.fcm->stats) : r.lbl_time;
  return r;
}

/// Evaluate the full case × device grid in parallel; result[c][d] is
/// cases[c] on devs[d]. One flat parallel_for keeps all cores busy even when
/// one device/case dominates; each worker writes only its own slot, so the
/// result is independent of the worker count.
inline std::vector<std::vector<CaseResult>> eval_case_grid(
    const std::vector<gpusim::DeviceSpec>& devs,
    const std::vector<models::FusionCase>& cases, DType dt) {
  std::vector<std::vector<CaseResult>> out(
      cases.size(), std::vector<CaseResult>(devs.size()));
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(cases.size() * devs.size()),
      [&](std::int64_t i) {
        const std::size_t c = static_cast<std::size_t>(i) / devs.size();
        const std::size_t d = static_cast<std::size_t>(i) % devs.size();
        out[c][d] = eval_case(devs[d], cases[c], dt);
      });
  return out;
}

inline void print_header(const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
}

}  // namespace fcm::bench
