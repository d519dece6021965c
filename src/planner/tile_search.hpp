// Tile-size exploration (paper §IV: "FusePlanner explores all tile sizes
// that meet the constraints in Equations 2, 3, and 4 and identifies the ones
// that minimize the global memory accesses").
//
// Constraints enforced per candidate:
//   1. L1 fit: the block's working set (IFM/OFM tiles, weight tiles,
//      commBuffer) fits in the device's L1, and the shared-memory subset
//      fits in the configurable shared portion.
//   2. Utilisation: the grid has at least #SMs blocks.
// Spatial tiles are drawn from powers of two, and channel/filter tiles from
// warp multiples (the paper's warp-size restriction), with the layer's full
// extent always included as a candidate.
//
// Every candidate is scored with the exact operational stats, and the winner
// is the feasible candidate with the fewest GMA bytes, ties going to fewer
// blocks. candidates_evaluated() counts the scored candidates process-wide.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_stats.hpp"
#include "kernels/tiling.hpp"
#include "layers/layer_spec.hpp"

namespace fcm::planner {

/// A tiling choice with its predicted stats.
struct LblChoice {
  ConvTiling tiling;
  gpusim::KernelStats stats;
};

/// A fused-module choice with its predicted stats. `kind` distinguishes the
/// redundancy-free PWDW (no spatial tiling) from PWDW_R.
struct FcmChoice {
  FcmKind kind = FcmKind::kDwPw;
  FcmTiling tiling;
  gpusim::KernelStats stats;
};

/// Minimum-GMA feasible LBL tiling for one layer; nullopt when no candidate
/// satisfies the constraints on `dev`.
std::optional<LblChoice> best_lbl_tiling(const gpusim::DeviceSpec& dev,
                                         const LayerSpec& spec, DType dt);

/// Minimum-GMA feasible fused tiling for a layer pair of base kind `kind`
/// (pass kPwDw for a PW→DW pair: both the redundancy-free and the _R variant
/// are explored and the winner's actual kind is returned).
std::optional<FcmChoice> best_fcm_tiling(const gpusim::DeviceSpec& dev,
                                         FcmKind kind, const LayerSpec& first,
                                         const LayerSpec& second, DType dt);

/// A PWDWPW triple-module choice (library extension).
struct Fcm3Choice {
  FcmTiling tiling;
  gpusim::KernelStats stats;
};

/// Minimum-GMA feasible tiling for fusing a whole inverted-residual triple.
std::optional<Fcm3Choice> best_pwdwpw_tiling(const gpusim::DeviceSpec& dev,
                                             const LayerSpec& pw1,
                                             const LayerSpec& dw,
                                             const LayerSpec& pw2, DType dt);

/// Candidate generators, exposed for tests and the ablation benches.
std::vector<int> spatial_tile_candidates(int extent);
std::vector<int> channel_tile_candidates(int extent, bool warp_multiples_only);

/// Process-wide count of candidates evaluated with exact operational stats
/// since the last reset. Relaxed atomic — bracket a planning call with
/// reset/read to measure it.
std::int64_t candidates_evaluated();
void reset_candidates_evaluated();

}  // namespace fcm::planner
