// Pluggable candidate-ranking seam for FusePlanner (ROADMAP: "learned/
// calibrated cost model closing the autotuning loop").
//
// The tile search scores every feasible candidate through a CostModel. The
// analytical model ranks by predicted GMA bytes — exactly the paper's §IV
// objective, and byte-for-byte the planner's historical behaviour. A
// calibrated model (fitted offline by src/autotune over logged
// (features, executed sim seconds) pairs — the Halide-autoscheduler
// architecture) ranks by predicted *seconds* instead, correcting the
// analytical estimate with learned per-feature weights. The interface lives
// in the planner so src/autotune can implement it without the planner ever
// depending on autotune.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_stats.hpp"
#include "kernels/tiling.hpp"
#include "layers/layer_spec.hpp"

namespace fcm::planner {

/// Which CostModel a plan is ranked by. Part of PlanOptions, so plan-cache
/// keys (hash + slug) distinguish analytical and calibrated plans.
enum class CostModelKind : std::uint8_t { kAnalytical, kCalibrated };

const char* cost_model_kind_name(CostModelKind k);

/// Cheap per-candidate context that KernelStats alone cannot express —
/// inputs to the featurizer alongside the stats themselves.
struct CandidateContext {
  /// Working set over the device's L1 capacity (<= 1 for feasible tiles).
  double l1_fraction = 0.0;
  /// Fraction of filter-tap positions landing in zero padding (a tiling-
  /// independent property of the layer; 0 for unpadded/pointwise layers).
  double padding_fraction = 0.0;
  /// Fraction of grid blocks that are partial (boundary) tiles.
  double boundary_fraction = 0.0;
};

/// Ranks tile/fusion candidates. Lower score wins; `better` is the planner's
/// total order (exposed so ties break identically everywhere).
class CostModel {
 public:
  virtual ~CostModel() = default;

  virtual const char* name() const = 0;

  /// Predicted cost of executing one kernel with these stats (analytical:
  /// GMA bytes; calibrated: seconds). Lower is better.
  virtual double score(const gpusim::DeviceSpec& dev,
                       const gpusim::KernelStats& stats,
                       const CandidateContext& ctx) const = 0;

  /// Strict-weak order over candidates: score first, then the analytical
  /// tie-break (GMA bytes, then fewer blocks) so equal-scored candidates
  /// resolve deterministically.
  virtual bool better(const gpusim::DeviceSpec& dev,
                      const gpusim::KernelStats& a, const CandidateContext& actx,
                      const gpusim::KernelStats& b,
                      const CandidateContext& bctx) const;
};

/// The paper's analytical model: score = GMA bytes. With it, tile search and
/// DP reproduce the historical planner bit-for-bit.
const CostModel& analytical_cost_model();

/// Process-wide calibrated-model registry. plan_model resolves
/// CostModelKind::kCalibrated through this; planning with kCalibrated while
/// no model is installed throws fcm::Error (a silent analytical fallback
/// would poison cache keys). Thread-safe.
void set_calibrated_cost_model(std::shared_ptr<const CostModel> model);
std::shared_ptr<const CostModel> calibrated_cost_model();

// --- candidate-context derivation -------------------------------------------
// Shared by the tile search (per candidate) and the autotune featurizer (per
// emitted plan step), so logged features and planning-time features agree.

/// Tiling-independent fraction of filter-tap positions landing in padding;
/// hoist it per layer before a candidate loop.
double layer_padding_fraction(const LayerSpec& spec);

/// Fraction of partial (boundary) blocks over the given (extent, tile) grid
/// dimensions; dimensions with tile <= 0 are skipped.
double partial_tile_fraction(
    std::initializer_list<std::pair<int, int>> dims);

CandidateContext lbl_context(const gpusim::DeviceSpec& dev,
                             const LayerSpec& spec, const ConvTiling& t,
                             DType dt);
CandidateContext fcm_context(const gpusim::DeviceSpec& dev, FcmKind kind,
                             const LayerSpec& first, const LayerSpec& second,
                             const FcmTiling& t, DType dt);
CandidateContext pwdwpw_context(const gpusim::DeviceSpec& dev,
                                const LayerSpec& pw1, const LayerSpec& dw,
                                const LayerSpec& pw2, const FcmTiling& t,
                                DType dt);

}  // namespace fcm::planner
