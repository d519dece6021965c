// FusePlanner (paper §IV, Fig. 5).
//
// Given a model graph and a GPU spec, FusePlanner:
//   1. estimates each layer's minimum-GMA layer-by-layer implementation
//      (LBL estimator pass),
//   2. examines every fusable consecutive pair and estimates the best FCM
//      implementation (FCM estimator pass),
//   3. suggests fusing exactly when the FCM's minimum GMA undercuts the sum
//      of its constituent layers' LBL minimums, and emits the winning tile
//      sizes for every step.
#pragma once

#include <optional>

#include "gpusim/device_spec.hpp"
#include "layers/model_graph.hpp"
#include "planner/plan.hpp"
#include "planner/tile_search.hpp"

namespace fcm::planner {

/// Decision for one candidate pair of consecutive layers.
struct PairDecision {
  /// Best layer-by-layer implementations of the two layers.
  LblChoice lbl_first;
  LblChoice lbl_second;
  /// Best fused implementation, if any tiling was feasible.
  std::optional<FcmChoice> fcm;

  /// True when the planner recommends the FCM (fused GMA < summed LBL GMA).
  bool fuse() const {
    return fcm.has_value() &&
           fcm->stats.gma_bytes() <
               lbl_first.stats.gma_bytes() + lbl_second.stats.gma_bytes();
  }

  std::int64_t lbl_gma() const {
    return lbl_first.stats.gma_bytes() + lbl_second.stats.gma_bytes();
  }
};

/// Evaluate one pair in isolation (the paper's fine-grained "fusion case"
/// experiments, Table II / Fig. 6-9). Throws when either layer has no
/// feasible LBL tiling on `dev`.
PairDecision plan_pair(const gpusim::DeviceSpec& dev, const LayerSpec& first,
                       const LayerSpec& second, DType dt);

/// Planner options. `enable_triple` additionally considers fusing whole
/// PW-DW-PW inverted-residual triples into one kernel (library extension
/// beyond the paper's two-conv FCMs).
struct PlanOptions {
  bool enable_triple = false;

  /// Member-wise equality — serving/PlanCache keys include the options. A
  /// field added here is picked up by the in-memory key automatically (this
  /// defaulted operator); PlanKeyHash and PlanKey::slug() in
  /// serving/plan_cache must be extended by hand so hashing and the on-disk
  /// file name distinguish it too.
  friend bool operator==(const PlanOptions&, const PlanOptions&) = default;
};

/// Plan a whole model. Examines every legal fusion (paper §IV: FusePlanner
/// "examines all the possible fusions") and picks the segmentation of the
/// layer chain into LBL steps, fused pairs and (optionally) fused triples
/// that minimises total global memory accesses, via dynamic programming over
/// the chain.
Plan plan_model(const gpusim::DeviceSpec& dev, const ModelGraph& model,
                DType dt, const PlanOptions& options = {});

/// Greedy left-to-right variant (fuse any pair that locally beats LBL);
/// kept for the planner ablation — plan_model() never does worse.
Plan plan_model_greedy(const gpusim::DeviceSpec& dev, const ModelGraph& model,
                       DType dt);

/// Plan a whole model with fusion disabled (pure LBL with planner-optimised
/// tilings) — the paper's custom LBL baseline.
Plan plan_model_lbl(const gpusim::DeviceSpec& dev, const ModelGraph& model,
                    DType dt);

/// True when the two consecutive layers may be fused at all: both DW/PW
/// kinds, shapes chain, and (for model context) the intermediate is not
/// consumed by a residual edge.
bool pair_fusable(const LayerSpec& first, const LayerSpec& second);

/// plan_model's rule for fusing layers i, i+1 of `model`: pair_fusable, both
/// layers allow fusion, and layer i neither feeds nor receives a residual.
bool model_pair_fusable(const ModelGraph& model, int i);

/// plan_model's rule for fusing layers i..i+2 of `model` into one PWDWPW
/// module: PW-DW-PW kinds that chain, all three allow fusion, and neither
/// intermediate (layers i, i+1) feeds or receives a residual.
bool model_triple_fusable(const ModelGraph& model, int i);

}  // namespace fcm::planner
