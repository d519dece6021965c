#include "planner/tile_search.hpp"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.hpp"
#include "planner/cost_model.hpp"

namespace fcm::planner {

namespace {

std::atomic<std::int64_t> g_candidates_evaluated{0};

std::int64_t lbl_l1(const LayerSpec& spec, const ConvTiling& t, DType dt) {
  switch (spec.kind) {
    case ConvKind::kPointwise: return pw_l1_bytes(spec, t, dt);
    case ConvKind::kDepthwise: return dw_l1_bytes(spec, t, dt);
    case ConvKind::kStandard: return std_l1_bytes(spec, t, dt);
  }
  throw Error("lbl_l1: bad kind");
}

/// Exact feasibility (paper Eq. 2–4 constraints) from already-computed
/// stats.
bool feasible(const gpusim::DeviceSpec& dev, std::int64_t l1,
              const gpusim::KernelStats& st) {
  if (l1 > dev.l1_bytes) return false;
  if (st.shared_bytes_per_block > dev.max_shared_bytes) return false;
  if (st.num_blocks < dev.num_sms) return false;
  return true;
}

/// The planner's order over exact candidates: fewer GMA bytes, then fewer
/// blocks.
bool better(const gpusim::KernelStats& a, const gpusim::KernelStats& b) {
  if (a.gma_bytes() != b.gma_bytes()) return a.gma_bytes() < b.gma_bytes();
  return a.num_blocks < b.num_blocks;
}

/// Score every candidate exactly on the global pool, one slot per
/// candidate, and pick the winner by better(). The final serial scan visits
/// slots in enumeration order and replaces on strictly-better, so the result
/// is bit-identical regardless of worker count or scheduling.
template <typename Candidate, typename Choice, typename Exact>
std::optional<Choice> search_candidates(const std::vector<Candidate>& cands,
                                        const Exact& exact) {
  g_candidates_evaluated.fetch_add(static_cast<std::int64_t>(cands.size()),
                                   std::memory_order_relaxed);

  std::vector<std::optional<Choice>> slot(cands.size());
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(cands.size()), [&](std::int64_t i) {
        slot[static_cast<std::size_t>(i)] =
            exact(cands[static_cast<std::size_t>(i)]);
      });
  std::optional<Choice> best;
  for (auto& s : slot) {
    if (s.has_value() && (!best || better(s->stats, best->stats))) {
      best = std::move(*s);
    }
  }
  return best;
}

}  // namespace

std::int64_t candidates_evaluated() {
  return g_candidates_evaluated.load(std::memory_order_relaxed);
}

void reset_candidates_evaluated() {
  g_candidates_evaluated.store(0, std::memory_order_relaxed);
}

std::vector<int> spatial_tile_candidates(int extent) {
  std::vector<int> out;
  for (int v = 1; v < extent; v *= 2) out.push_back(v);
  // Even splits of the extent (half, quarter) so non-power-of-two maps like
  // 14×14 can tile exactly (7×7 quadrants).
  for (int d : {2, 4}) {
    const int v = static_cast<int>(ceil_div(extent, d));
    if (v >= 1 && v < extent) out.push_back(v);
  }
  out.push_back(extent);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int> channel_tile_candidates(int extent, bool warp_multiples_only) {
  std::vector<int> out;
  if (warp_multiples_only) {
    // Warp multiples, plus the sub-warp fallbacks 8/16: wide layers
    // (tile_f × in_c weight tiles) may not fit a full warp-sized filter tile
    // in L1 — a 32×1024 FP32 tile alone is 128 KB.
    for (int v : {8, 16}) {
      if (v < extent) out.push_back(v);
    }
    for (int v = kWarpSize; v < extent; v += kWarpSize) out.push_back(v);
  } else {
    for (int v = 1; v < extent; v *= 2) out.push_back(v);
  }
  if (out.empty() || out.back() != extent) out.push_back(extent);
  return out;
}

std::optional<LblChoice> best_lbl_tiling(const gpusim::DeviceSpec& dev,
                                         const LayerSpec& spec, DType dt) {
  // Filter tiles: warp multiples for PW/standard (a warp computes one output
  // channel column), power-of-two channel groups for DW (channel count need
  // not be warp-aligned since each channel is independent).
  const bool warp_only = spec.kind != ConvKind::kDepthwise;
  const auto f_cands = channel_tile_candidates(spec.out_c, warp_only);
  const auto h_cands = spatial_tile_candidates(spec.out_h());
  const auto w_cands = spatial_tile_candidates(spec.out_w());
  std::vector<ConvTiling> cands;
  cands.reserve(f_cands.size() * h_cands.size() * w_cands.size());
  for (int tf : f_cands) {
    for (int th : h_cands) {
      for (int tw : w_cands) cands.push_back(ConvTiling{th, tw, tf});
    }
  }

  return search_candidates<ConvTiling, LblChoice>(
      cands, [&](const ConvTiling& t) -> std::optional<LblChoice> {
        const auto st = lbl_stats(spec, t, dt);
        if (!feasible(dev, lbl_l1(spec, t, dt), st)) return std::nullopt;
        return LblChoice{t, st};
      });
}

namespace {

/// One fused-tiling candidate; `kind` matters for the PWDW/PWDW_R split.
struct FcmCandidate {
  FcmKind kind;
  FcmTiling tiling;
};

}  // namespace

std::optional<FcmChoice> best_fcm_tiling(const gpusim::DeviceSpec& dev,
                                         FcmKind kind, const LayerSpec& first,
                                         const LayerSpec& second, DType dt) {
  const int H = second.out_h();
  const int W = second.out_w();
  const auto h_cands = spatial_tile_candidates(H);
  const auto w_cands = spatial_tile_candidates(W);
  std::vector<FcmCandidate> cands;

  switch (kind) {
    case FcmKind::kDwPw: {
      const auto f_cands = channel_tile_candidates(second.out_c, true);
      for (int th : h_cands) {
        for (int tw : w_cands) {
          for (int cf : f_cands) {
            cands.push_back(
                {kind, FcmTiling{th, tw, /*tile_c=*/0, /*chunk_f=*/cf}});
          }
        }
      }
      break;
    }
    case FcmKind::kPwDw:
    case FcmKind::kPwDwR: {
      const auto c_cands = channel_tile_candidates(first.out_c, false);
      // Redundancy-free variant: full spatial extent per block.
      for (int tc : c_cands) {
        cands.push_back({FcmKind::kPwDw, FcmTiling{H, W, tc, 0}});
      }
      // PWDW_R: spatial tiling with halo recompute.
      for (int th : h_cands) {
        for (int tw : w_cands) {
          if (th == H && tw == W) continue;  // covered above
          for (int tc : c_cands) {
            cands.push_back({FcmKind::kPwDwR, FcmTiling{th, tw, tc, 0}});
          }
        }
      }
      break;
    }
    case FcmKind::kPwPw: {
      const auto f_cands = channel_tile_candidates(
          std::max(first.out_c, second.out_c), true);
      for (int th : h_cands) {
        for (int tw : w_cands) {
          for (int cf : f_cands) {
            cands.push_back({kind, FcmTiling{th, tw, 0, cf}});
          }
        }
      }
      break;
    }
    case FcmKind::kPwDwPw:
      throw Error("best_fcm_tiling: use best_pwdwpw_tiling for triples");
  }

  return search_candidates<FcmCandidate, FcmChoice>(
      cands, [&](const FcmCandidate& c) -> std::optional<FcmChoice> {
        const std::int64_t l1 =
            fcm_l1_bytes(c.kind, first, second, c.tiling, dt);
        if (l1 > dev.l1_bytes) return std::nullopt;
        const auto st = fcm_stats(c.kind, first, second, c.tiling, dt);
        if (!feasible(dev, l1, st)) return std::nullopt;
        return FcmChoice{c.kind, c.tiling, st};
      });
}

std::optional<Fcm3Choice> best_pwdwpw_tiling(const gpusim::DeviceSpec& dev,
                                             const LayerSpec& pw1,
                                             const LayerSpec& dw,
                                             const LayerSpec& pw2, DType dt) {
  const int H = pw2.out_h();
  const int W = pw2.out_w();
  const auto f_cands =
      channel_tile_candidates(std::max(pw1.out_c, pw2.out_c), true);
  std::vector<FcmTiling> cands;
  for (int th : spatial_tile_candidates(H)) {
    for (int tw : spatial_tile_candidates(W)) {
      for (int cf : f_cands) cands.push_back(FcmTiling{th, tw, 0, cf});
    }
  }

  return search_candidates<FcmTiling, Fcm3Choice>(
      cands, [&](const FcmTiling& t) -> std::optional<Fcm3Choice> {
        const std::int64_t l1 = pwdwpw_l1_bytes(pw1, dw, pw2, t, dt);
        if (l1 > dev.l1_bytes) return std::nullopt;
        const auto st = pwdwpw_stats(pw1, dw, pw2, t, dt);
        if (!feasible(dev, l1, st)) return std::nullopt;
        return Fcm3Choice{t, st};
      });
}

}  // namespace fcm::planner
