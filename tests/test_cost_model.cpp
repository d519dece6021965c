// Cost-model tests: the paper's closed-form equations (Eq. 1–4) against the
// operational estimators, plus structural invariants of the estimates.
#include <gtest/gtest.h>

#include <algorithm>

#include "planner/cost_model.hpp"

namespace fcm::planner {
namespace {

TEST(PaperEq, OverlapEq1HandComputed) {
  // 16×16 channel, 8×8 tiles, 3×3 filter, stride 1:
  // (2-1)·(3-1)·16 + (2-1)·(3-1)·16 = 64 overlap elements per channel.
  EXPECT_EQ(paper_eq::overlap(16, 16, 8, 8, 3, 3, 1), 64);
  // Single tile → no overlap.
  EXPECT_EQ(paper_eq::overlap(16, 16, 16, 16, 3, 3, 1), 0);
  // Stride equal to filter width → no overlap.
  EXPECT_EQ(paper_eq::overlap(16, 16, 8, 8, 3, 3, 3), 0);
}

TEST(PaperEq, PwGmaEq2HandComputed) {
  // F=64, C=32, 16×16. tile_f=32, tile 8×8:
  // ⌈64/32⌉·(32·256) + 64·256 + 4·(64·32) = 16384+16384+8192 = 40960.
  const auto pw = LayerSpec::pointwise("pw", 32, 16, 16, 64);
  EXPECT_EQ(paper_eq::pw_gma(pw, {8, 8, 32}), 16384 + 16384 + 8192);
}

TEST(PaperEq, PwGmaMatchesOperationalElements) {
  // For PW (no halo, no padding) the closed form equals the operational
  // count exactly when tiles divide the extents.
  const auto pw = LayerSpec::pointwise("pw", 48, 16, 16, 96);
  const ConvTiling t{8, 8, 32};
  const auto st = pw_stats(pw, t, DType::kF32);
  EXPECT_EQ(st.gma_bytes(), paper_eq::pw_gma(pw, t) * 4);
}

TEST(PaperEq, DwGmaTracksOperationalWithinTolerance) {
  // The closed form ignores boundary clamping; on aligned shapes it should
  // track the operational count within a few percent.
  const auto dw = LayerSpec::depthwise("dw", 32, 32, 32, 3, 1);
  const ConvTiling t{8, 8, 32};
  const auto st = dw_stats(dw, t, DType::kF32);
  const double op = static_cast<double>(st.gma_bytes()) / 4.0;
  const double eq = static_cast<double>(paper_eq::dw_gma(dw, t));
  // Eq. 1/3 charge every overlap strip twice (the paper's 2·D·Overlap
  // convention) while the operational count clamps boundary tiles, so the
  // closed form sits slightly above; it must track within ~15%.
  EXPECT_NEAR(eq / op, 1.0, 0.15);
}

TEST(PaperEq, PwdwGmaTracksOperationalWithinTolerance) {
  const auto pw = LayerSpec::pointwise("pw", 32, 28, 28, 64);
  const auto dw = LayerSpec::depthwise("dw", 64, 28, 28, 3, 1);
  const FcmTiling t{14, 14, 16, 0};
  const auto st = fcm_stats(FcmKind::kPwDwR, pw, dw, t, DType::kF32);
  const double op = static_cast<double>(st.gma_bytes()) / 4.0;
  const double eq = static_cast<double>(paper_eq::pwdw_gma(pw, dw, t));
  EXPECT_NEAR(eq / op, 1.0, 0.10);
}

// Reference loops: walk every tile or output and clamp its window to the
// input, as the kernels do.
std::int64_t ref_sum_taps(int out_total, int k, int s, int pad,
                          int in_total) {
  std::int64_t sum = 0;
  for (int o = 0; o < out_total; ++o) {
    const int lo = o * s - pad;
    for (int t = 0; t < k; ++t) {
      const int i = lo + t;
      if (i >= 0 && i < in_total) ++sum;
    }
  }
  return sum;
}

/// `total` is the reference for sum_in_extents as well.
MidExtents ref_mid_extents(int out_total, int tile, int k, int s, int pad,
                           int mid_total) {
  MidExtents m;
  int idx = 0;
  for (int o0 = 0; o0 < out_total; o0 += tile, ++idx) {
    const int cur = std::min(tile, out_total - o0);
    const int lo = std::max(0, o0 * s - pad);
    const int hi = std::min(mid_total, (o0 + cur - 1) * s - pad + k);
    const int red = idx > 0 ? std::max(0, ((o0 - 1) * s - pad + k) - lo) : 0;
    m.total += hi - lo;
    m.exclusive += (hi - lo) - red;
  }
  return m;
}

TEST(CostModel, ClosedFormExtentSumsMatchReferenceLoops) {
  // Every geometry the zoo uses and more: the input is the extent that
  // yields `out` outputs, or one more or less; tiles run past `out`.
  std::int64_t checked = 0;
  for (int out = 1; out <= 230; ++out) {
    for (int k = 1; k <= 7; ++k) {
      for (int s = 1; s <= 4; ++s) {
        for (int pad = 0; pad <= 3; ++pad) {
          for (int d : {-1, 0, 1}) {
            const int in = (out - 1) * s + k - 2 * pad + d;
            ASSERT_EQ(sum_taps(out, k, s, pad, in),
                      ref_sum_taps(out, k, s, pad, in))
                << "out=" << out << " k=" << k << " s=" << s
                << " pad=" << pad << " in=" << in;
            for (int tile = 1; tile <= out + 8; ++tile) {
              // A plain comparison keeps the 9.5M checks cheap.
              const MidExtents r = ref_mid_extents(out, tile, k, s, pad, in);
              const MidExtents m = mid_extents(out, tile, k, s, pad, in);
              const std::int64_t sum = sum_in_extents(out, tile, k, s, pad, in);
              if (sum != r.total || m.total != r.total ||
                  m.exclusive != r.exclusive) {
                FAIL() << "out=" << out << " tile=" << tile << " k=" << k
                       << " s=" << s << " pad=" << pad << " in=" << in
                       << ": sum_in_extents " << sum << ", mid_extents "
                       << m.total << "/" << m.exclusive << ", reference "
                       << r.total << "/" << r.exclusive;
              }
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 9544080);
}

TEST(CostModel, EpilogueOpsReflectPrecisionAndActivation) {
  auto pw = LayerSpec::pointwise("pw", 8, 8, 8, 8, ActKind::kNone);
  EXPECT_EQ(epilogue_ops_per_element(pw, DType::kF32), 2);
  EXPECT_EQ(epilogue_ops_per_element(pw, DType::kI8), 5);
  pw.act = ActKind::kGELU;
  EXPECT_GT(epilogue_ops_per_element(pw, DType::kF32), 2);
}

TEST(CostModel, Int8TrafficIsQuarterOfF32) {
  const auto pw = LayerSpec::pointwise("pw", 64, 16, 16, 64);
  const ConvTiling t{8, 8, 32};
  const auto f = pw_stats(pw, t, DType::kF32);
  const auto q = pw_stats(pw, t, DType::kI8);
  EXPECT_EQ(f.gma_bytes(), 4 * q.gma_bytes());
}

TEST(CostModel, PwGmaMonotoneInFilterTileSize) {
  // Bigger filter tiles → fewer IFM reloads (weights held fixed per spatial
  // tile) → monotonically less traffic.
  const auto pw = LayerSpec::pointwise("pw", 128, 14, 14, 256);
  std::int64_t prev = -1;
  for (int tf : {32, 64, 128, 256}) {
    const auto st = pw_stats(pw, {14, 14, tf}, DType::kF32);
    if (prev > 0) {
      EXPECT_LT(st.gma_bytes(), prev);
    }
    prev = st.gma_bytes();
  }
}

TEST(CostModel, DwWeightTrafficScalesWithSpatialTiles) {
  const auto dw = LayerSpec::depthwise("dw", 64, 32, 32, 3, 1);
  const auto one = dw_stats(dw, {32, 32, 64}, DType::kF32);
  const auto four = dw_stats(dw, {16, 16, 64}, DType::kF32);
  // Weight loads are once per spatial tile (Eq. 3's last term): subtracting
  // #tiles · weights leaves exactly the IFM traffic.
  const std::int64_t w_bytes = dw.weights_count() * 4;
  const auto ifm_only = [&](const gpusim::KernelStats& st,
                            std::int64_t tiles) {
    return st.global_load_bytes - tiles * w_bytes;
  };
  EXPECT_EQ(ifm_only(one, 1), dw.ifm_count() * 4);   // one tile: no halo
  EXPECT_GT(ifm_only(four, 4), dw.ifm_count() * 4);  // halo present
}

TEST(CostModel, PwpwReadsModuleInputOnce) {
  const auto pw1 = LayerSpec::pointwise("a", 32, 8, 8, 64);
  const auto pw2 = LayerSpec::pointwise("b", 64, 8, 8, 32);
  const auto st = fcm_stats(FcmKind::kPwPw, pw1, pw2, {8, 8, 0, 32},
                            DType::kF32);
  const std::int64_t weights =
      (pw1.weights_count() + pw2.weights_count()) * 4;
  EXPECT_EQ(st.global_load_bytes - weights, pw1.ifm_count() * 4);
}

TEST(CostModel, PwdwIfmReloadScalesWithChannelTiles) {
  const auto pw = LayerSpec::pointwise("a", 32, 14, 14, 64);
  const auto dw = LayerSpec::depthwise("b", 64, 14, 14, 3, 1);
  const auto full = fcm_stats(FcmKind::kPwDw, pw, dw, {14, 14, 64, 0},
                              DType::kF32);
  const auto half = fcm_stats(FcmKind::kPwDw, pw, dw, {14, 14, 32, 0},
                              DType::kF32);
  // Eq. 4: PW IFM traffic multiplies by the channel-tile split factor.
  const std::int64_t weights =
      (pw.weights_count() + dw.weights_count()) * 4;
  EXPECT_EQ(full.global_load_bytes - weights, pw.ifm_count() * 4);
  EXPECT_EQ(half.global_load_bytes - weights, 2 * pw.ifm_count() * 4);
}

TEST(CostModel, StandardConvHasHigherIntensityThanDsc) {
  // The motivation (Fig. 1): DSC cuts ops ~9× but moves more FM bytes.
  const auto conv = LayerSpec::standard("c", 64, 56, 56, 128, 3, 1);
  const auto dw = LayerSpec::depthwise("d", 64, 56, 56, 3, 1);
  const auto pw = LayerSpec::pointwise("p", 64, 56, 56, 128);
  const std::int64_t std_macs = conv.macs();
  const std::int64_t dsc_macs = dw.macs() + pw.macs();
  EXPECT_GT(std_macs, 8 * dsc_macs);
  // Feature-map footprint: DSC adds an intermediate FM.
  const std::int64_t std_fm = conv.ifm_count() + conv.ofm_count();
  const std::int64_t dsc_fm =
      dw.ifm_count() + dw.ofm_count() + pw.ofm_count();
  EXPECT_GT(dsc_fm, std_fm);
}

}  // namespace
}  // namespace fcm::planner
