// Property-based sweeps over randomly drawn layer geometries. These are the
// library's core invariants, checked across a much wider slice of the shape
// space than the hand-picked unit tests:
//
//   P1  the operational cost model predicts the functional kernels exactly,
//   P2  INT8 traffic is exactly a quarter of FP32 traffic (same elements),
//   P3  OS dataflow: outputs stored exactly once by every kernel,
//   P4  whenever FusePlanner recommends fusion, the fused traffic really is
//       below the LBL sum (the planner's own criterion, re-verified against
//       the functional kernels rather than its own estimates),
//   P5  fused modules never touch the intermediate in global memory: FCM
//       loads+stores < LBL loads+stores by at least 2× the intermediate.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "gpusim/device_spec.hpp"
#include "kernels/conv_ref.hpp"
#include "kernels/kernel_registry.hpp"
#include "models/fusion_cases.hpp"
#include "planner/cost_model.hpp"
#include "planner/fuse_planner.hpp"

namespace fcm {
namespace {

struct Rng {
  std::uint64_t s;
  int pick(int lo, int hi) {  // inclusive
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return lo + static_cast<int>(s % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

const gpusim::DeviceSpec kDev = gpusim::jetson_orin();

class RandomShapeTest : public testing::TestWithParam<int> {};

TEST_P(RandomShapeTest, P1P2P3_LblKernelsMatchModelAcrossShapes) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17};
  const int c = rng.pick(4, 40);
  const int h = rng.pick(5, 20);
  const int w = rng.pick(5, 20);
  const int f = rng.pick(4, 48);
  const int k = 1 + 2 * rng.pick(0, 2);  // 1, 3, 5
  const int stride = rng.pick(1, 2);
  const ConvTiling t{rng.pick(1, h), rng.pick(1, w), rng.pick(1, f)};

  // Depthwise variant (k >= 3 to be meaningful).
  if (k >= 3) {
    const auto dw = LayerSpec::depthwise("dw", c, h, w, k, stride);
    const ConvTiling tdw{std::min(t.tile_h, dw.out_h()),
                         std::min(t.tile_w, dw.out_w()),
                         std::min(t.tile_f, c)};
    TensorF ifm(dw.ifm_shape());
    fill_uniform(ifm, static_cast<std::uint64_t>(GetParam()));
    WeightsF wt(dw.filter_shape());
    fill_uniform(wt, static_cast<std::uint64_t>(GetParam()) + 1);
    const auto bn = BatchNorm::random(c, 3);
    const EpilogueF32 ep(bn, dw.act);
    TensorF ofm(dw.ofm_shape());
    const auto st = run_dw_f32(kDev, dw, ifm, wt, ep, ofm, tdw);
    const auto pred = planner::dw_stats(dw, tdw, DType::kF32);
    EXPECT_EQ(st.global_load_bytes, pred.global_load_bytes);   // P1
    EXPECT_EQ(st.flops, pred.flops);                           // P1
    EXPECT_EQ(st.global_store_bytes, dw.ofm_count() * 4);      // P3
    const auto pred_i8 = planner::dw_stats(dw, tdw, DType::kI8);
    EXPECT_EQ(pred.gma_bytes(), 4 * pred_i8.gma_bytes());      // P2
    EXPECT_EQ(max_abs_diff(ofm, conv_ref_f32(dw, ifm, wt, ep)), 0.0f);
  }

  // Pointwise variant.
  const auto pw = LayerSpec::pointwise("pw", c, h, w, f);
  TensorF ifm(pw.ifm_shape());
  fill_uniform(ifm, static_cast<std::uint64_t>(GetParam()) + 5);
  WeightsF wt(pw.filter_shape());
  fill_uniform(wt, static_cast<std::uint64_t>(GetParam()) + 6);
  const auto bn = BatchNorm::random(f, 7);
  const EpilogueF32 ep(bn, pw.act);
  TensorF ofm(pw.ofm_shape());
  const auto st = run_pw_f32(kDev, pw, ifm, wt, ep, ofm, t);
  const auto pred = planner::pw_stats(pw, t, DType::kF32);
  EXPECT_EQ(st.global_load_bytes, pred.global_load_bytes);
  EXPECT_EQ(st.flops, pred.flops);
  EXPECT_EQ(st.global_store_bytes, pw.ofm_count() * 4);
  const auto pred_i8 = planner::pw_stats(pw, t, DType::kI8);
  EXPECT_EQ(pred.gma_bytes(), 4 * pred_i8.gma_bytes());
  EXPECT_EQ(max_abs_diff(ofm, conv_ref_f32(pw, ifm, wt, ep)), 0.0f);
}

TEST_P(RandomShapeTest, P1P2_FcmKernelsMatchModelAcrossShapes) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 11400714819323198485ull + 3};
  const int c1 = rng.pick(4, 24);
  const int c2 = rng.pick(8, 48);
  const int h = rng.pick(6, 16);
  const int k = 3;
  const int stride = rng.pick(1, 2);

  const auto pw = LayerSpec::pointwise("a", c1, h, h, c2);
  const auto dw = LayerSpec::depthwise("b", c2, h, h, k, stride);
  const int oh = dw.out_h();
  const FcmTiling t{rng.pick(1, oh), rng.pick(1, oh),
                    rng.pick(1, c2), 0};

  TensorF ifm(pw.ifm_shape());
  fill_uniform(ifm, static_cast<std::uint64_t>(GetParam()) + 11);
  WeightsF w1(pw.filter_shape()), w2(dw.filter_shape());
  fill_uniform(w1, 12, -0.5f, 0.5f);
  fill_uniform(w2, 13, -0.5f, 0.5f);
  const auto bn1 = BatchNorm::random(c2, 14);
  const auto bn2 = BatchNorm::random(c2, 15);
  const EpilogueF32 ep1(bn1, pw.act), ep2(bn2, dw.act);
  TensorF ofm(dw.ofm_shape());
  const auto st = run_pwdw_f32(kDev, pw, dw, ifm, w1, w2, ep1, ep2, ofm, t);
  const auto pred = planner::fcm_stats(FcmKind::kPwDwR, pw, dw, t, DType::kF32);
  EXPECT_EQ(st.global_load_bytes, pred.global_load_bytes);
  EXPECT_EQ(st.flops, pred.flops);
  EXPECT_EQ(st.redundant_flops, pred.redundant_flops);
  const auto pred_i8 = planner::fcm_stats(FcmKind::kPwDwR, pw, dw, t, DType::kI8);
  EXPECT_EQ(pred.gma_bytes(), 4 * pred_i8.gma_bytes());

  const auto mid = conv_ref_f32(pw, ifm, w1, ep1);
  EXPECT_EQ(max_abs_diff(ofm, conv_ref_f32(dw, mid, w2, ep2)), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShapeTest, testing::Range(1, 21));

TEST(FusionProperties, P4_PlannerRecommendationsHoldFunctionally) {
  // For every fusion case the planner recommends on any device, run both the
  // FCM and the two LBL kernels *functionally* at the planner's tilings and
  // confirm the measured traffic agrees with the recommendation.
  const auto dev = gpusim::jetson_orin();
  int verified = 0;
  for (const auto& c : models::fp32_cases()) {
    if (c.first.ifm_count() > 600'000) continue;  // keep functional runs fast
    const auto d = planner::plan_pair(dev, c.first, c.second, DType::kF32);
    if (!d.fuse()) continue;

    TensorF ifm(c.first.ifm_shape());
    fill_uniform(ifm, 1);
    WeightsF w1(c.first.filter_shape()), w2(c.second.filter_shape());
    fill_uniform(w1, 2, -0.2f, 0.2f);
    fill_uniform(w2, 3, -0.2f, 0.2f);
    const auto bn1 = BatchNorm::random(c.first.out_c, 4);
    const auto bn2 = BatchNorm::random(c.second.out_c, 5);
    const EpilogueF32 ep1(bn1, c.first.act), ep2(bn2, c.second.act);

    TensorF mid(c.first.ofm_shape());
    const auto lbl1 = run_lbl_f32(dev, c.first, ifm, w1, ep1, mid,
                                  d.lbl_first.tiling);
    TensorF out_lbl(c.second.ofm_shape());
    const auto lbl2 = run_lbl_f32(dev, c.second, mid, w2, ep2, out_lbl,
                                  d.lbl_second.tiling);
    TensorF out_fcm(c.second.ofm_shape());
    const auto fcm = run_fcm_f32(dev, d.fcm->kind, c.first, c.second, ifm, w1,
                                 w2, ep1, ep2, out_fcm, d.fcm->tiling);
    EXPECT_LT(fcm.gma_bytes(), lbl1.gma_bytes() + lbl2.gma_bytes()) << c.id;
    EXPECT_EQ(max_abs_diff(out_fcm, out_lbl), 0.0f) << c.id;
    ++verified;
  }
  EXPECT_GE(verified, 3);
}

TEST(FusionProperties, P5_IntermediateNeverTouchesGlobalMemory) {
  // Structural: for every FCM kind, the fused stats contain no term scaling
  // with the intermediate size beyond the on-chip (shared) traffic — i.e.
  // doubling only the *output* channels of layer 2 must not change the
  // module's IFM-side traffic.
  const auto dw = LayerSpec::depthwise("a", 16, 16, 16, 3, 1);
  const auto pw_small = LayerSpec::pointwise("b", 16, 16, 16, 32);
  const auto pw_big = LayerSpec::pointwise("b", 16, 16, 16, 64);
  const FcmTiling t{8, 8, 0, 32};
  const auto s_small = planner::fcm_stats(FcmKind::kDwPw, dw, pw_small, t,
                                          DType::kF32);
  const auto s_big =
      planner::fcm_stats(FcmKind::kDwPw, dw, pw_big, t, DType::kF32);
  // Extra traffic is exactly the extra PW weights + extra outputs.
  const std::int64_t extra_w =
      (pw_big.weights_count() - pw_small.weights_count()) * 4 * 4;  // 4 tiles
  const std::int64_t extra_out =
      (pw_big.ofm_count() - pw_small.ofm_count()) * 4;
  EXPECT_EQ(s_big.gma_bytes() - s_small.gma_bytes(), extra_w + extra_out);
}

TEST(FusionProperties, StatsAreDeterministic) {
  // Launch twice (parallel blocks!) — merged stats must be identical.
  const auto pw = LayerSpec::pointwise("pw", 32, 16, 16, 32);
  TensorF ifm(pw.ifm_shape());
  fill_uniform(ifm, 9);
  WeightsF w(pw.filter_shape());
  fill_uniform(w, 10);
  const auto bn = BatchNorm::identity(32);
  const EpilogueF32 ep(bn, ActKind::kReLU);
  TensorF o1(pw.ofm_shape()), o2(pw.ofm_shape());
  const auto a = run_pw_f32(kDev, pw, ifm, w, ep, o1, {4, 4, 32});
  const auto b = run_pw_f32(kDev, pw, ifm, w, ep, o2, {4, 4, 32});
  EXPECT_EQ(a.global_load_bytes, b.global_load_bytes);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_TRUE(allclose(o1, o2, 0.0f));
}

}  // namespace
}  // namespace fcm
