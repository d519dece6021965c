// Epilogue tests: the fused conv-norm-activation tails in both precisions,
// swept across every activation kind (the FCM absorbs whatever norm/act
// follows each conv — paper §III-A: "An FCM combines up to 6 layers").
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/device_spec.hpp"
#include "kernels/conv_ref.hpp"
#include "kernels/kernel_registry.hpp"
#include "planner/cost_model.hpp"

namespace fcm {
namespace {

class EpilogueActTest : public testing::TestWithParam<ActKind> {};

TEST_P(EpilogueActTest, F32AppliesBnThenActivation) {
  const ActKind act = GetParam();
  const auto bn = BatchNorm::fold({2.0f}, {0.5f}, {1.0f}, {1.0f}, 0.0f);
  // scale = 2, shift = 0.5 - 2 = -1.5; y = act(2x - 1.5)
  const EpilogueF32 ep(bn, act);
  for (float x : {-3.0f, -0.5f, 0.0f, 0.9f, 4.0f}) {
    EXPECT_FLOAT_EQ(ep.apply(0, x), apply_activation(act, 2.0f * x - 1.5f));
  }
  EXPECT_GE(ep.ops_per_element(), 2);
}

TEST_P(EpilogueActTest, I8RoundsAndSaturates) {
  const ActKind act = GetParam();
  const auto bn = BatchNorm::identity(1);
  QuantParams q{0.5f, 0.5f, 0.1f};
  const EpilogueI8 ep(bn, act, q);
  // acc = 100 → real 25 → act → /0.1 → saturates to 127 for identity-ish
  // activations; never wraps.
  const std::int8_t hi = ep.apply(0, 100);
  EXPECT_GE(hi, -128);
  EXPECT_LE(hi, 127);
  if (act == ActKind::kNone) {
    EXPECT_EQ(hi, 127);
  }
  if (act == ActKind::kReLU6) {
    // clipped to 6 → 6/0.1 = 60
    EXPECT_EQ(hi, 60);
  }
  // Negative accumulators clamp at -128 without wrap for linear epilogues.
  if (act == ActKind::kNone) {
    EXPECT_EQ(ep.apply(0, -100000), -128);
  }
}

/// Number of elements where two INT8 maps differ.
std::int64_t mismatches(const TensorI8& a, const TensorI8& b) {
  std::int64_t n = 0;
  for (std::int64_t i = 0; i < a.size(); ++i) n += a[i] != b[i];
  return n;
}

/// Runs one LBL layer through its kernel in both precisions (FP32 only for a
/// standard conv) and compares every output with conv_ref exactly.
void expect_lbl_matches_reference(const LayerSpec& spec, const ConvTiling& t) {
  SCOPED_TRACE(spec.name);
  const auto bn = BatchNorm::random(spec.out_c, 23);
  TensorF ifm(spec.ifm_shape());
  fill_uniform(ifm, 21);
  WeightsF w(spec.filter_shape());
  fill_uniform(w, 22, -0.5f, 0.5f);
  const EpilogueF32 ep(bn, spec.act);
  TensorF ofm(spec.ofm_shape());
  run_lbl_f32(gpusim::gtx1660(), spec, ifm, w, ep, ofm, t);
  EXPECT_EQ(max_abs_diff(ofm, conv_ref_f32(spec, ifm, w, ep)), 0.0f);
  if (spec.kind == ConvKind::kStandard) return;

  TensorI8 ifm_q(spec.ifm_shape());
  fill_uniform_i8(ifm_q, 24);
  WeightsI8 w_q(spec.filter_shape());
  fill_uniform_i8(w_q, 25);
  const EpilogueI8 ep_q(bn, spec.act, QuantParams{0.1f, 0.02f, 0.1f});
  TensorI8 ofm_q(spec.ofm_shape());
  run_lbl_i8(gpusim::gtx1660(), spec, ifm_q, w_q, ep_q, ofm_q, t);
  EXPECT_EQ(mismatches(ofm_q, conv_ref_i8(spec, ifm_q, w_q, ep_q)), 0);
}

/// Runs one fused pair through its kernel in both precisions and compares
/// every output with the two conv_ref layers back to back exactly.
void expect_fcm_matches_reference(FcmKind kind, const LayerSpec& a,
                                  const LayerSpec& b, const FcmTiling& t) {
  SCOPED_TRACE(std::string(fcm_kind_name(kind)) + " " + a.name + "+" + b.name);
  const auto bn1 = BatchNorm::random(a.out_c, 26);
  const auto bn2 = BatchNorm::random(b.out_c, 27);
  TensorF ifm(a.ifm_shape());
  fill_uniform(ifm, 28);
  WeightsF w1(a.filter_shape()), w2(b.filter_shape());
  fill_uniform(w1, 29, -0.5f, 0.5f);
  fill_uniform(w2, 30, -0.5f, 0.5f);
  const EpilogueF32 ep1(bn1, a.act), ep2(bn2, b.act);
  TensorF ofm(b.ofm_shape());
  run_fcm_f32(gpusim::gtx1660(), kind, a, b, ifm, w1, w2, ep1, ep2, ofm, t);
  EXPECT_EQ(max_abs_diff(ofm, conv_ref_f32(b, conv_ref_f32(a, ifm, w1, ep1),
                                           w2, ep2)),
            0.0f);

  TensorI8 ifm_q(a.ifm_shape());
  fill_uniform_i8(ifm_q, 31);
  WeightsI8 w1_q(a.filter_shape()), w2_q(b.filter_shape());
  fill_uniform_i8(w1_q, 32);
  fill_uniform_i8(w2_q, 33);
  const QuantParams q{0.1f, 0.02f, 0.1f};
  const EpilogueI8 ep1_q(bn1, a.act, q), ep2_q(bn2, b.act, q);
  TensorI8 ofm_q(b.ofm_shape());
  run_fcm_i8(gpusim::gtx1660(), kind, a, b, ifm_q, w1_q, w2_q, ep1_q, ep2_q,
             ofm_q, t);
  const auto ref_q =
      conv_ref_i8(b, conv_ref_i8(a, ifm_q, w1_q, ep1_q), w2_q, ep2_q);
  EXPECT_EQ(mismatches(ofm_q, ref_q), 0);
}

TEST_P(EpilogueActTest, KernelsApplyEpilogueIdenticallyToReference) {
  // Every kernel whose epilogue runs a row at a time equals conv_ref with the
  // same epilogue. 10 and 37 channels over tiles of 8 and 16 leave vector
  // remainders in the channel runs; 9x11 maps in 4x5 tiles leave ragged
  // pixel rows.
  const ActKind act = GetParam();
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    ScopedPoolOverride guard(pool);
    for (const auto& [c, tile] : {std::pair{10, 8}, std::pair{37, 16}}) {
      SCOPED_TRACE(std::to_string(c) + " channels, tile " +
                   std::to_string(tile));
      const auto pw = LayerSpec::pointwise("pw", 12, 9, 11, c, act);
      expect_lbl_matches_reference(pw, ConvTiling{4, 5, tile});
      expect_lbl_matches_reference(
          LayerSpec::standard("std", 3, 9, 11, c, 3, 2, act),
          ConvTiling{4, 5, tile});

      const auto dw = LayerSpec::depthwise("dw", c, 9, 11, 3, 1, act);
      expect_fcm_matches_reference(FcmKind::kPwDw, pw, dw,
                                   FcmTiling{9, 11, tile, 0});
      expect_fcm_matches_reference(FcmKind::kPwDwR, pw, dw,
                                   FcmTiling{4, 5, tile, 0});
      const auto dw1 = LayerSpec::depthwise("dw", 12, 9, 11, 3, 2, act);
      const auto pw2 = LayerSpec::pointwise("pw", 12, dw1.out_h(), dw1.out_w(),
                                            c, act);
      expect_fcm_matches_reference(FcmKind::kDwPw, dw1, pw2,
                                   FcmTiling{2, 3, 0, tile});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, EpilogueActTest,
                         testing::Values(ActKind::kNone, ActKind::kReLU,
                                         ActKind::kReLU6, ActKind::kGELU),
                         [](const testing::TestParamInfo<ActKind>& info) {
                           return act_kind_name(info.param);
                         });

TEST(Epilogue, I8RoundingMatchesLroundfAndSaturates) {
  // The requantisation rounds half away from zero like std::lroundf and
  // saturates to int8, on every float: +inf and v >= 2^63 (where lroundf
  // overflows) give 127, NaN gives -128.
  const auto expected = [](float v) -> std::int8_t {
    if (std::isnan(v)) return -128;
    if (v >= 0x1p63f) return 127;
    return static_cast<std::int8_t>(
        std::clamp<long>(std::lroundf(v), -128, 127));
  };
  // Every float with 2^-2 <= |v| < 2^8: all the ties and the saturation
  // edges at +-127.5 and +-128.5.
  std::int64_t bad = 0;
  float first_bad = 0.0f;
  for (const std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t b = std::bit_cast<std::uint32_t>(0.25f);
         b < std::bit_cast<std::uint32_t>(256.0f); ++b) {
      const float v = std::bit_cast<float>(b | sign);
      if (requantize_i8(v) != expected(v)) {
        if (bad++ == 0) first_bad = v;
      }
    }
  }
  EXPECT_EQ(bad, 0) << "first mismatch at " << first_bad;

  const float inf = std::numeric_limits<float>::infinity();
  const float p63 = 0x1p63f;
  for (const float v :
       {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::nextafter(std::numeric_limits<float>::min(), 0.0f),
        -std::nextafter(std::numeric_limits<float>::min(), 0.0f),
        std::nextafter(p63, 0.0f), p63, std::nextafter(p63, inf),
        -std::nextafter(p63, 0.0f), -p63, -std::nextafter(p63, inf), inf,
        -inf, std::numeric_limits<float>::quiet_NaN()}) {
    EXPECT_EQ(requantize_i8(v), expected(v)) << v;
  }

  // Through apply(): a tiny output scale sends y / out_scale past 2^63.
  const auto bn = BatchNorm::identity(1);
  const EpilogueI8 ep(bn, ActKind::kNone, QuantParams{0.5f, 0.5f, 1e-30f});
  EXPECT_EQ(ep.apply(0, 100), 127);
  EXPECT_EQ(ep.apply(0, -100), -128);
}

TEST(Epilogue, QuantScaleChainConsistency) {
  // Layer i+1's in_scale must equal layer i's out_scale for a fused module
  // to be equivalent to the LBL chain; verify the equivalence is sensitive
  // to a broken chain (guards the executor's convention).
  const auto pw1 = LayerSpec::pointwise("a", 8, 6, 6, 16, ActKind::kNone);
  const auto pw2 = LayerSpec::pointwise("b", 16, 6, 6, 8, ActKind::kNone);
  TensorI8 ifm(pw1.ifm_shape());
  fill_uniform_i8(ifm, 31);
  WeightsI8 w1(pw1.filter_shape()), w2(pw2.filter_shape());
  fill_uniform_i8(w1, 32);
  fill_uniform_i8(w2, 33);
  const auto bn1 = BatchNorm::identity(16);
  const auto bn2 = BatchNorm::identity(8);
  const QuantParams q1{0.1f, 0.02f, 0.1f};
  const QuantParams q_ok{0.1f, 0.02f, 0.1f};     // in == q1.out ✓
  const QuantParams q_bad{0.05f, 0.02f, 0.1f};   // broken chain
  const auto mid = conv_ref_i8(pw1, ifm, w1, EpilogueI8(bn1, ActKind::kNone, q1));
  const auto good =
      conv_ref_i8(pw2, mid, w2, EpilogueI8(bn2, ActKind::kNone, q_ok));
  const auto bad =
      conv_ref_i8(pw2, mid, w2, EpilogueI8(bn2, ActKind::kNone, q_bad));
  std::int64_t diffs = 0;
  for (std::int64_t i = 0; i < good.size(); ++i) {
    if (good[i] != bad[i]) ++diffs;
  }
  EXPECT_GT(diffs, 0) << "scale chain must matter";
}

TEST(Epilogue, OpsCountsOrderedByActivationCost) {
  const auto bn = BatchNorm::identity(1);
  EXPECT_LT(EpilogueF32(bn, ActKind::kNone).ops_per_element(),
            EpilogueF32(bn, ActKind::kGELU).ops_per_element());
  QuantParams q;
  EXPECT_GT(EpilogueI8(bn, ActKind::kNone, q).ops_per_element(),
            EpilogueF32(bn, ActKind::kNone).ops_per_element())
      << "requantisation costs extra ops";
}

TEST(Epilogue, CostModelUsesSameOpsCounts) {
  for (ActKind act : {ActKind::kNone, ActKind::kReLU, ActKind::kGELU}) {
    LayerSpec pw = LayerSpec::pointwise("pw", 8, 4, 4, 8, act);
    const auto bn = BatchNorm::identity(8);
    EXPECT_EQ(planner::epilogue_ops_per_element(pw, DType::kF32),
              EpilogueF32(bn, act).ops_per_element());
    QuantParams q;
    EXPECT_EQ(planner::epilogue_ops_per_element(pw, DType::kI8),
              EpilogueI8(bn, act, q).ops_per_element());
  }
}

}  // namespace
}  // namespace fcm
