// Epilogue tests: the fused conv-norm-activation tails in both precisions,
// swept across every activation kind (the FCM absorbs whatever norm/act
// follows each conv — paper §III-A: "An FCM combines up to 6 layers").
#include <gtest/gtest.h>

#include "common/random.hpp"
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

TEST_P(EpilogueActTest, KernelsApplyEpilogueIdenticallyToReference) {
  // End-to-end: a PW kernel with this activation equals conv_ref with the
  // same epilogue (exercises the fused tail inside the optimised kernel).
  const ActKind act = GetParam();
  LayerSpec spec = LayerSpec::pointwise("pw", 12, 6, 6, 10, act);
  TensorF ifm(spec.ifm_shape());
  fill_uniform(ifm, 21);
  WeightsF w(spec.filter_shape());
  fill_uniform(w, 22, -0.5f, 0.5f);
  const auto bn = BatchNorm::random(10, 23);
  const EpilogueF32 ep(bn, act);
  TensorF ofm(spec.ofm_shape());
  run_pw_f32(gpusim::gtx1660(), spec, ifm, w, ep, ofm, ConvTiling{6, 6, 10});
  EXPECT_EQ(max_abs_diff(ofm, conv_ref_f32(spec, ifm, w, ep)), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(AllActivations, EpilogueActTest,
                         testing::Values(ActKind::kNone, ActKind::kReLU,
                                         ActKind::kReLU6, ActKind::kGELU),
                         [](const testing::TestParamInfo<ActKind>& info) {
                           return act_kind_name(info.param);
                         });

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
