// FCM kernel tests: every fused module must produce exactly what its two
// LBL layers produce back-to-back (bit-exactly in both precisions, on any
// worker count), its measured traffic must match the planner's operational
// FCM cost model, and PWDW_R's redundancy accounting must behave as the
// paper describes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/device_spec.hpp"
#include "kernels/conv_ref.hpp"
#include "kernels/kernel_registry.hpp"
#include "planner/cost_model.hpp"

namespace fcm {
namespace {

const gpusim::DeviceSpec kDev = gpusim::jetson_orin();  // largest shared mem

struct FcmCase {
  FcmKind kind;
  int c1, h, w;   // module input
  int c2;         // intermediate channels
  int c3;         // module output channels (PWPW only; else c2/derived)
  int k, stride;  // DW geometry where applicable
  FcmTiling tiling;
};

std::string fcm_case_name(const testing::TestParamInfo<FcmCase>& info) {
  const auto& c = info.param;
  std::string n = fcm_kind_name(c.kind);
  n += "_c" + std::to_string(c.c1) + "m" + std::to_string(c.c2) + "h" +
       std::to_string(c.h) + "k" + std::to_string(c.k) + "s" +
       std::to_string(c.stride) + "_t" + std::to_string(c.tiling.tile_h) + "x" +
       std::to_string(c.tiling.tile_w);
  if (c.tiling.tile_c > 0) n += "tc" + std::to_string(c.tiling.tile_c);
  if (c.tiling.chunk_f > 0) n += "cf" + std::to_string(c.tiling.chunk_f);
  return n;
}

struct Pair {
  LayerSpec first, second;
};

Pair make_pair(const FcmCase& c) {
  switch (c.kind) {
    case FcmKind::kDwPw: {
      auto dw = LayerSpec::depthwise("a", c.c1, c.h, c.w, c.k, c.stride);
      auto pw =
          LayerSpec::pointwise("b", c.c1, dw.out_h(), dw.out_w(), c.c2);
      return {dw, pw};
    }
    case FcmKind::kPwDw:
    case FcmKind::kPwDwR: {
      auto pw = LayerSpec::pointwise("a", c.c1, c.h, c.w, c.c2);
      auto dw = LayerSpec::depthwise("b", c.c2, c.h, c.w, c.k, c.stride);
      return {pw, dw};
    }
    case FcmKind::kPwPw: {
      auto pw1 = LayerSpec::pointwise("a", c.c1, c.h, c.w, c.c2);
      auto pw2 = LayerSpec::pointwise("b", c.c2, c.h, c.w, c.c3);
      return {pw1, pw2};
    }
    case FcmKind::kPwDwPw:
      break;  // triples are covered by test_triple_fusion
  }
  throw Error("bad kind");
}

class FcmKernelTest : public testing::TestWithParam<FcmCase> {};

TEST_P(FcmKernelTest, F32EqualsLayerByLayerReference) {
  const auto& c = GetParam();
  const auto [first, second] = make_pair(c);
  TensorF ifm(first.ifm_shape());
  fill_uniform(ifm, 7);
  WeightsF w1(first.filter_shape()), w2(second.filter_shape());
  fill_uniform(w1, 8, -0.5f, 0.5f);
  fill_uniform(w2, 9, -0.5f, 0.5f);
  const auto bn1 = BatchNorm::random(first.out_c, 10);
  const auto bn2 = BatchNorm::random(second.out_c, 11);
  const EpilogueF32 ep1(bn1, first.act), ep2(bn2, second.act);

  const auto mid = conv_ref_f32(first, ifm, w1, ep1);
  const auto ref = conv_ref_f32(second, mid, w2, ep2);
  const auto predicted =
      planner::fcm_stats(c.kind, first, second, c.tiling, DType::kF32);

  // Blocks own disjoint outputs and keep their own stats, so neither may
  // depend on how blocks map to workers.
  std::vector<gpusim::KernelStats> runs;
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    ScopedPoolOverride guard(pool);
    TensorF ofm(second.ofm_shape());
    const auto st = run_fcm_f32(kDev, c.kind, first, second, ifm, w1, w2, ep1,
                                ep2, ofm, c.tiling);
    EXPECT_EQ(max_abs_diff(ofm, ref), 0.0f)
        << "each output must keep the reference's summation order";

    EXPECT_EQ(st.global_load_bytes, predicted.global_load_bytes);
    EXPECT_EQ(st.global_store_bytes, predicted.global_store_bytes);
    EXPECT_EQ(st.flops, predicted.flops);
    EXPECT_EQ(st.redundant_flops, predicted.redundant_flops);
    EXPECT_EQ(st.shared_load_bytes, predicted.shared_load_bytes);
    EXPECT_EQ(st.shared_store_bytes, predicted.shared_store_bytes);
    EXPECT_EQ(st.num_blocks, predicted.num_blocks);
    EXPECT_EQ(st.shared_bytes_per_block, predicted.shared_bytes_per_block);
    runs.push_back(st);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST_P(FcmKernelTest, I8EqualsLayerByLayerBitExactly) {
  const auto& c = GetParam();
  const auto [first, second] = make_pair(c);
  TensorI8 ifm(first.ifm_shape());
  fill_uniform_i8(ifm, 7);
  WeightsI8 w1(first.filter_shape()), w2(second.filter_shape());
  fill_uniform_i8(w1, 8);
  fill_uniform_i8(w2, 9);
  const auto bn1 = BatchNorm::random(first.out_c, 10);
  const auto bn2 = BatchNorm::random(second.out_c, 11);
  const QuantParams q1{0.1f, 0.02f, 0.1f};
  const QuantParams q2{0.1f, 0.02f, 0.1f};  // in_scale chains from q1.out
  const EpilogueI8 ep1(bn1, first.act, q1), ep2(bn2, second.act, q2);

  const auto mid = conv_ref_i8(first, ifm, w1, ep1);
  const auto ref = conv_ref_i8(second, mid, w2, ep2);

  std::vector<gpusim::KernelStats> runs;
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    ScopedPoolOverride guard(pool);
    TensorI8 ofm(second.ofm_shape());
    runs.push_back(run_fcm_i8(kDev, c.kind, first, second, ifm, w1, w2, ep1,
                              ep2, ofm, c.tiling));
    for (std::int64_t i = 0; i < ofm.size(); ++i) {
      ASSERT_EQ(ofm[i], ref[i]) << "element " << i;
    }
  }
  EXPECT_EQ(runs[0], runs[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FcmKernelTest,
    testing::Values(
        // DWPW: stride 1 and 2, ragged spatial tiles, filter chunking.
        FcmCase{FcmKind::kDwPw, 16, 12, 12, 32, 0, 3, 1, {4, 4, 0, 16}},
        FcmCase{FcmKind::kDwPw, 16, 12, 12, 32, 0, 3, 2, {3, 3, 0, 32}},
        FcmCase{FcmKind::kDwPw, 24, 14, 14, 40, 0, 5, 1, {7, 5, 0, 8}},
        FcmCase{FcmKind::kDwPw, 8, 8, 8, 16, 0, 3, 1, {8, 8, 0, 16}},
        // Remainders: C not a multiple of 4, F not a multiple of chunk_f.
        FcmCase{FcmKind::kDwPw, 21, 11, 11, 37, 0, 3, 2, {4, 3, 0, 16}},
        // PWDW (redundancy-free): full spatial tile, channel splits.
        FcmCase{FcmKind::kPwDw, 16, 10, 10, 32, 0, 3, 1, {10, 10, 8, 0}},
        FcmCase{FcmKind::kPwDw, 24, 8, 8, 16, 0, 3, 2, {4, 4, 16, 0}},
        FcmCase{FcmKind::kPwDw, 12, 7, 7, 20, 0, 5, 1, {7, 7, 20, 0}},
        // Channel remainder: 27 = 3 tiles of 8 + 3; 13 input channels.
        FcmCase{FcmKind::kPwDw, 13, 9, 9, 27, 0, 3, 1, {9, 9, 8, 0}},
        // PWDW_R: spatial tiling → halo recompute.
        FcmCase{FcmKind::kPwDwR, 16, 12, 12, 24, 0, 3, 1, {4, 4, 8, 0}},
        FcmCase{FcmKind::kPwDwR, 16, 12, 12, 24, 0, 3, 2, {3, 3, 12, 0}},
        FcmCase{FcmKind::kPwDwR, 8, 16, 16, 16, 0, 5, 1, {8, 4, 16, 0}},
        // Stride-2 padded DW in ragged spatial tiles with a channel
        // remainder (21 = 2 tiles of 8 + 5), 3x3 and 5x5.
        FcmCase{FcmKind::kPwDwR, 19, 13, 13, 21, 0, 3, 2, {3, 4, 8, 0}},
        FcmCase{FcmKind::kPwDwR, 10, 12, 12, 18, 0, 5, 2, {2, 4, 7, 0}},
        // PWPW: chunked filters both sides.
        FcmCase{FcmKind::kPwPw, 16, 8, 8, 48, 24, 1, 1, {4, 4, 0, 16}},
        FcmCase{FcmKind::kPwPw, 32, 7, 7, 64, 32, 1, 1, {7, 7, 0, 32}},
        FcmCase{FcmKind::kPwPw, 8, 10, 10, 24, 40, 1, 1, {5, 10, 0, 24}}),
    fcm_case_name);

TEST(FcmKernels, PwdwFullSpatialHasNoRedundancy) {
  const auto pw = LayerSpec::pointwise("a", 16, 10, 10, 32);
  const auto dw = LayerSpec::depthwise("b", 32, 10, 10, 3, 1);
  const auto st = planner::fcm_stats(FcmKind::kPwDw, pw, dw,
                                     {10, 10, 8, 0}, DType::kF32);
  EXPECT_EQ(st.redundant_flops, 0);
}

TEST(FcmKernels, PwdwRRedundancyGrowsAsTilesShrink) {
  const auto pw = LayerSpec::pointwise("a", 16, 16, 16, 32);
  const auto dw = LayerSpec::depthwise("b", 32, 16, 16, 3, 1);
  std::int64_t prev = -1;
  for (int tile : {16, 8, 4, 2}) {
    const auto st = planner::fcm_stats(FcmKind::kPwDwR, pw, dw,
                                       {tile, tile, 32, 0}, DType::kF32);
    if (prev >= 0) {
      EXPECT_GT(st.redundant_flops, prev);
    }
    prev = st.redundant_flops;
  }
}

TEST(FcmKernels, DwpwNeverHasRedundantComputation) {
  // The DW halo exists in global memory; nothing is recomputed (paper §III-A
  // and Table II: DWPW rows never show a redundancy ratio).
  const auto dw = LayerSpec::depthwise("a", 16, 16, 16, 3, 1);
  const auto pw = LayerSpec::pointwise("b", 16, 16, 16, 32);
  for (int tile : {16, 8, 4}) {
    const auto st = planner::fcm_stats(FcmKind::kDwPw, dw, pw,
                                       {tile, tile, 0, 16}, DType::kF32);
    EXPECT_EQ(st.redundant_flops, 0);
  }
}

TEST(FcmKernels, FusionEliminatesIntermediateTraffic) {
  // The DW OFM / PW IFM must never touch global memory: the fused module's
  // traffic is strictly below LBL's, by at least the intermediate size both
  // ways (one store + one load).
  const auto dw = LayerSpec::depthwise("a", 32, 16, 16, 3, 1);
  const auto pw = LayerSpec::pointwise("b", 32, 16, 16, 64);
  const ConvTiling lbl_t{16, 16, 32};
  const FcmTiling fcm_t{16, 16, 0, 64};
  const auto lbl = planner::dw_stats(dw, lbl_t, DType::kF32) +
                   planner::pw_stats(pw, lbl_t, DType::kF32);
  const auto fcm = planner::fcm_stats(FcmKind::kDwPw, dw, pw, fcm_t,
                                      DType::kF32);
  const std::int64_t mid_bytes = dw.ofm_count() * 4;
  EXPECT_LE(fcm.gma_bytes(), lbl.gma_bytes() - 2 * mid_bytes);
}

TEST(FcmKernels, RejectsNonChainingPairs) {
  const auto dw = LayerSpec::depthwise("a", 16, 8, 8, 3, 1);
  const auto pw = LayerSpec::pointwise("b", 32, 8, 8, 8);  // 32 != 16
  TensorF ifm(dw.ifm_shape()), ofm(pw.ofm_shape());
  WeightsF w1(dw.filter_shape()), w2(pw.filter_shape());
  const auto bn = BatchNorm::identity(32);
  const auto bn16 = BatchNorm::identity(16);
  const EpilogueF32 ep1(bn16, ActKind::kNone), ep2(bn, ActKind::kNone);
  EXPECT_THROW(run_dwpw_f32(kDev, dw, pw, ifm, w1, w2, ep1, ep2, ofm,
                            {4, 4, 0, 8}),
               Error);
}

TEST(FcmKernels, KindClassifier) {
  const auto dw = LayerSpec::depthwise("d", 16, 8, 8, 3, 1);
  const auto pw = LayerSpec::pointwise("p", 16, 8, 8, 16);
  const auto sc = LayerSpec::standard("s", 16, 8, 8, 16, 3, 1);
  FcmKind k;
  EXPECT_TRUE(fcm_kind_for(dw, pw, k));
  EXPECT_EQ(k, FcmKind::kDwPw);
  EXPECT_TRUE(fcm_kind_for(pw, dw, k));
  EXPECT_EQ(k, FcmKind::kPwDw);
  EXPECT_TRUE(fcm_kind_for(pw, pw, k));
  EXPECT_EQ(k, FcmKind::kPwPw);
  EXPECT_FALSE(fcm_kind_for(sc, pw, k));
  EXPECT_FALSE(fcm_kind_for(dw, sc, k));
  EXPECT_FALSE(fcm_kind_for(dw, dw, k));
}

}  // namespace
}  // namespace fcm
