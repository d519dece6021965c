// Layer-by-layer kernel tests: numerics vs the naive reference across tiling
// sweeps (parameterised; bit-identical in both precisions, on any worker
// count), and measured traffic vs the planner's operational cost model (must
// match exactly — the planner optimises what the kernels actually do).
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

const gpusim::DeviceSpec kDev = gpusim::gtx1660();

struct LblCase {
  ConvKind kind;
  int in_c, h, w, out_c, k, stride;
  ConvTiling tiling;
};

std::string case_name(const testing::TestParamInfo<LblCase>& info) {
  const auto& c = info.param;
  return std::string(conv_kind_name(c.kind)) + "_c" + std::to_string(c.in_c) +
         "x" + std::to_string(c.h) + "f" + std::to_string(c.out_c) + "k" +
         std::to_string(c.k) + "s" + std::to_string(c.stride) + "_t" +
         std::to_string(c.tiling.tile_h) + "x" +
         std::to_string(c.tiling.tile_w) + "x" +
         std::to_string(c.tiling.tile_f);
}

LayerSpec make_spec(const LblCase& c) {
  switch (c.kind) {
    case ConvKind::kPointwise:
      return LayerSpec::pointwise("l", c.in_c, c.h, c.w, c.out_c);
    case ConvKind::kDepthwise:
      return LayerSpec::depthwise("l", c.in_c, c.h, c.w, c.k, c.stride);
    case ConvKind::kStandard:
      return LayerSpec::standard("l", c.in_c, c.h, c.w, c.out_c, c.k, c.stride);
  }
  throw Error("bad kind");
}

class LblKernelTest : public testing::TestWithParam<LblCase> {};

TEST_P(LblKernelTest, F32MatchesReferenceAndCostModel) {
  const auto& c = GetParam();
  const auto spec = make_spec(c);
  TensorF ifm(spec.ifm_shape());
  fill_uniform(ifm, 42);
  WeightsF w(spec.filter_shape());
  fill_uniform(w, 43, -0.5f, 0.5f);
  const auto bn = BatchNorm::random(spec.out_c, 44);
  const EpilogueF32 ep(bn, spec.act);

  const auto ref = conv_ref_f32(spec, ifm, w, ep);
  const auto predicted = planner::lbl_stats(spec, c.tiling, DType::kF32);

  // Blocks own disjoint outputs and keep their own stats, so neither may
  // depend on how blocks map to workers.
  std::vector<gpusim::KernelStats> runs;
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    ScopedPoolOverride guard(pool);
    TensorF ofm(spec.ofm_shape());
    const auto st = run_lbl_f32(kDev, spec, ifm, w, ep, ofm, c.tiling);
    EXPECT_EQ(max_abs_diff(ofm, ref), 0.0f)
        << "each output must keep the reference's summation order";

    EXPECT_EQ(st.global_load_bytes, predicted.global_load_bytes);
    EXPECT_EQ(st.global_store_bytes, predicted.global_store_bytes);
    EXPECT_EQ(st.flops, predicted.flops);
    EXPECT_EQ(st.shared_store_bytes, predicted.shared_store_bytes);
    EXPECT_EQ(st.shared_load_bytes, predicted.shared_load_bytes);
    EXPECT_EQ(st.num_blocks, predicted.num_blocks);
    EXPECT_EQ(st.shared_bytes_per_block, predicted.shared_bytes_per_block);
    runs.push_back(st);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST_P(LblKernelTest, I8MatchesReferenceBitExactly) {
  const auto& c = GetParam();
  if (c.kind == ConvKind::kStandard) GTEST_SKIP() << "no INT8 standard conv";
  const auto spec = make_spec(c);
  TensorI8 ifm(spec.ifm_shape());
  fill_uniform_i8(ifm, 42);
  WeightsI8 w(spec.filter_shape());
  fill_uniform_i8(w, 43);
  const auto bn = BatchNorm::random(spec.out_c, 44);
  QuantParams q{0.1f, 0.02f, 0.1f};
  const EpilogueI8 ep(bn, spec.act, q);

  const auto ref = conv_ref_i8(spec, ifm, w, ep);
  const auto predicted = planner::lbl_stats(spec, c.tiling, DType::kI8);

  std::vector<gpusim::KernelStats> runs;
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    ScopedPoolOverride guard(pool);
    TensorI8 ofm(spec.ofm_shape());
    const auto st = run_lbl_i8(kDev, spec, ifm, w, ep, ofm, c.tiling);
    for (std::int64_t i = 0; i < ofm.size(); ++i) {
      ASSERT_EQ(ofm[i], ref[i]) << "element " << i;
    }

    EXPECT_EQ(st.global_load_bytes, predicted.global_load_bytes);
    EXPECT_EQ(st.global_store_bytes, predicted.global_store_bytes);
    EXPECT_EQ(st.int_ops, predicted.int_ops);
    runs.push_back(st);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LblKernelTest,
    testing::Values(
        // Pointwise: tile divides / does not divide, full extents, F splits.
        LblCase{ConvKind::kPointwise, 16, 8, 8, 32, 1, 1, {4, 4, 16}},
        LblCase{ConvKind::kPointwise, 16, 8, 8, 32, 1, 1, {8, 8, 32}},
        LblCase{ConvKind::kPointwise, 24, 10, 10, 40, 1, 1, {3, 7, 32}},
        LblCase{ConvKind::kPointwise, 8, 14, 14, 64, 1, 1, {14, 14, 8}},
        LblCase{ConvKind::kPointwise, 96, 7, 7, 160, 1, 1, {7, 7, 64}},
        // Remainders: C past the 32-channel chunk and not a multiple of 4,
        // F not a multiple of tile_f, ragged spatial tiles.
        LblCase{ConvKind::kPointwise, 37, 9, 11, 45, 1, 1, {4, 5, 16}},
        LblCase{ConvKind::kPointwise, 70, 6, 6, 19, 1, 1, {6, 6, 8}},
        // Depthwise: stride 1 & 2, 3x3 and 5x5, ragged tiles.
        LblCase{ConvKind::kDepthwise, 16, 12, 12, 16, 3, 1, {4, 4, 8}},
        LblCase{ConvKind::kDepthwise, 16, 12, 12, 16, 3, 2, {3, 3, 16}},
        LblCase{ConvKind::kDepthwise, 24, 14, 14, 24, 5, 1, {7, 5, 8}},
        LblCase{ConvKind::kDepthwise, 8, 16, 16, 8, 3, 1, {16, 16, 8}},
        LblCase{ConvKind::kDepthwise, 32, 9, 9, 32, 3, 2, {2, 5, 4}},
        // Standard conv (FP32 only).
        LblCase{ConvKind::kStandard, 3, 12, 12, 16, 3, 1, {4, 4, 16}},
        LblCase{ConvKind::kStandard, 3, 16, 16, 8, 3, 2, {4, 8, 8}},
        LblCase{ConvKind::kStandard, 4, 8, 8, 8, 1, 1, {8, 8, 8}},
        // A 7x7 stride-2 padded stem with a partial filter tile (20 = 16 + 4).
        LblCase{ConvKind::kStandard, 3, 23, 23, 20, 7, 2, {5, 4, 16}}),
    case_name);

TEST(LblKernels, OfmWrittenExactlyOnceRegardlessOfTiling) {
  const auto spec = LayerSpec::pointwise("pw", 32, 16, 16, 64);
  TensorF ifm(spec.ifm_shape());
  fill_uniform(ifm, 1);
  WeightsF w(spec.filter_shape());
  fill_uniform(w, 2);
  const auto bn = BatchNorm::identity(64);
  const EpilogueF32 ep(bn, ActKind::kNone);
  for (const ConvTiling t : {ConvTiling{4, 4, 32}, ConvTiling{16, 16, 64},
                             ConvTiling{2, 8, 16}}) {
    TensorF ofm(spec.ofm_shape());
    const auto st = run_pw_f32(kDev, spec, ifm, w, ep, ofm, t);
    EXPECT_EQ(st.global_store_bytes, spec.ofm_count() * 4)
        << "OS dataflow must write outputs once";
  }
}

TEST(LblKernels, PwIfmReloadScalesWithFilterTiles) {
  // Eq. 2: IFM is loaded once per filter tile.
  const auto spec = LayerSpec::pointwise("pw", 32, 16, 16, 128);
  TensorF ifm(spec.ifm_shape());
  WeightsF w(spec.filter_shape());
  const auto bn = BatchNorm::identity(128);
  const EpilogueF32 ep(bn, ActKind::kNone);
  auto loads_with_tile_f = [&](int tf) {
    TensorF ofm(spec.ofm_shape());
    const auto st =
        run_pw_f32(kDev, spec, ifm, w, ep, ofm, ConvTiling{16, 16, tf});
    // Subtract the weight traffic (constant across tf at one spatial tile).
    return st.global_load_bytes - spec.weights_count() * 4;
  };
  EXPECT_EQ(loads_with_tile_f(32), 4 * spec.ifm_count() * 4);
  EXPECT_EQ(loads_with_tile_f(64), 2 * spec.ifm_count() * 4);
  EXPECT_EQ(loads_with_tile_f(128), 1 * spec.ifm_count() * 4);
}

TEST(LblKernels, DwHaloGrowsAsTilesShrink) {
  const auto spec = LayerSpec::depthwise("dw", 8, 32, 32, 3, 1);
  TensorF ifm(spec.ifm_shape());
  WeightsF w(spec.filter_shape());
  const auto bn = BatchNorm::identity(8);
  const EpilogueF32 ep(bn, ActKind::kNone);
  std::int64_t prev = 0;
  for (int tile : {32, 16, 8, 4}) {
    TensorF ofm(spec.ofm_shape());
    const auto st =
        run_dw_f32(kDev, spec, ifm, w, ep, ofm, ConvTiling{tile, tile, 8});
    if (prev != 0) {
      EXPECT_GT(st.global_load_bytes, prev)
          << "smaller tiles must reload more overlap (paper Fig. 3a)";
    }
    prev = st.global_load_bytes;
  }
}

TEST(LblKernels, RejectsWrongKindOrShapes) {
  const auto pw = LayerSpec::pointwise("pw", 8, 8, 8, 8);
  const auto dw = LayerSpec::depthwise("dw", 8, 8, 8, 3, 1);
  TensorF ifm(8, 8, 8), ofm(8, 8, 8);
  WeightsF wpw(pw.filter_shape());
  const auto bn = BatchNorm::identity(8);
  const EpilogueF32 ep(bn, ActKind::kNone);
  EXPECT_THROW(run_dw_f32(kDev, pw, ifm, wpw, ep, ofm, {4, 4, 8}), Error);
  EXPECT_THROW(run_pw_f32(kDev, pw, ifm, wpw, ep, ofm, {0, 4, 8}), Error);
}

}  // namespace
}  // namespace fcm
