// Unit tests for layer specs, activations, batch norm and model graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "layers/activation.hpp"
#include "layers/batchnorm.hpp"
#include "layers/model_graph.hpp"

namespace fcm {
namespace {

TEST(LayerSpec, DepthwiseFactory) {
  const auto dw = LayerSpec::depthwise("dw", 64, 56, 56, 3, 1);
  EXPECT_EQ(dw.kind, ConvKind::kDepthwise);
  EXPECT_EQ(dw.out_c, 64);
  EXPECT_EQ(dw.pad, 1);
  EXPECT_EQ(dw.out_h(), 56);
  EXPECT_EQ(dw.filter_shape(), (FilterShape{64, 1, 3, 3}));
  EXPECT_EQ(dw.macs(), 64ll * 56 * 56 * 9);
}

TEST(LayerSpec, DepthwiseStride2Geometry) {
  const auto dw = LayerSpec::depthwise("dw", 32, 112, 112, 3, 2);
  EXPECT_EQ(dw.out_h(), 56);
  EXPECT_EQ(dw.out_w(), 56);
  EXPECT_EQ(dw.ofm_shape(), (FmShape{32, 56, 56}));
}

TEST(LayerSpec, PointwiseFactory) {
  const auto pw = LayerSpec::pointwise("pw", 64, 56, 56, 128);
  EXPECT_EQ(pw.kind, ConvKind::kPointwise);
  EXPECT_EQ(pw.out_h(), 56);
  EXPECT_EQ(pw.filter_shape(), (FilterShape{128, 64, 1, 1}));
  EXPECT_EQ(pw.macs(), 128ll * 64 * 56 * 56);
  EXPECT_EQ(pw.weights_count(), 128ll * 64);
}

TEST(LayerSpec, StandardFactory) {
  const auto c = LayerSpec::standard("c", 3, 224, 224, 32, 3, 2);
  EXPECT_EQ(c.out_h(), 112);
  EXPECT_EQ(c.macs(), 32ll * 3 * 9 * 112 * 112);
}

TEST(LayerSpec, ValidationRejectsBadSpecs) {
  LayerSpec s = LayerSpec::depthwise("dw", 8, 8, 8, 3, 1);
  s.out_c = 16;  // depthwise must preserve channels
  EXPECT_THROW(s.validate(), Error);
  LayerSpec p = LayerSpec::pointwise("pw", 8, 8, 8, 16);
  p.kh = 3;
  EXPECT_THROW(p.validate(), Error);
}

TEST(LayerSpec, Names) {
  EXPECT_STREQ(conv_kind_name(ConvKind::kDepthwise), "DW");
  EXPECT_STREQ(conv_kind_name(ConvKind::kPointwise), "PW");
  EXPECT_STREQ(act_kind_name(ActKind::kReLU6), "relu6");
}

TEST(Activation, Semantics) {
  EXPECT_FLOAT_EQ(apply_activation(ActKind::kNone, -3.0f), -3.0f);
  EXPECT_FLOAT_EQ(apply_activation(ActKind::kReLU, -3.0f), 0.0f);
  EXPECT_FLOAT_EQ(apply_activation(ActKind::kReLU, 3.0f), 3.0f);
  EXPECT_FLOAT_EQ(apply_activation(ActKind::kReLU6, 7.0f), 6.0f);
  EXPECT_FLOAT_EQ(apply_activation(ActKind::kReLU6, -1.0f), 0.0f);
  // GELU: gelu(0) == 0, gelu(x) ≈ x for large x, gelu(-x) small.
  EXPECT_FLOAT_EQ(apply_activation(ActKind::kGELU, 0.0f), 0.0f);
  EXPECT_NEAR(apply_activation(ActKind::kGELU, 10.0f), 10.0f, 1e-3f);
  EXPECT_NEAR(apply_activation(ActKind::kGELU, -10.0f), 0.0f, 1e-3f);
}

/// Units in the last place between two finite floats: their bit patterns
/// mapped onto one ordered integer line, where -0 and +0 meet.
std::int64_t ulp_distance(float a, float b) {
  const auto line = [](float v) -> std::int64_t {
    const std::int64_t bits = std::bit_cast<std::int32_t>(v);
    return bits < 0 ? std::numeric_limits<std::int32_t>::min() - bits : bits;
  };
  const std::int64_t d = line(a) - line(b);
  return d < 0 ? -d : d;
}

TEST(Activation, TanhWithinTwoUlpOfStdTanh) {
  // Every 4th float with 2^-7 <= |y| < 16, both signs: the polynomial, the
  // exp branch and the seam at 0.625 between them. The worst case, 2 ulp,
  // sits near |y| = 0.0154.
  std::int64_t worst = 0;
  float worst_y = 0.0f;
  for (const std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t b = std::bit_cast<std::uint32_t>(0x1p-7f);
         b < std::bit_cast<std::uint32_t>(16.0f); b += 4) {
      const float y = std::bit_cast<float>(b | sign);
      const std::int64_t d = ulp_distance(tanh_f32(y), std::tanh(y));
      if (d > worst) {
        worst = d;
        worst_y = y;
      }
    }
  }
  EXPECT_LE(worst, 2) << "at y = " << worst_y;
}

TEST(Activation, TanhEdgeCases) {
  using Lim = std::numeric_limits<float>;
  // Signed zeros keep their sign, and subnormals are their own tanh.
  for (const float y : {0.0f, -0.0f, Lim::denorm_min(), -Lim::denorm_min(),
                        std::nextafter(Lim::min(), 0.0f),
                        -std::nextafter(Lim::min(), 0.0f)}) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(tanh_f32(y)),
              std::bit_cast<std::uint32_t>(y))
        << y;
  }
  for (const float y : {Lim::max(), Lim::infinity()}) {
    EXPECT_EQ(tanh_f32(y), 1.0f) << y;
    EXPECT_EQ(tanh_f32(-y), -1.0f) << -y;
  }
  EXPECT_TRUE(std::isnan(tanh_f32(Lim::quiet_NaN())));
}

TEST(Activation, GeluNoLessAccurateThanWithStdTanh) {
  // GELU through tanh_f32 against the same formula in double must be no
  // worse than the formula through std::tanh was: every 31st float with
  // 2^-4 <= |x| < 60 (both err by at most 4.4e-7, near |x| = 4.71; below
  // 2^-4 both stay under 4e-9).
  const auto gelu = [](auto x, auto tanh) {
    using T = decltype(x);
    const T c = T(0.7978845608);  // sqrt(2/pi)
    return T(0.5) * x * (T(1) + tanh(c * (x + T(0.044715) * x * x * x)));
  };
  const auto std_tanh = [](auto v) { return std::tanh(v); };
  double err = 0.0;
  double err_std = 0.0;
  for (const std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t b = std::bit_cast<std::uint32_t>(0x1p-4f);
         b < std::bit_cast<std::uint32_t>(60.0f); b += 31) {
      const float x = std::bit_cast<float>(b | sign);
      const double exact = gelu(static_cast<double>(x), std_tanh);
      err = std::max(err, std::abs(activate<ActKind::kGELU>(x) - exact));
      err_std = std::max(err_std, std::abs(gelu(x, std_tanh) - exact));
    }
  }
  EXPECT_LE(err, err_std);
}

TEST(BatchNorm, FoldMatchesDefinition) {
  const auto bn = BatchNorm::fold({2.0f}, {1.0f}, {3.0f}, {4.0f}, 0.0f);
  // scale = 2/sqrt(4) = 1, shift = 1 - 3*1 = -2
  EXPECT_FLOAT_EQ(bn.scale(0), 1.0f);
  EXPECT_FLOAT_EQ(bn.shift(0), -2.0f);
  EXPECT_FLOAT_EQ(bn.apply(0, 5.0f), 3.0f);
}

TEST(BatchNorm, IdentityIsNoop) {
  const auto bn = BatchNorm::identity(4);
  EXPECT_EQ(bn.channels(), 4);
  EXPECT_FLOAT_EQ(bn.apply(2, 1.25f), 1.25f);
}

TEST(BatchNorm, RandomIsDeterministicAndBounded) {
  const auto a = BatchNorm::random(16, 9);
  const auto b = BatchNorm::random(16, 9);
  for (int c = 0; c < 16; ++c) {
    EXPECT_FLOAT_EQ(a.scale(c), b.scale(c));
    EXPECT_GT(a.scale(c), 0.0f);  // positive scales keep activations sane
  }
}

TEST(BatchNorm, FoldRejectsMismatchedSizes) {
  EXPECT_THROW(BatchNorm::fold({1.0f}, {1.0f, 2.0f}, {0.0f}, {1.0f}), Error);
}

ModelGraph tiny_graph() {
  ModelGraph g;
  g.name = "tiny";
  g.layers.push_back(LayerSpec::pointwise("pw1", 8, 16, 16, 16));
  g.layers.push_back(LayerSpec::depthwise("dw1", 16, 16, 16, 3, 1));
  g.layers.push_back(LayerSpec::pointwise("pw2", 16, 16, 16, 8));
  return g;
}

TEST(ModelGraph, ValidatesChaining) {
  auto g = tiny_graph();
  g.validate();
  g.layers[1] = LayerSpec::depthwise("dw1", 32, 16, 16, 3, 1);
  EXPECT_THROW(g.validate(), Error);
}

TEST(ModelGraph, ResidualPredicates) {
  auto g = tiny_graph();
  g.residual_edges.emplace_back(0, 1);  // both 16×16×16
  g.validate();
  EXPECT_TRUE(g.feeds_residual(0));
  EXPECT_FALSE(g.feeds_residual(1));
  EXPECT_TRUE(g.receives_residual(1));
  EXPECT_FALSE(g.receives_residual(0));
}

TEST(ModelGraph, ResidualShapeMismatchRejected) {
  auto g = tiny_graph();
  g.residual_edges.emplace_back(0, 1);  // 16ch vs 16ch but shapes differ? same
  // layers 0 and 1 both produce 16x16x16 — legal; make an illegal one:
  g.residual_edges.clear();
  g.residual_edges.emplace_back(1, 2);  // 16ch vs 8ch
  EXPECT_THROW(g.validate(), Error);
}

TEST(ModelGraph, Totals) {
  const auto g = tiny_graph();
  EXPECT_EQ(g.total_macs(),
            g.layers[0].macs() + g.layers[1].macs() + g.layers[2].macs());
  EXPECT_EQ(g.total_weights(), 8ll * 16 + 16 * 9 + 16 * 8);
}

}  // namespace
}  // namespace fcm
