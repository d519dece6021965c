// Activation functions applied by the fused conv-norm-activation epilogue.
#pragma once

#include <bit>
#include <cstdint>

#include "layers/layer_spec.hpp"

namespace fcm {

namespace detail {

/// c ? a : b as a bitmask blend. GCC's vectoriser takes a loop with these
/// selects, where a float ?: there may stay a branch ("control flow in
/// loop").
inline float select(bool c, float a, float b) {
  const std::uint32_t m = -static_cast<std::uint32_t>(c);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & m) |
                              (std::bit_cast<std::uint32_t>(b) & ~m));
}

}  // namespace detail

/// tanh(y) in FP32 with no branch and no libm call, so that a loop calling
/// it vectorises (std::tanh keeps such a loop scalar). Cephes' tanhf on
/// a = |y|: the odd polynomial a + a·z·P(z), z = a², for a < 0.625, else
/// 1 − 2/(e + 1) with e = exp(2a) from Cephes' expf. 2a is clamped to 40
/// first (tanh(20) rounds to 1), so NaN and ±inf never reach the float→int
/// conversion. y's sign goes onto the result, and NaN passes through.
/// Within 2 ulp of glibc's tanhf for |y| <= 64; ±0 and subnormals return
/// themselves.
inline float tanh_f32(float y) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(y);
  const float a = std::bit_cast<float>(bits & 0x7fffffffu);

  const float z = a * a;
  const float small =
      ((((-5.70498872745e-3f * z + 2.06390887954e-2f) * z -
         5.37397155531e-2f) * z + 1.33314422036e-1f) * z -
       3.33332819422e-1f) * z * a + a;

  // exp(x) = exp(g) * 2^n with n = round(x / ln 2) (x >= 0, so truncating
  // x·log2(e) + 0.5 rounds), g = x − n·ln 2 in two parts, then a degree-5
  // polynomial for exp(g) and 2^n from its exponent bits.
  float x = a + a;
  x = detail::select(x < 40.0f, x, 40.0f);
  const int n = static_cast<int>(x * 1.44269504088896341f + 0.5f);
  const float fn = static_cast<float>(n);
  float g = x - fn * 0.693359375f;
  g -= fn * -2.12194440e-4f;
  const float exp_g =
      (((((1.9875691500e-4f * g + 1.3981999507e-3f) * g + 8.3334519073e-3f) *
            g + 4.1665795894e-2f) * g + 1.6666665459e-1f) * g +
       5.0000001201e-1f) * (g * g) + g + 1.0f;
  const float e = exp_g * std::bit_cast<float>(
                              static_cast<std::uint32_t>(n + 127) << 23);
  const float large = 1.0f - 2.0f / (e + 1.0f);

  const float mag = detail::select(a < 0.625f, small, large);
  const float t = std::bit_cast<float>(std::bit_cast<std::uint32_t>(mag) |
                                       (bits & 0x80000000u));
  return detail::select(a != a, y, t);
}

/// Activation `A` of `x` (FP32 path): the one formula per kind. A loop that
/// calls it with a compile-time `A` has no branch on the kind per element.
template <ActKind A>
inline float activate(float x) {
  if constexpr (A == ActKind::kNone) {
    return x;
  } else if constexpr (A == ActKind::kReLU) {
    return x > 0.0f ? x : 0.0f;
  } else if constexpr (A == ActKind::kReLU6) {
    return x < 0.0f ? 0.0f : (x > 6.0f ? 6.0f : x);
  } else {
    static_assert(A == ActKind::kGELU);
    // tanh approximation, the common inference formulation.
    const float c = 0.7978845608f;  // sqrt(2/pi)
    const float t = tanh_f32(c * (x + 0.044715f * x * x * x));
    return 0.5f * x * (1.0f + t);
  }
}

/// Return f.template operator()<a>(): turns a run-time activation kind into
/// the compile-time one that `activate` takes, so that a whole loop inside
/// `f` is chosen once.
template <typename F>
inline decltype(auto) with_activation(ActKind a, F&& f) {
  switch (a) {
    case ActKind::kNone:
      return f.template operator()<ActKind::kNone>();
    case ActKind::kReLU:
      return f.template operator()<ActKind::kReLU>();
    case ActKind::kReLU6:
      return f.template operator()<ActKind::kReLU6>();
    case ActKind::kGELU:
      return f.template operator()<ActKind::kGELU>();
  }
  return f.template operator()<ActKind::kNone>();
}

/// Apply activation `a` to `x` (FP32 path).
inline float apply_activation(ActKind a, float x) {
  return with_activation(a, [x]<ActKind A>() { return activate<A>(x); });
}

/// Number of arithmetic operations the activation costs per element, used by
/// the simulator to account epilogue work.
inline int activation_ops(ActKind a) {
  switch (a) {
    case ActKind::kNone: return 0;
    case ActKind::kReLU: return 1;
    case ActKind::kReLU6: return 2;
    case ActKind::kGELU: return 8;
  }
  return 0;
}

}  // namespace fcm
