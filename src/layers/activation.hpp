// Activation functions applied by the fused conv-norm-activation epilogue.
#pragma once

#include <cmath>

#include "layers/layer_spec.hpp"

namespace fcm {

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
    const float t = std::tanh(c * (x + 0.044715f * x * x * x));
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
