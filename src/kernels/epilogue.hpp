// Fused normalisation + activation epilogues.
//
// Every kernel in this library — LBL and FCM alike — applies the layer's
// norm and activation in the same pass that produces the convolution result
// (the paper's "Compute Conv-Norm-Activation" skeleton steps), so the
// epilogue is factored out here once for both precisions.
//
// INT8 quantisation scheme (symmetric, per-tensor scales, the common
// inference setup): real = q * scale. A convolution of int8 inputs and
// weights accumulates exactly in int32; the epilogue rescales the int32
// accumulator to real, applies BN + activation in FP32, then requantises to
// the layer's output scale with saturation. LBL and FCM paths share this
// code, which is what makes the FCM-equals-LBL bit-exactness tests possible.
//
// Each epilogue has one per-element step. `apply()` runs it on one element;
// the row entry points run it over a row of outputs with the activation
// chosen once per row, so the compiler can vectorise the row for every
// activation (GELU's tanh is the branch-free tanh_f32, not a libm call that
// would keep the row scalar). The step's constants are copied into locals
// first: an int8 store may alias any object, and would otherwise force them
// to be reloaded after every element.
#pragma once

#include <cmath>
#include <cstdint>

#include "layers/activation.hpp"
#include "layers/batchnorm.hpp"
#include "layers/layer_spec.hpp"

namespace fcm {

/// Symmetric per-tensor quantisation parameters of one layer.
struct QuantParams {
  float in_scale = 1.0f;   ///< real = q_in  * in_scale
  float w_scale = 1.0f;    ///< real = q_w   * w_scale
  float out_scale = 1.0f;  ///< real = q_out * out_scale

  /// real = acc * acc_scale() for an int32 accumulator of q_in * q_w.
  float acc_scale() const { return in_scale * w_scale; }
  /// q_out = round(real * out_inv_scale()).
  float out_inv_scale() const { return 1.0f / out_scale; }
};

/// sat8(round(v)) for a real value already divided by the output scale:
/// rounds half away from zero as std::lroundf does, and saturates to
/// [-128, 127]. Adding the largest float below 0.5, with v's sign, and
/// truncating rounds every float exactly. The clamp runs before the
/// conversion: it saturates every larger magnitude, +inf and v >= 2^63
/// (where lroundf overflows) included, and takes NaN to -128.
inline std::int8_t requantize_i8(float v) {
  float t = v + std::copysign(0.49999997f, v);
  t = t > -128.5f ? t : -128.5f;
  t = t < 127.5f ? t : 127.5f;
  return static_cast<std::int8_t>(static_cast<int>(t));
}

namespace detail {

/// act(bn(x)) for one element of a channel with the given scale and shift:
/// the BatchNorm + activation formula of both precisions.
template <ActKind A>
inline float norm_act(float x, float scale, float shift) {
  return activate<A>(BatchNorm::affine(x, scale, shift));
}

/// The FP32 step: y = act(bn(acc)).
struct StepF32 {
  using Acc = float;
  using Out = float;
  static constexpr std::int64_t kOps = 2;  // scale + shift

  template <ActKind A>
  float run(float acc, float scale, float shift) const {
    return norm_act<A>(acc, scale, shift);
  }
};

/// The INT8 step: y_q = sat8(round(act(bn(acc * acc_scale)) * out_inv_scale)).
struct StepI8 {
  using Acc = std::int32_t;
  using Out = std::int8_t;
  static constexpr std::int64_t kOps = 5;  // scale + shift, rescale, requant

  float acc_scale;
  float out_inv_scale;

  template <ActKind A>
  std::int8_t run(std::int32_t acc, float scale, float shift) const {
    return requantize_i8(
        norm_act<A>(static_cast<float>(acc) * acc_scale, scale, shift) *
        out_inv_scale);
  }
};

/// An epilogue over `Step`: the layer's norm and activation plus the step's
/// constants.
template <typename Step>
class Epilogue {
 public:
  using Acc = typename Step::Acc;
  using Out = typename Step::Out;

  Epilogue(const BatchNorm& bn, ActKind act, Step step)
      : bn_(&bn), act_(act), step_(step) {}

  /// The epilogue of one accumulator of output channel `channel`.
  Out apply(int channel, Acc acc) const {
    return with_activation(act_, [&]<ActKind A>() {
      return step_.template run<A>(acc, bn_->scale(channel),
                                   bn_->shift(channel));
    });
  }

  /// out[i] = apply(c0 + i, acc[i]) for i < n: consecutive channels of one
  /// pixel.
  void apply_channels(int c0, const Acc* acc, Out* out, int n) const {
    with_activation(act_, [&]<ActKind A>() {
      const Step step = step_;
      const float* scale = bn_->scales() + c0;
      const float* shift = bn_->shifts() + c0;
      for (int i = 0; i < n; ++i) {
        out[i] = step.template run<A>(acc[i], scale[i], shift[i]);
      }
    });
  }

  /// out[i] = apply(c, acc[i * acc_stride]) for i < n: one channel over n
  /// pixels, such as one NCHW output row of a [pixel][channel] accumulator.
  void apply_pixels(int c, const Acc* acc, std::int64_t acc_stride, Out* out,
                    int n) const {
    with_activation(act_, [&]<ActKind A>() {
      const Step step = step_;
      const float scale = bn_->scale(c);
      const float shift = bn_->shift(c);
      for (int i = 0; i < n; ++i) {
        out[i] = step.template run<A>(acc[i * acc_stride], scale, shift);
      }
    });
  }

  /// Arithmetic cost per output element: the step's ops plus the
  /// activation's.
  std::int64_t ops_per_element() const {
    return Step::kOps + activation_ops(act_);
  }

 private:
  const BatchNorm* bn_;
  ActKind act_;
  Step step_;
};

}  // namespace detail

/// FP32 epilogue: y = act(bn(acc)).
class EpilogueF32 : public detail::Epilogue<detail::StepF32> {
 public:
  EpilogueF32(const BatchNorm& bn, ActKind act) : Epilogue(bn, act, {}) {}
};

/// INT8 epilogue:
///   y_q = sat8(round(act(bn(acc * in_scale * w_scale)) / out_scale)).
class EpilogueI8 : public detail::Epilogue<detail::StepI8> {
 public:
  EpilogueI8(const BatchNorm& bn, ActKind act, const QuantParams& q)
      : Epilogue(bn, act, {q.acc_scale(), q.out_inv_scale()}) {}
};

}  // namespace fcm
