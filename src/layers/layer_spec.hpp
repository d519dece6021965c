// Convolutional layer descriptions.
//
// A LayerSpec carries everything FusePlanner's cost models need (paper §IV:
// "a DAG representing a model or set of layers, their weight and FM
// specifications") and everything the kernels need to execute the layer:
// geometry, stride/padding, and the fused normalisation + activation that an
// FCM absorbs (an FCM combines up to 6 layers: two convs and the norm/act
// following each, paper §III-A).
#pragma once

#include <cstdint>
#include <string>

#include "common/tensor.hpp"
#include "common/types.hpp"

namespace fcm {

/// Convolution flavour. Depthwise applies one k×k filter slice per channel;
/// pointwise applies 1×1 filters across all channels; standard is the dense
/// k×k×C convolution used only by the motivation experiment (Fig. 1).
enum class ConvKind : std::uint8_t { kDepthwise, kPointwise, kStandard };

const char* conv_kind_name(ConvKind k);

/// Activation following the (optional) normalisation.
enum class ActKind : std::uint8_t { kNone, kReLU, kReLU6, kGELU };

const char* act_kind_name(ActKind a);

/// One convolutional layer plus its trailing normalisation/activation.
struct LayerSpec {
  std::string name;
  ConvKind kind = ConvKind::kPointwise;

  // Input feature-map geometry.
  int in_c = 0;
  int in_h = 0;
  int in_w = 0;

  /// Output channels; must equal in_c for depthwise layers.
  int out_c = 0;

  // Filter spatial extent (1×1 for pointwise).
  int kh = 1;
  int kw = 1;
  int stride = 1;
  /// Symmetric zero padding ("same"-style paddings are the norm in the
  /// evaluated models).
  int pad = 0;

  /// Whether a normalisation layer follows (folded to scale+shift at
  /// inference, see BatchNorm).
  bool has_bn = true;
  ActKind act = ActKind::kReLU;

  /// False for layers the planner must never fuse across (e.g. pooling
  /// modelled as a strided depthwise pass, or layers whose output is
  /// consumed outside the conv chain).
  bool allow_fusion = true;

  // --- derived geometry ---------------------------------------------------
  int out_h() const { return (in_h + 2 * pad - kh) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kw) / stride + 1; }

  FmShape ifm_shape() const { return {in_c, in_h, in_w}; }
  FmShape ofm_shape() const { return {out_c, out_h(), out_w()}; }

  /// Weight tensor shape. Depthwise stores one k×k slice per channel.
  FilterShape filter_shape() const {
    if (kind == ConvKind::kDepthwise) return {out_c, 1, kh, kw};
    return {out_c, in_c, kh, kw};
  }

  /// Multiply-accumulate count of the convolution.
  std::int64_t macs() const;

  /// Element counts used by the cost models.
  std::int64_t weights_count() const { return filter_shape().size(); }
  std::int64_t ifm_count() const { return ifm_shape().size(); }
  std::int64_t ofm_count() const { return ofm_shape().size(); }

  /// Throws fcm::Error when the spec is internally inconsistent (e.g. a
  /// depthwise layer with out_c != in_c, or non-1×1 pointwise filters).
  void validate() const;

  friend bool operator==(const LayerSpec&, const LayerSpec&) = default;

  // --- convenience constructors for the shapes the models use --------------
  /// Depthwise k×k stride-s layer with "same" padding.
  static LayerSpec depthwise(std::string name, int c, int h, int w, int k,
                             int stride, ActKind act = ActKind::kReLU);
  /// Pointwise (1×1) layer.
  static LayerSpec pointwise(std::string name, int in_c, int h, int w,
                             int out_c, ActKind act = ActKind::kReLU);
  /// Standard k×k convolution (motivation experiment only).
  static LayerSpec standard(std::string name, int in_c, int h, int w,
                            int out_c, int k, int stride,
                            ActKind act = ActKind::kReLU);
};

}  // namespace fcm
