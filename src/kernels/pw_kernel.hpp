// Layer-by-layer pointwise (1×1) convolution kernel.
//
// Output-Stationary / Local-Weight-Stationary dataflow (paper §IV-A
// assumption 2): each thread block owns one (filter-tile, spatial-tile) pair,
// stages its weight tile in shared memory (skeleton Part 2), keeps partial
// sums in registers, and writes each OFM element exactly once. The traffic
// this kernel reports is, by construction, the operational form of the
// paper's Eq. 2:
//   loads  = ⌈F/tile_f⌉ · IFMsSz  +  ⌈HW/tile_hw⌉ · WeightsSz
//   stores = OFMsSz
#pragma once

#include "common/tensor.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_stats.hpp"
#include "kernels/epilogue.hpp"
#include "kernels/tiling.hpp"
#include "layers/layer_spec.hpp"

namespace fcm {

/// FP32 pointwise conv + fused norm/activation. `ofm` must be pre-shaped to
/// spec.ofm_shape(). Returns the launch's stats.
gpusim::KernelStats run_pw_f32(const gpusim::DeviceSpec& dev,
                               const LayerSpec& spec, const TensorF& ifm,
                               const WeightsF& w, const EpilogueF32& ep,
                               TensorF& ofm, const ConvTiling& t);

/// INT8 pointwise conv (exact int32 accumulation) + quantising epilogue.
gpusim::KernelStats run_pw_i8(const gpusim::DeviceSpec& dev,
                              const LayerSpec& spec, const TensorI8& ifm,
                              const WeightsI8& w, const EpilogueI8& ep,
                              TensorI8& ofm, const ConvTiling& t);

}  // namespace fcm
