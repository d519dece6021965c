// Reference (naive, obviously-correct) convolution implementations.
//
// Every simulated kernel — LBL, FCM, and the cuDNN-like baselines — is
// verified against these loops in the test suite. They handle all three conv
// kinds with arbitrary stride/padding and apply the same fused epilogue the
// optimised kernels use.
#pragma once

#include "common/tensor.hpp"
#include "kernels/epilogue.hpp"
#include "layers/layer_spec.hpp"

namespace fcm {

/// FP32 reference: direct convolution + epilogue.
TensorF conv_ref_f32(const LayerSpec& spec, const TensorF& ifm,
                     const WeightsF& w, const EpilogueF32& ep);

/// INT8 reference: int32 accumulation + quantising epilogue.
TensorI8 conv_ref_i8(const LayerSpec& spec, const TensorI8& ifm,
                     const WeightsI8& w, const EpilogueI8& ep);

/// INT8 reference returning the raw int32 accumulators (pre-epilogue); used
/// to validate the int32 accumulation bit-exactly.
TensorI32 conv_ref_i8_acc(const LayerSpec& spec, const TensorI8& ifm,
                          const WeightsI8& w);

}  // namespace fcm
