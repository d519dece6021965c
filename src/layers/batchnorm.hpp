// Inference-time batch normalisation, folded to per-channel scale + shift.
//
// The FCM kernels fuse conv → norm → activation in a single pass (paper
// §III-B, "a fused convolution-normalization-activation operation is
// applied"), so normalisation is represented in the form the kernels consume:
// y[c] = x[c] * scale[c] + shift[c], with
//   scale = gamma / sqrt(var + eps),  shift = beta - mean * scale.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace fcm {

/// Folded batch-norm parameters for one layer.
class BatchNorm {
 public:
  BatchNorm() = default;

  /// Identity normalisation over `channels` (scale 1, shift 0) — used when a
  /// layer has no norm but the kernels want a uniform epilogue.
  static BatchNorm identity(int channels);

  /// Fold raw BN statistics into scale/shift.
  static BatchNorm fold(const std::vector<float>& gamma,
                        const std::vector<float>& beta,
                        const std::vector<float>& mean,
                        const std::vector<float>& var, float eps = 1e-5f);

  /// Deterministic pseudo-random parameters (for tests/benches); scales kept
  /// near 1 so INT8 requantisation stays in range.
  static BatchNorm random(int channels, std::uint64_t seed);

  int channels() const { return static_cast<int>(scale_.size()); }
  float scale(int c) const { return scale_[static_cast<std::size_t>(c)]; }
  float shift(int c) const { return shift_[static_cast<std::size_t>(c)]; }
  /// Per-channel scales and shifts, channels() of each.
  const float* scales() const { return scale_.data(); }
  const float* shifts() const { return shift_.data(); }

  /// y = x * scale[c] + shift[c]
  float apply(int c, float x) const { return affine(x, scale(c), shift(c)); }

  /// The normalisation of one element, for callers that hold its channel's
  /// scale and shift already.
  static float affine(float x, float scale, float shift) {
    return x * scale + shift;
  }

 private:
  std::vector<float> scale_;
  std::vector<float> shift_;
};

}  // namespace fcm
