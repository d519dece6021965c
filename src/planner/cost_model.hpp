// FusePlanner cost models (paper §IV).
//
// Two families live here:
//
//  1. *Operational* estimators — predict, without touching any data, exactly
//     the KernelStats the simulated kernels will report for a given tiling
//     (including boundary-tile clamping and padding effects). These are what
//     FusePlanner optimises over, and the test suite asserts they equal the
//     kernels' measured stats bit-for-bit.
//
//  2. The paper's closed-form equations (Eq. 1 overlap, Eq. 2 PwGMA, Eq. 3
//     DwGMA, Eq. 4 PwDwGMA) — kept in their published (unclamped) form under
//     `paper_eq` for documentation and for the fidelity tests that check the
//     closed forms track the operational counts.
#pragma once

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_stats.hpp"
#include "kernels/tiling.hpp"
#include "layers/layer_spec.hpp"

namespace fcm::planner {

/// FP32 epilogue = scale+shift+act; INT8 adds rescale/round/clamp.
std::int64_t epilogue_ops_per_element(const LayerSpec& spec, DType dt);

/// Operational stats of the LBL pointwise kernel under tiling `t`.
gpusim::KernelStats pw_stats(const LayerSpec& spec, const ConvTiling& t,
                             DType dt);

/// Operational stats of the LBL depthwise kernel.
gpusim::KernelStats dw_stats(const LayerSpec& spec, const ConvTiling& t,
                             DType dt);

/// Operational stats of the LBL standard-conv kernel (FP32 only path).
gpusim::KernelStats std_stats(const LayerSpec& spec, const ConvTiling& t,
                              DType dt);

/// Operational stats of any LBL kernel (dispatch on spec.kind).
gpusim::KernelStats lbl_stats(const LayerSpec& spec, const ConvTiling& t,
                              DType dt);

/// Operational stats of an FCM kernel of `kind` fusing `first`→`second`.
/// (kPwDwPw is a three-layer module; use pwdwpw_stats.)
gpusim::KernelStats fcm_stats(FcmKind kind, const LayerSpec& first,
                              const LayerSpec& second, const FcmTiling& t,
                              DType dt);

/// Operational stats of the PWDWPW triple module (library extension).
gpusim::KernelStats pwdwpw_stats(const LayerSpec& pw1, const LayerSpec& dw,
                                 const LayerSpec& pw2, const FcmTiling& t,
                                 DType dt);

// --- border-clamped extent sums ---------------------------------------------
// The exact stats above sum, per spatial dimension, what each tile or output
// reads once its window is clamped to the input. Each sum is its unclamped
// closed form minus the clamping corrections, which only the few tiles or
// outputs whose window crosses a border at either end contribute.
// Arithmetic is in int64; tile, k and s are >= 1.

/// Σ over the ⌈out_total/tile⌉ tiles of the clamped, halo'd input extent —
/// the exact per-block IFM rows (or cols) the kernels load.
std::int64_t sum_in_extents(int out_total, int tile, int k, int s, int pad,
                            int in_total);

/// Σ over output positions of the number of in-bounds filter taps.
std::int64_t sum_taps(int out_total, int k, int s, int pad, int in_total);

/// Intermediate extents of the PWDW kernels along one dimension.
struct MidExtents {
  std::int64_t total = 0;      ///< Σ over tiles of the clamped extent
  std::int64_t exclusive = 0;  ///< the same minus rows the previous tile owns
};

/// Per-dimension intermediate extents of the PWDW kernels, with the
/// primary-owner redundancy attribution the kernel uses.
MidExtents mid_extents(int out_total, int tile, int k, int s, int pad,
                       int mid_total);

// --- the paper's closed forms, element (not byte) counts --------------------
namespace paper_eq {

/// Eq. (1): per-channel overlap element count between adjacent IFM tiles.
std::int64_t overlap(int channel_w, int channel_h, int tile_w, int tile_h,
                     int filter_w, int filter_h, int stride);

/// Eq. (2): pointwise GMA in elements for OFM tile (tile_f × tile_h × tile_w).
std::int64_t pw_gma(const LayerSpec& pw, const ConvTiling& t);

/// Eq. (3): depthwise GMA in elements.
std::int64_t dw_gma(const LayerSpec& dw, const ConvTiling& t);

/// Eq. (4): PWDW(_R) fused GMA in elements.
std::int64_t pwdw_gma(const LayerSpec& pw, const LayerSpec& dw,
                      const FcmTiling& t);

}  // namespace paper_eq

}  // namespace fcm::planner
