// Unit-stride multiply-accumulate loops shared by the kernels' block bodies.
//
// Each loop updates independent accumulators, one per output channel (and
// pixel), with one product per input channel or tap. Vectorising runs across
// outputs, never across a reduction, so GCC -O3 auto-vectorises these loops
// without reassociating any single output's sum: every output keeps
// conv_ref.cpp's summation order and the kernels stay bit-identical to the
// reference for FP32 as well as INT8. INT8 products are widened to exact
// int32 sums, the same values the reference's int32 accumulation (and a
// dp4a) produce.
#pragma once

#include <cstdint>

namespace fcm {

/// acc[i] += x * w[i] for i < n: one input element times a row of weights.
template <typename Acc, typename In>
inline void mac_broadcast(Acc* acc, In x, const In* w, int n) {
  const Acc xv = static_cast<Acc>(x);
  for (int i = 0; i < n; ++i) acc[i] += xv * static_cast<Acc>(w[i]);
}

/// acc[i] += a[i] * b[i] for i < n: per-channel products (depthwise taps).
template <typename Acc, typename In>
inline void mac_elementwise(Acc* acc, const In* a, const In* b, int n) {
  for (int i = 0; i < n; ++i) {
    acc[i] += static_cast<Acc>(a[i]) * static_cast<Acc>(b[i]);
  }
}

namespace detail {

/// Channels [0, kLanes) of one pixel of mac_panel, held in registers across
/// the whole k loop: one weight vector load and one broadcast per step.
template <int kLanes, typename Acc, typename In>
inline void mac_lanes(Acc* acc, const In* x, std::int64_t x_stride,
                      const In* w, int nk, int n) {
  Acc a[kLanes];
  for (int l = 0; l < kLanes; ++l) a[l] = acc[l];
  for (int k = 0; k < nk; ++k) {
    const Acc xv = static_cast<Acc>(x[k * x_stride]);
    const In* wk = w + static_cast<std::int64_t>(k) * n;
    for (int l = 0; l < kLanes; ++l) a[l] += xv * static_cast<Acc>(wk[l]);
  }
  for (int l = 0; l < kLanes; ++l) acc[l] = a[l];
}

}  // namespace detail

/// The GEMM-like update of a pointwise layer over np pixels:
///   acc[p * n + i] += x[k * x_stride + p] * w[k * n + i]
/// for p < np and i < n, with k = 0 .. nk-1 in order for every output. `x`
/// holds nk input rows x_stride elements apart, each with np consecutive
/// pixels; `w` is staged [k][channel]; `acc` is [pixel][channel]. Channels go
/// in register blocks of 16, then 8 (so every multiple of 8 stays in
/// registers), then a broadcast tail.
template <typename Acc, typename In>
void mac_panel(Acc* acc, const In* x, std::int64_t x_stride, const In* w,
               int nk, int np, int n) {
  for (int p = 0; p < np; ++p) {
    Acc* ap = acc + static_cast<std::int64_t>(p) * n;
    int i = 0;
    for (; i + 16 <= n; i += 16) {
      detail::mac_lanes<16>(ap + i, x + p, x_stride, w + i, nk, n);
    }
    if (i + 8 <= n) {
      detail::mac_lanes<8>(ap + i, x + p, x_stride, w + i, nk, n);
      i += 8;
    }
    if (i == n) continue;
    for (int k = 0; k < nk; ++k) {
      mac_broadcast(ap + i, x[k * x_stride + p],
                    w + static_cast<std::int64_t>(k) * n + i, n - i);
    }
  }
}

}  // namespace fcm
