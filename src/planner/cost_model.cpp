#include "planner/cost_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "layers/activation.hpp"

namespace fcm::planner {

namespace {

constexpr int kThreads = 256;

std::int64_t esz_of(DType dt) {
  return static_cast<std::int64_t>(dtype_size(dt));
}

void fill_precision(gpusim::KernelStats& st, DType dt, std::int64_t conv_ops,
                    std::int64_t epilogue_flops, std::int64_t redundant_ops) {
  if (dt == DType::kF32) {
    st.flops = conv_ops + epilogue_flops;
  } else {
    st.int_ops = conv_ops;
    st.flops = epilogue_flops;
  }
  st.redundant_flops = redundant_ops;
}

}  // namespace

std::int64_t sum_in_extents(int out_total, int tile, int k, int s, int pad,
                            int in_total) {
  const std::int64_t out = out_total, T = tile, K = k, S = s, P = pad;
  const std::int64_t n = ceil_div(out, T);
  const std::int64_t last = out - (n - 1) * T;
  // Unclamped: a tile of `cur` outputs loads (cur − 1)·s + k rows.
  std::int64_t sum = (n - 1) * ((T - 1) * S + K) + (last - 1) * S + K;
  // Tile j's window [j·T·s − pad, (j·T + cur − 1)·s − pad + k) loses what
  // lies above row 0 and below row in_total. Both ends move monotonically
  // with j, so only the first and last few tiles lose anything.
  for (std::int64_t j = 0; j < n && j * T * S < P; ++j) sum -= P - j * T * S;
  for (std::int64_t j = n - 1; j >= 0; --j) {
    const std::int64_t cur = std::min(T, out - j * T);
    const std::int64_t below = (j * T + cur - 1) * S - P + K - in_total;
    if (below <= 0) break;
    sum -= below;
  }
  return sum;
}

std::int64_t sum_taps(int out_total, int k, int s, int pad, int in_total) {
  const std::int64_t out = out_total, K = k, S = s, P = pad, in = in_total;
  std::int64_t sum = out * K;
  // Output o reads taps [o·s − pad, o·s − pad + k). Only the outputs below
  // `top_end` (window starts above row 0) and from `bottom_begin` on (window
  // ends past in_total) lose taps; each is visited once.
  const auto lost = [&](std::int64_t o) {
    const std::int64_t lo = o * S - P;
    const std::int64_t kept =
        std::min(K, in - lo) - std::max<std::int64_t>(0, -lo);
    return K - std::max<std::int64_t>(0, kept);
  };
  const std::int64_t top_end = std::min(out, ceil_div(P, S));
  const std::int64_t bottom_begin =
      std::max(top_end, in + P - K < 0 ? 0 : (in + P - K) / S + 1);
  for (std::int64_t o = 0; o < top_end; ++o) sum -= lost(o);
  for (std::int64_t o = bottom_begin; o < out; ++o) sum -= lost(o);
  return sum;
}

MidExtents mid_extents(int out_total, int tile, int k, int s, int pad,
                       int mid_total) {
  MidExtents m;
  m.total = sum_in_extents(out_total, tile, k, s, pad, mid_total);
  const std::int64_t T = tile, K = k, S = s, P = pad;
  const std::int64_t n = ceil_div(out_total, T);
  // Unclamped: every interior seam repeats max(0, k − s) rows.
  const std::int64_t seam = std::max(0, k - s);
  m.exclusive = m.total - (n - 1) * seam;
  // A tile's redundant rows run from its clamped start to the previous
  // tile's unclamped end; a start clamped to row 0 (j·T·s < pad) changes
  // that count, so only those first few tiles need correcting.
  for (std::int64_t j = 1; j < n && j * T * S < P; ++j) {
    m.exclusive += seam - std::max<std::int64_t>(0, (j * T - 1) * S - P + K);
  }
  return m;
}

std::int64_t epilogue_ops_per_element(const LayerSpec& spec, DType dt) {
  const std::int64_t base = dt == DType::kF32 ? 2 : 5;
  return base + activation_ops(spec.act);
}

gpusim::KernelStats pw_stats(const LayerSpec& spec, const ConvTiling& t,
                             DType dt) {
  FCM_CHECK(spec.kind == ConvKind::kPointwise, "pw_stats: not pointwise");
  FCM_CHECK(t.valid(), "pw_stats: invalid tiling");
  const std::int64_t esz = esz_of(dt);
  const std::int64_t F = spec.out_c, C = spec.in_c;
  const std::int64_t H = spec.out_h(), W = spec.out_w();
  const std::int64_t nf = ceil_div(F, t.tile_f);
  const std::int64_t nh = ceil_div(H, t.tile_h);
  const std::int64_t nw = ceil_div(W, t.tile_w);

  gpusim::KernelStats st;
  const std::int64_t w_loads = nh * nw * F * C;
  const std::int64_t ifm_loads = nf * C * H * W;
  const std::int64_t outs = F * H * W;
  const std::int64_t macs = outs * C;
  st.global_load_bytes = (w_loads + ifm_loads) * esz;
  st.ifm_load_bytes = ifm_loads * esz;
  st.weight_load_bytes = w_loads * esz;
  st.global_store_bytes = outs * esz;
  st.shared_store_bytes = w_loads * esz;
  st.shared_load_bytes = macs * esz;
  fill_precision(st, dt, 2 * macs, outs * epilogue_ops_per_element(spec, dt),
                 0);
  st.num_blocks = nf * nh * nw;
  st.threads_per_block = kThreads;
  st.shared_bytes_per_block = pw_shared_bytes(spec, t, dt);
  st.launches = 1;
  return st;
}

gpusim::KernelStats dw_stats(const LayerSpec& spec, const ConvTiling& t,
                             DType dt) {
  FCM_CHECK(spec.kind == ConvKind::kDepthwise, "dw_stats: not depthwise");
  FCM_CHECK(t.valid(), "dw_stats: invalid tiling");
  const std::int64_t esz = esz_of(dt);
  const std::int64_t C = spec.out_c;
  const std::int64_t H = spec.out_h(), W = spec.out_w();
  const std::int64_t nc = ceil_div(C, t.tile_f);
  const std::int64_t nh = ceil_div(H, t.tile_h);
  const std::int64_t nw = ceil_div(W, t.tile_w);

  const std::int64_t ih_sum = sum_in_extents(static_cast<int>(H), t.tile_h,
                                             spec.kh, spec.stride, spec.pad,
                                             spec.in_h);
  const std::int64_t iw_sum = sum_in_extents(static_cast<int>(W), t.tile_w,
                                             spec.kw, spec.stride, spec.pad,
                                             spec.in_w);
  const std::int64_t taps_h = sum_taps(static_cast<int>(H), spec.kh,
                                       spec.stride, spec.pad, spec.in_h);
  const std::int64_t taps_w = sum_taps(static_cast<int>(W), spec.kw,
                                       spec.stride, spec.pad, spec.in_w);

  gpusim::KernelStats st;
  const std::int64_t w_loads = nh * nw * C * spec.kh * spec.kw;
  const std::int64_t ifm_loads = C * ih_sum * iw_sum;
  const std::int64_t outs = C * H * W;
  const std::int64_t macs = C * taps_h * taps_w;
  st.global_load_bytes = (w_loads + ifm_loads) * esz;
  st.ifm_load_bytes = ifm_loads * esz;
  st.weight_load_bytes = w_loads * esz;
  st.global_store_bytes = outs * esz;
  st.shared_store_bytes = w_loads * esz;
  st.shared_load_bytes = macs * esz;
  fill_precision(st, dt, 2 * macs, outs * epilogue_ops_per_element(spec, dt),
                 0);
  st.num_blocks = nc * nh * nw;
  st.threads_per_block = kThreads;
  st.shared_bytes_per_block = dw_shared_bytes(spec, t, dt);
  st.launches = 1;
  return st;
}

gpusim::KernelStats std_stats(const LayerSpec& spec, const ConvTiling& t,
                              DType dt) {
  FCM_CHECK(spec.kind == ConvKind::kStandard, "std_stats: not standard");
  FCM_CHECK(t.valid(), "std_stats: invalid tiling");
  const std::int64_t esz = esz_of(dt);
  const std::int64_t F = spec.out_c, C = spec.in_c;
  const std::int64_t H = spec.out_h(), W = spec.out_w();
  const std::int64_t nf = ceil_div(F, t.tile_f);
  const std::int64_t nh = ceil_div(H, t.tile_h);
  const std::int64_t nw = ceil_div(W, t.tile_w);

  const std::int64_t ih_sum = sum_in_extents(static_cast<int>(H), t.tile_h,
                                             spec.kh, spec.stride, spec.pad,
                                             spec.in_h);
  const std::int64_t iw_sum = sum_in_extents(static_cast<int>(W), t.tile_w,
                                             spec.kw, spec.stride, spec.pad,
                                             spec.in_w);
  const std::int64_t taps_h = sum_taps(static_cast<int>(H), spec.kh,
                                       spec.stride, spec.pad, spec.in_h);
  const std::int64_t taps_w = sum_taps(static_cast<int>(W), spec.kw,
                                       spec.stride, spec.pad, spec.in_w);

  gpusim::KernelStats st;
  const std::int64_t w_loads = nh * nw * F * C * spec.kh * spec.kw;
  const std::int64_t ifm_loads = nf * C * ih_sum * iw_sum;
  const std::int64_t outs = F * H * W;
  const std::int64_t macs = F * C * taps_h * taps_w;
  st.global_load_bytes = (w_loads + ifm_loads) * esz;
  st.ifm_load_bytes = ifm_loads * esz;
  st.weight_load_bytes = w_loads * esz;
  st.global_store_bytes = outs * esz;
  st.shared_store_bytes = w_loads * esz;
  st.shared_load_bytes = macs * esz;
  fill_precision(st, dt, 2 * macs, outs * epilogue_ops_per_element(spec, dt),
                 0);
  st.num_blocks = nf * nh * nw;
  st.threads_per_block = kThreads;
  st.shared_bytes_per_block = std_shared_bytes(spec, t, dt);
  st.launches = 1;
  return st;
}

gpusim::KernelStats lbl_stats(const LayerSpec& spec, const ConvTiling& t,
                              DType dt) {
  switch (spec.kind) {
    case ConvKind::kPointwise: return pw_stats(spec, t, dt);
    case ConvKind::kDepthwise: return dw_stats(spec, t, dt);
    case ConvKind::kStandard: return std_stats(spec, t, dt);
  }
  throw Error("lbl_stats: bad kind");
}

namespace {

gpusim::KernelStats dwpw_stats(const LayerSpec& dw, const LayerSpec& pw,
                               const FcmTiling& t, DType dt) {
  const std::int64_t esz = esz_of(dt);
  const std::int64_t C = dw.out_c, F2 = pw.out_c;
  const std::int64_t H = pw.out_h(), W = pw.out_w();
  const std::int64_t nh = ceil_div(H, t.tile_h);
  const std::int64_t nw = ceil_div(W, t.tile_w);

  const std::int64_t ih_sum = sum_in_extents(
      static_cast<int>(H), t.tile_h, dw.kh, dw.stride, dw.pad, dw.in_h);
  const std::int64_t iw_sum = sum_in_extents(
      static_cast<int>(W), t.tile_w, dw.kw, dw.stride, dw.pad, dw.in_w);
  const std::int64_t taps_h =
      sum_taps(static_cast<int>(H), dw.kh, dw.stride, dw.pad, dw.in_h);
  const std::int64_t taps_w =
      sum_taps(static_cast<int>(W), dw.kw, dw.stride, dw.pad, dw.in_w);

  gpusim::KernelStats st;
  const std::int64_t w_loads =
      nh * nw * (C * dw.kh * dw.kw + F2 * C);
  const std::int64_t ifm_loads = C * ih_sum * iw_sum;
  const std::int64_t outs = F2 * H * W;
  const std::int64_t mid = C * H * W;
  const std::int64_t macs1 = C * taps_h * taps_w;
  const std::int64_t macs2 = outs * C;
  st.global_load_bytes = (w_loads + ifm_loads) * esz;
  st.ifm_load_bytes = ifm_loads * esz;
  st.weight_load_bytes = w_loads * esz;
  st.global_store_bytes = outs * esz;
  st.shared_store_bytes = (w_loads + mid) * esz;
  st.shared_load_bytes = (macs1 + 2 * macs2) * esz;
  const std::int64_t ep_flops =
      mid * epilogue_ops_per_element(dw, dt) +
      outs * epilogue_ops_per_element(pw, dt);
  fill_precision(st, dt, 2 * (macs1 + macs2), ep_flops, 0);
  st.num_blocks = nh * nw;
  st.threads_per_block = kThreads;
  st.shared_bytes_per_block = dwpw_shared_bytes(dw, pw, t, dt);
  st.launches = 1;
  return st;
}

gpusim::KernelStats pwdw_stats(const LayerSpec& pw, const LayerSpec& dw,
                               const FcmTiling& t, DType dt) {
  FCM_CHECK(t.tile_c > 0, "pwdw_stats: tile_c required");
  const std::int64_t esz = esz_of(dt);
  const std::int64_t C1 = pw.in_c, C2 = pw.out_c;
  const std::int64_t H = dw.out_h(), W = dw.out_w();
  const std::int64_t nc = ceil_div(C2, t.tile_c);
  const std::int64_t nh = ceil_div(H, t.tile_h);
  const std::int64_t nw = ceil_div(W, t.tile_w);

  const MidExtents mh = mid_extents(static_cast<int>(H), t.tile_h, dw.kh,
                                    dw.stride, dw.pad, dw.in_h);
  const MidExtents mw = mid_extents(static_cast<int>(W), t.tile_w, dw.kw,
                                    dw.stride, dw.pad, dw.in_w);
  const std::int64_t taps_h =
      sum_taps(static_cast<int>(H), dw.kh, dw.stride, dw.pad, dw.in_h);
  const std::int64_t taps_w =
      sum_taps(static_cast<int>(W), dw.kw, dw.stride, dw.pad, dw.in_w);

  gpusim::KernelStats st;
  const std::int64_t w_loads = nh * nw * (C2 * C1 + C2 * dw.kh * dw.kw);
  const std::int64_t ifm_loads = nc * C1 * mh.total * mw.total;
  const std::int64_t outs = C2 * H * W;
  const std::int64_t mid = C2 * mh.total * mw.total;
  const std::int64_t macs1 = C2 * C1 * mh.total * mw.total;
  const std::int64_t red_macs =
      C2 * C1 * (mh.total * mw.total - mh.exclusive * mw.exclusive);
  const std::int64_t macs2 = C2 * taps_h * taps_w;
  st.global_load_bytes = (w_loads + ifm_loads) * esz;
  st.ifm_load_bytes = ifm_loads * esz;
  st.weight_load_bytes = w_loads * esz;
  st.global_store_bytes = outs * esz;
  st.shared_store_bytes = (w_loads + mid) * esz;
  st.shared_load_bytes = (macs1 + 2 * macs2) * esz;
  const std::int64_t ep_flops =
      mid * epilogue_ops_per_element(pw, dt) +
      outs * epilogue_ops_per_element(dw, dt);
  fill_precision(st, dt, 2 * (macs1 + macs2), ep_flops, 2 * red_macs);
  st.num_blocks = nc * nh * nw;
  st.threads_per_block = kThreads;
  st.shared_bytes_per_block = pwdw_shared_bytes(pw, dw, t, dt);
  st.launches = 1;
  return st;
}

gpusim::KernelStats pwpw_stats(const LayerSpec& pw1, const LayerSpec& pw2,
                               const FcmTiling& t, DType dt) {
  const std::int64_t esz = esz_of(dt);
  const std::int64_t C1 = pw1.in_c, C2 = pw1.out_c, F2 = pw2.out_c;
  const std::int64_t H = pw2.out_h(), W = pw2.out_w();
  const std::int64_t nh = ceil_div(H, t.tile_h);
  const std::int64_t nw = ceil_div(W, t.tile_w);

  gpusim::KernelStats st;
  const std::int64_t w_loads = nh * nw * (C2 * C1 + F2 * C2);
  const std::int64_t ifm_loads = C1 * H * W;
  const std::int64_t outs = F2 * H * W;
  const std::int64_t mid = C2 * H * W;
  const std::int64_t macs1 = mid * C1;
  const std::int64_t macs2 = outs * C2;
  st.global_load_bytes = (w_loads + ifm_loads) * esz;
  st.ifm_load_bytes = ifm_loads * esz;
  st.weight_load_bytes = w_loads * esz;
  st.global_store_bytes = outs * esz;
  st.shared_store_bytes = (w_loads + mid) * esz;
  st.shared_load_bytes = (macs1 + 2 * macs2) * esz;
  const std::int64_t ep_flops =
      mid * epilogue_ops_per_element(pw1, dt) +
      outs * epilogue_ops_per_element(pw2, dt);
  fill_precision(st, dt, 2 * (macs1 + macs2), ep_flops, 0);
  st.num_blocks = nh * nw;
  st.threads_per_block = kThreads;
  st.shared_bytes_per_block = pwpw_shared_bytes(pw1, pw2, t, dt);
  st.launches = 1;
  return st;
}

}  // namespace

gpusim::KernelStats fcm_stats(FcmKind kind, const LayerSpec& first,
                              const LayerSpec& second, const FcmTiling& t,
                              DType dt) {
  FCM_CHECK(t.valid(), "fcm_stats: invalid tiling");
  switch (kind) {
    case FcmKind::kDwPw:
      return dwpw_stats(first, second, t, dt);
    case FcmKind::kPwDw:
    case FcmKind::kPwDwR:
      return pwdw_stats(first, second, t, dt);
    case FcmKind::kPwPw:
      return pwpw_stats(first, second, t, dt);
    case FcmKind::kPwDwPw:
      throw Error("fcm_stats: kPwDwPw is a three-layer module, use pwdwpw_stats");
  }
  throw Error("fcm_stats: bad kind");
}

gpusim::KernelStats pwdwpw_stats(const LayerSpec& pw1, const LayerSpec& dw,
                                 const LayerSpec& pw2, const FcmTiling& t,
                                 DType dt) {
  FCM_CHECK(t.valid() && t.chunk_f > 0, "pwdwpw_stats: invalid tiling");
  const std::int64_t esz = esz_of(dt);
  const std::int64_t C1 = pw1.in_c, C2 = pw1.out_c, F3 = pw2.out_c;
  const std::int64_t H = pw2.out_h(), W = pw2.out_w();
  const std::int64_t nh = ceil_div(H, t.tile_h);
  const std::int64_t nw = ceil_div(W, t.tile_w);

  const MidExtents mh = mid_extents(static_cast<int>(H), t.tile_h, dw.kh,
                                    dw.stride, dw.pad, dw.in_h);
  const MidExtents mw = mid_extents(static_cast<int>(W), t.tile_w, dw.kw,
                                    dw.stride, dw.pad, dw.in_w);
  const std::int64_t taps_h =
      sum_taps(static_cast<int>(H), dw.kh, dw.stride, dw.pad, dw.in_h);
  const std::int64_t taps_w =
      sum_taps(static_cast<int>(W), dw.kw, dw.stride, dw.pad, dw.in_w);

  gpusim::KernelStats st;
  const std::int64_t w_loads =
      nh * nw * (C2 * C1 + C2 * dw.kh * dw.kw + F3 * C2);
  const std::int64_t ifm_loads = C1 * mh.total * mw.total;
  const std::int64_t outs = F3 * H * W;
  const std::int64_t mid1 = C2 * mh.total * mw.total;
  const std::int64_t mid2 = C2 * H * W;
  const std::int64_t macs1 = C2 * C1 * mh.total * mw.total;
  const std::int64_t macs2 = C2 * taps_h * taps_w;
  const std::int64_t macs3 = outs * C2;
  const std::int64_t red_macs =
      C2 * C1 * (mh.total * mw.total - mh.exclusive * mw.exclusive);
  st.global_load_bytes = (w_loads + ifm_loads) * esz;
  st.ifm_load_bytes = ifm_loads * esz;
  st.weight_load_bytes = w_loads * esz;
  st.global_store_bytes = outs * esz;
  st.shared_store_bytes = (w_loads + mid1 + mid2) * esz;
  st.shared_load_bytes = (macs1 + 2 * macs2 + 2 * macs3) * esz;
  const std::int64_t ep_flops = mid1 * epilogue_ops_per_element(pw1, dt) +
                                mid2 * epilogue_ops_per_element(dw, dt) +
                                outs * epilogue_ops_per_element(pw2, dt);
  fill_precision(st, dt, 2 * (macs1 + macs2 + macs3), ep_flops, 2 * red_macs);
  st.num_blocks = nh * nw;
  st.threads_per_block = kThreads;
  st.shared_bytes_per_block = pwdwpw_shared_bytes(pw1, dw, pw2, t, dt);
  st.launches = 1;
  return st;
}

namespace paper_eq {

std::int64_t overlap(int channel_w, int channel_h, int tile_w, int tile_h,
                     int filter_w, int filter_h, int stride) {
  const std::int64_t col_strips =
      (ceil_div(channel_w, tile_w) - 1) *
      std::max(0, filter_w - stride) * static_cast<std::int64_t>(channel_h);
  const std::int64_t row_strips =
      (ceil_div(channel_h, tile_h) - 1) *
      std::max(0, filter_h - stride) * static_cast<std::int64_t>(channel_w);
  return col_strips + row_strips;
}

std::int64_t pw_gma(const LayerSpec& pw, const ConvTiling& t) {
  const std::int64_t weight_tiles = ceil_div(pw.out_c, t.tile_f);
  const std::int64_t spatial_tiles =
      ceil_div(pw.out_h(), t.tile_h) * ceil_div(pw.out_w(), t.tile_w);
  return weight_tiles * pw.ifm_count() + pw.ofm_count() +
         spatial_tiles * pw.weights_count();
}

std::int64_t dw_gma(const LayerSpec& dw, const ConvTiling& t) {
  // Eq. 1 overlap is measured on the IFM grid; a tile_h×tile_w OFM tile spans
  // tile_h·stride input rows.
  const std::int64_t ov =
      overlap(dw.in_w, dw.in_h, t.tile_w * dw.stride, t.tile_h * dw.stride,
              dw.kw, dw.kh, dw.stride);
  const std::int64_t spatial_tiles =
      ceil_div(dw.out_h(), t.tile_h) * ceil_div(dw.out_w(), t.tile_w);
  return 2 * static_cast<std::int64_t>(dw.in_c) * ov + dw.ifm_count() +
         dw.ofm_count() + spatial_tiles * dw.weights_count();
}

std::int64_t pwdw_gma(const LayerSpec& pw, const LayerSpec& dw,
                      const FcmTiling& t) {
  // Eq. 4, with the weight-reload factors read operationally (weight tiles
  // are per-channel-slice, so both layers' split factor is ⌈C2/tile_c⌉ and
  // each spatial tile streams one full copy of the layer's weights).
  const std::int64_t channel_tiles = ceil_div(pw.out_c, t.tile_c);
  const std::int64_t spatial_tiles =
      ceil_div(dw.out_h(), t.tile_h) * ceil_div(dw.out_w(), t.tile_w);
  const std::int64_t ov =
      overlap(dw.in_w, dw.in_h, t.tile_w * dw.stride, t.tile_h * dw.stride,
              dw.kw, dw.kh, dw.stride);
  return (2 * static_cast<std::int64_t>(pw.in_c) * ov + pw.ifm_count()) *
             channel_tiles +
         spatial_tiles * (pw.weights_count() + dw.weights_count()) +
         dw.ofm_count();
}

}  // namespace paper_eq

}  // namespace fcm::planner
