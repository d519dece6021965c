#include "kernels/fcm_dwpw.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "gpusim/launch.hpp"
#include "kernels/mac_loops.hpp"

namespace fcm {

namespace {

constexpr int kThreads = 256;

template <typename In, typename Ep1, typename Ep2>
gpusim::KernelStats run_dwpw_impl(const gpusim::DeviceSpec& dev,
                                  const LayerSpec& dw, const LayerSpec& pw,
                                  const Tensor<In>& ifm,
                                  const WeightTensor<In>& w_dw,
                                  const WeightTensor<In>& w_pw, const Ep1& ep1,
                                  const Ep2& ep2, Tensor<In>& ofm,
                                  const FcmTiling& t, DType dt) {
  using Acc = std::conditional_t<std::is_same_v<In, float>, float, std::int32_t>;

  dw.validate();
  pw.validate();
  FCM_CHECK(dw.kind == ConvKind::kDepthwise && pw.kind == ConvKind::kPointwise,
            "DWPW: wrong layer kinds");
  FCM_CHECK(pw.ifm_shape() == dw.ofm_shape(), "DWPW: layers do not chain");
  FCM_CHECK(t.valid() && t.chunk_f > 0, "DWPW: invalid tiling");
  FCM_CHECK(ifm.shape() == dw.ifm_shape(), "DWPW: IFM shape");
  FCM_CHECK(ofm.shape() == pw.ofm_shape(), "DWPW: OFM shape");

  const int C = dw.out_c;       // intermediate channels
  const int F2 = pw.out_c;      // module output channels
  const int H = pw.out_h();     // == dw.out_h(): pw is 1x1 stride 1
  const int W = pw.out_w();
  const std::int64_t nh = ceil_div(H, t.tile_h);
  const std::int64_t nw = ceil_div(W, t.tile_w);
  const std::int64_t esz = static_cast<std::int64_t>(dtype_size(dt));

  gpusim::LaunchConfig cfg;
  cfg.grid_blocks = nh * nw;
  cfg.threads_per_block = kThreads;
  cfg.shared_bytes = dwpw_shared_bytes(dw, pw, t, dt);

  auto body = [&](gpusim::BlockContext& ctx) {
    const std::int64_t bid = ctx.block_id();
    const int hi = static_cast<int>(bid / nw);
    const int wi = static_cast<int>(bid % nw);
    const int oh0 = hi * t.tile_h;
    const int hcur = std::min(t.tile_h, H - oh0);
    const int ow0 = wi * t.tile_w;
    const int wcur = std::min(t.tile_w, W - ow0);
    const std::int64_t tile_hw = static_cast<std::int64_t>(t.tile_h) * t.tile_w;

    // Part 1: commBuffer — whole intermediate depth for this spatial tile,
    // laid out [c][local_hw] so PW reads are stride-1 across the hw index.
    auto comm = ctx.shared().template allocate<In>(
        static_cast<std::int64_t>(C) * tile_hw, "commBuffer");

    // Part 2: DW weight staging buffer for one warp-sized channel group.
    const int cg = std::min(C, kWarpSize);
    auto wdws = ctx.shared().template allocate<In>(
        static_cast<std::int64_t>(cg) * dw.kh * dw.kw, "dw_weights");

    // DW IFM tile with halo, clamped: the only IFM traffic of the module.
    const int ih_lo = std::max(0, oh0 * dw.stride - dw.pad);
    const int ih_hi = std::min(dw.in_h,
                               (oh0 + hcur - 1) * dw.stride - dw.pad + dw.kh);
    const int iw_lo = std::max(0, ow0 * dw.stride - dw.pad);
    const int iw_hi = std::min(dw.in_w,
                               (ow0 + wcur - 1) * dw.stride - dw.pad + dw.kw);
    ctx.load_ifm(static_cast<std::int64_t>(C) * (ih_hi - ih_lo) *
                 (iw_hi - iw_lo) * esz);

    // Part 3: DW conv-norm-act into the commBuffer, one channel group at a
    // time — each group's weight slices are prefetched into shared memory
    // just before the group is computed.
    std::int64_t macs1 = 0;
    for (int c = 0; c < C; ++c) {
      if (c % cg == 0) {
        const int gcur = std::min(cg, C - c);
        for (int g = 0; g < gcur; ++g) {
          for (int kh = 0; kh < dw.kh; ++kh) {
            for (int kw = 0; kw < dw.kw; ++kw) {
              wdws[(static_cast<std::size_t>(g) * dw.kh + kh) * dw.kw + kw] =
                  w_dw.at(c + g, 0, kh, kw);
            }
          }
        }
        const std::int64_t gbytes =
            static_cast<std::int64_t>(gcur) * dw.kh * dw.kw * esz;
        ctx.load_weights(gbytes);
        ctx.shared_store(gbytes);
        ctx.shared().note_warp_access(1, ceil_div(gbytes, 4 * kWarpSize));
      }
      const In* ws = &wdws[static_cast<std::size_t>(c % cg) * dw.kh * dw.kw];
      for (int oh = oh0; oh < oh0 + hcur; ++oh) {
        for (int ow = ow0; ow < ow0 + wcur; ++ow) {
          Acc acc = 0;
          const int ih0 = oh * dw.stride - dw.pad;
          const int iw0 = ow * dw.stride - dw.pad;
          for (int kh = 0; kh < dw.kh; ++kh) {
            const int ih = ih0 + kh;
            if (ih < 0 || ih >= dw.in_h) continue;
            for (int kw = 0; kw < dw.kw; ++kw) {
              const int iw = iw0 + kw;
              if (iw < 0 || iw >= dw.in_w) continue;
              acc += static_cast<Acc>(ifm.at(c, ih, iw)) *
                     static_cast<Acc>(ws[kh * dw.kw + kw]);
              ++macs1;
            }
          }
          comm[static_cast<std::size_t>(c) * tile_hw +
               static_cast<std::size_t>(oh - oh0) * t.tile_w + (ow - ow0)] =
              ep1.apply(c, acc);
        }
      }
    }
    const std::int64_t mid_elems = static_cast<std::int64_t>(C) * hcur * wcur;
    ctx.shared_store(mid_elems * esz);
    ctx.shared().note_warp_access(1, ceil_div(mid_elems * esz, 4 * kWarpSize));

    // Part 4: PW conv-norm-act, filters streamed in chunks; the intermediate
    // stays resident in the commBuffer across all chunks. Each chunk's
    // weights are staged transposed, [c][filter], and its partial sums kept
    // [pixel][filter], so the MAC loop runs unit-stride across the chunk's
    // filters while each output still sums over c in order.
    auto wpw_chunk = ctx.shared().template allocate<In>(
        static_cast<std::int64_t>(t.chunk_f) * C, "pw_weights_chunk");
    std::vector<Acc> acc(static_cast<std::size_t>(hcur) * wcur * t.chunk_f);
    std::int64_t macs2 = 0;
    for (int f0 = 0; f0 < F2; f0 += t.chunk_f) {
      const int fcur = std::min(t.chunk_f, F2 - f0);
      for (int f = 0; f < fcur; ++f) {
        const In* src = &w_pw.at(f0 + f, 0, 0, 0);
        for (int c = 0; c < C; ++c) {
          wpw_chunk[static_cast<std::size_t>(c) * fcur + f] = src[c];
        }
      }
      const std::int64_t wbytes = static_cast<std::int64_t>(fcur) * C * esz;
      ctx.load_weights(wbytes);
      ctx.shared_store(wbytes);

      std::fill(acc.begin(), acc.end(), Acc{0});
      for (int oh = 0; oh < hcur; ++oh) {
        mac_panel(&acc[static_cast<std::size_t>(oh) * wcur * fcur],
                  &comm[static_cast<std::size_t>(oh) * t.tile_w], tile_hw,
                  wpw_chunk.data(), C, wcur, fcur);
      }
      for (int f = 0; f < fcur; ++f) {
        for (int oh = 0; oh < hcur; ++oh) {
          ep2.apply_pixels(
              f0 + f, &acc[static_cast<std::size_t>(oh) * wcur * fcur + f],
              fcur, &ofm.at(f0 + f, oh0 + oh, ow0), wcur);
        }
      }
      macs2 += static_cast<std::int64_t>(fcur) * hcur * wcur * C;
    }
    // Shared traffic: PW reads both its weights and the intermediate.
    ctx.shared_load(2 * macs2 * esz + macs1 * esz);

    const std::int64_t outs1 = mid_elems;
    const std::int64_t outs2 = static_cast<std::int64_t>(F2) * hcur * wcur;
    if (dt == DType::kF32) {
      ctx.add_flops(2 * (macs1 + macs2) + outs1 * ep1.ops_per_element() +
                    outs2 * ep2.ops_per_element());
    } else {
      ctx.add_int_ops(2 * (macs1 + macs2));
      ctx.add_flops(outs1 * ep1.ops_per_element() +
                    outs2 * ep2.ops_per_element());
    }
    ctx.global_store(outs2 * esz);
  };

  return launch_kernel(dev, "fcm_dwpw/" + dw.name + "+" + pw.name, cfg, body);
}

}  // namespace

gpusim::KernelStats run_dwpw_f32(const gpusim::DeviceSpec& dev,
                                 const LayerSpec& dw, const LayerSpec& pw,
                                 const TensorF& ifm, const WeightsF& w_dw,
                                 const WeightsF& w_pw, const EpilogueF32& ep1,
                                 const EpilogueF32& ep2, TensorF& ofm,
                                 const FcmTiling& t) {
  return run_dwpw_impl<float>(dev, dw, pw, ifm, w_dw, w_pw, ep1, ep2, ofm, t,
                              DType::kF32);
}

gpusim::KernelStats run_dwpw_i8(const gpusim::DeviceSpec& dev,
                                const LayerSpec& dw, const LayerSpec& pw,
                                const TensorI8& ifm, const WeightsI8& w_dw,
                                const WeightsI8& w_pw, const EpilogueI8& ep1,
                                const EpilogueI8& ep2, TensorI8& ofm,
                                const FcmTiling& t) {
  return run_dwpw_impl<std::int8_t>(dev, dw, pw, ifm, w_dw, w_pw, ep1, ep2,
                                    ofm, t, DType::kI8);
}

}  // namespace fcm
