#include "kernels/fcm_pwdw.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "gpusim/launch.hpp"
#include "kernels/mac_loops.hpp"

namespace fcm {

namespace {

constexpr int kThreads = 256;

template <typename In, typename Ep1, typename Ep2>
gpusim::KernelStats run_pwdw_impl(const gpusim::DeviceSpec& dev,
                                  const LayerSpec& pw, const LayerSpec& dw,
                                  const Tensor<In>& ifm,
                                  const WeightTensor<In>& w_pw,
                                  const WeightTensor<In>& w_dw, const Ep1& ep1,
                                  const Ep2& ep2, Tensor<In>& ofm,
                                  const FcmTiling& t, DType dt) {
  using Acc = std::conditional_t<std::is_same_v<In, float>, float, std::int32_t>;

  pw.validate();
  dw.validate();
  FCM_CHECK(pw.kind == ConvKind::kPointwise && dw.kind == ConvKind::kDepthwise,
            "PWDW: wrong layer kinds");
  FCM_CHECK(dw.ifm_shape() == pw.ofm_shape(), "PWDW: layers do not chain");
  FCM_CHECK(t.valid() && t.tile_c > 0, "PWDW: invalid tiling");
  FCM_CHECK(ifm.shape() == pw.ifm_shape(), "PWDW: IFM shape");
  FCM_CHECK(ofm.shape() == dw.ofm_shape(), "PWDW: OFM shape");

  const int C1 = pw.in_c;    // module input channels
  const int C2 = pw.out_c;   // intermediate channels == dw channels
  const int H = dw.out_h();  // module output spatial
  const int W = dw.out_w();
  const int Hm = dw.in_h;    // intermediate spatial
  const int Wm = dw.in_w;
  const std::int64_t nc = ceil_div(C2, t.tile_c);
  const std::int64_t nh = ceil_div(H, t.tile_h);
  const std::int64_t nw = ceil_div(W, t.tile_w);
  const std::int64_t esz = static_cast<std::int64_t>(dtype_size(dt));
  const int mid_tw = in_extent(t.tile_w, dw.kw, dw.stride);
  // Rolling line buffer: only the last kh intermediate rows are resident.
  const std::int64_t comm_rows = dw.kh;

  gpusim::LaunchConfig cfg;
  cfg.grid_blocks = nc * nh * nw;
  cfg.threads_per_block = kThreads;
  cfg.shared_bytes = pwdw_shared_bytes(pw, dw, t, dt);

  auto body = [&](gpusim::BlockContext& ctx) {
    const std::int64_t bid = ctx.block_id();
    const int ci = static_cast<int>(bid / (nh * nw));
    const int hi = static_cast<int>((bid / nw) % nh);
    const int wi = static_cast<int>(bid % nw);

    const int c0 = ci * t.tile_c;
    const int ccur = std::min(t.tile_c, C2 - c0);
    const int oh0 = hi * t.tile_h;
    const int hcur = std::min(t.tile_h, H - oh0);
    const int ow0 = wi * t.tile_w;
    const int wcur = std::min(t.tile_w, W - ow0);

    // Intermediate region this block needs (clamped to the image).
    const int mh_lo = std::max(0, oh0 * dw.stride - dw.pad);
    const int mh_hi = std::min(Hm, (oh0 + hcur - 1) * dw.stride - dw.pad + dw.kh);
    const int mw_lo = std::max(0, ow0 * dw.stride - dw.pad);
    const int mw_hi = std::min(Wm, (ow0 + wcur - 1) * dw.stride - dw.pad + dw.kw);
    const int mh_cnt = mh_hi - mh_lo;
    const int mw_cnt = mw_hi - mw_lo;

    // Halo rows/cols also produced by the preceding spatial block — these are
    // the redundant computations of PWDW_R (zero when nh == nw == 1).
    const int red_h =
        hi > 0 ? std::max(0, ((oh0 - 1) * dw.stride - dw.pad + dw.kh) - mh_lo)
               : 0;
    const int red_w =
        wi > 0 ? std::max(0, ((ow0 - 1) * dw.stride - dw.pad + dw.kw) - mw_lo)
               : 0;
    const std::int64_t red_elems =
        static_cast<std::int64_t>(mh_cnt) * mw_cnt -
        static_cast<std::int64_t>(mh_cnt - red_h) * (mw_cnt - red_w);

    // Part 1: rolling commBuffer — kh intermediate rows of the tile's
    // channels, laid out [row slot][mw][c] (row r lives in slot r % kh) so
    // both layers' MAC loops run unit-stride across channels.
    auto comm = ctx.shared().template allocate<In>(
        static_cast<std::int64_t>(t.tile_c) * comm_rows * mid_tw,
        "commBuffer");
    auto comm_px = [&](int mh, int mw) -> In* {
      return &comm[(static_cast<std::size_t>(mh % dw.kh) * mid_tw +
                    static_cast<std::size_t>(mw - mw_lo)) *
                   ccur];
    };

    // Part 2: prefetch both layers' weight slices for the channel tile,
    // transposed to [input channel][c] and [kh][kw][c].
    auto w1 = ctx.shared().template allocate<In>(
        static_cast<std::int64_t>(t.tile_c) * C1, "pw_weights");
    for (int c = 0; c < ccur; ++c) {
      const In* src = &w_pw.at(c0 + c, 0, 0, 0);
      for (int c1 = 0; c1 < C1; ++c1) {
        w1[static_cast<std::size_t>(c1) * ccur + c] = src[c1];
      }
    }
    const int taps = dw.kh * dw.kw;
    auto w2 = ctx.shared().template allocate<In>(
        static_cast<std::int64_t>(t.tile_c) * taps, "dw_weights");
    for (int c = 0; c < ccur; ++c) {
      const In* src = &w_dw.at(c0 + c, 0, 0, 0);
      for (int k = 0; k < taps; ++k) {
        w2[static_cast<std::size_t>(k) * ccur + c] = src[k];
      }
    }
    const std::int64_t wbytes =
        static_cast<std::int64_t>(ccur) * (C1 + taps) * esz;
    ctx.load_weights(wbytes);
    ctx.shared_store(wbytes);
    ctx.shared().note_warp_access(1, ceil_div(wbytes, 4 * kWarpSize));

    // PW inputs over the intermediate region: loaded per block, so both the
    // channel-tile reload factor and the halo reload of Eq. 4 materialise.
    ctx.load_ifm(static_cast<std::int64_t>(C1) * mh_cnt * mw_cnt * esz);

    // Parts 3+4 interleaved: the PW produces intermediate rows into the
    // rolling buffer and the DW consumes each output row as soon as its last
    // input row is resident. Every output keeps the reference's summation
    // order: input channels for the PW, kh then kw for the DW.
    std::vector<Acc> acc1(static_cast<std::size_t>(mw_cnt) * ccur);
    std::vector<Acc> acc2(static_cast<std::size_t>(wcur) * ccur);
    std::int64_t macs1 = 0;
    std::int64_t macs2 = 0;
    int next_oh = oh0;  // next DW output row to emit
    for (int mh = mh_lo; mh < mh_hi; ++mh) {
      // PW conv-norm-act for intermediate row mh.
      std::fill(acc1.begin(), acc1.end(), Acc{0});
      mac_panel(acc1.data(), &ifm.at(0, mh, mw_lo), ifm.shape().hw(), w1.data(),
                C1, mw_cnt, ccur);
      In* row = comm_px(mh, mw_lo);  // [mw][c], the layout of acc1
      for (int m = 0; m < mw_cnt; ++m) {
        const std::size_t px = static_cast<std::size_t>(m) * ccur;
        ep1.apply_channels(c0, &acc1[px], &row[px], ccur);
      }
      macs1 += static_cast<std::int64_t>(ccur) * mw_cnt * C1;

      // DW conv-norm-act for every output row now fully available.
      while (next_oh < oh0 + hcur) {
        const int last_needed =
            std::min(next_oh * dw.stride - dw.pad + dw.kh - 1, mh_hi - 1);
        if (last_needed > mh) break;
        const int ih0 = next_oh * dw.stride - dw.pad;
        std::fill(acc2.begin(), acc2.end(), Acc{0});
        for (int ow = ow0; ow < ow0 + wcur; ++ow) {
          Acc* a = &acc2[static_cast<std::size_t>(ow - ow0) * ccur];
          const int iw0 = ow * dw.stride - dw.pad;
          for (int kh = 0; kh < dw.kh; ++kh) {
            const int m = ih0 + kh;
            if (m < mh_lo || m >= mh_hi) continue;  // zero padding
            for (int kw = 0; kw < dw.kw; ++kw) {
              const int mw = iw0 + kw;
              if (mw < mw_lo || mw >= mw_hi) continue;
              mac_elementwise(
                  a, comm_px(m, mw),
                  &w2[static_cast<std::size_t>(kh * dw.kw + kw) * ccur], ccur);
              macs2 += ccur;
            }
          }
        }
        for (int c = 0; c < ccur; ++c) {
          ep2.apply_pixels(c0 + c, &acc2[static_cast<std::size_t>(c)], ccur,
                           &ofm.at(c0 + c, next_oh, ow0), wcur);
        }
        ++next_oh;
      }
    }
    FCM_ASSERT(next_oh == oh0 + hcur, "PWDW rolling buffer under-produced");
    const std::int64_t red_macs =
        red_elems * static_cast<std::int64_t>(ccur) * C1;
    const std::int64_t mid_elems =
        static_cast<std::int64_t>(ccur) * mh_cnt * mw_cnt;
    ctx.shared_store(mid_elems * esz);
    ctx.shared().note_warp_access(1, ceil_div(mid_elems * esz, 4 * kWarpSize));
    ctx.shared_load(macs1 * esz + 2 * macs2 * esz);

    const std::int64_t outs = static_cast<std::int64_t>(ccur) * hcur * wcur;
    if (dt == DType::kF32) {
      ctx.add_flops(2 * (macs1 + macs2) + mid_elems * ep1.ops_per_element() +
                        outs * ep2.ops_per_element(),
                    /*redundant=*/2 * red_macs);
    } else {
      ctx.add_int_ops(2 * (macs1 + macs2), /*redundant=*/2 * red_macs);
      ctx.add_flops(mid_elems * ep1.ops_per_element() +
                    outs * ep2.ops_per_element());
    }
    ctx.global_store(outs * esz);
  };

  return launch_kernel(dev, "fcm_pwdw/" + pw.name + "+" + dw.name, cfg, body);
}

}  // namespace

gpusim::KernelStats run_pwdw_f32(const gpusim::DeviceSpec& dev,
                                 const LayerSpec& pw, const LayerSpec& dw,
                                 const TensorF& ifm, const WeightsF& w_pw,
                                 const WeightsF& w_dw, const EpilogueF32& ep1,
                                 const EpilogueF32& ep2, TensorF& ofm,
                                 const FcmTiling& t) {
  return run_pwdw_impl<float>(dev, pw, dw, ifm, w_pw, w_dw, ep1, ep2, ofm, t,
                              DType::kF32);
}

gpusim::KernelStats run_pwdw_i8(const gpusim::DeviceSpec& dev,
                                const LayerSpec& pw, const LayerSpec& dw,
                                const TensorI8& ifm, const WeightsI8& w_pw,
                                const WeightsI8& w_dw, const EpilogueI8& ep1,
                                const EpilogueI8& ep2, TensorI8& ofm,
                                const FcmTiling& t) {
  return run_pwdw_impl<std::int8_t>(dev, pw, dw, ifm, w_pw, w_dw, ep1, ep2,
                                    ofm, t, DType::kI8);
}

}  // namespace fcm
