#include "kernels/std_conv_kernel.hpp"

#include <algorithm>
#include <vector>

#include "gpusim/launch.hpp"
#include "kernels/mac_loops.hpp"

namespace fcm {

namespace {
constexpr int kThreads = 256;
}

gpusim::KernelStats run_std_f32(const gpusim::DeviceSpec& dev,
                                const LayerSpec& spec, const TensorF& ifm,
                                const WeightsF& w, const EpilogueF32& ep,
                                TensorF& ofm, const ConvTiling& t) {
  spec.validate();
  FCM_CHECK(spec.kind == ConvKind::kStandard, spec.name + ": not standard");
  FCM_CHECK(t.valid(), spec.name + ": invalid tiling");
  FCM_CHECK(ifm.shape() == spec.ifm_shape(), spec.name + ": IFM shape");
  FCM_CHECK(ofm.shape() == spec.ofm_shape(), spec.name + ": OFM shape");
  FCM_CHECK(w.shape() == spec.filter_shape(), spec.name + ": weight shape");

  const int F = spec.out_c;
  const int C = spec.in_c;
  const int H = spec.out_h();
  const int W = spec.out_w();
  const std::int64_t nf = ceil_div(F, t.tile_f);
  const std::int64_t nh = ceil_div(H, t.tile_h);
  const std::int64_t nw = ceil_div(W, t.tile_w);
  constexpr std::int64_t esz = 4;

  gpusim::LaunchConfig cfg;
  cfg.grid_blocks = nf * nh * nw;
  cfg.threads_per_block = kThreads;
  cfg.shared_bytes = std_shared_bytes(spec, t, DType::kF32);

  auto body = [&](gpusim::BlockContext& ctx) {
    const std::int64_t bid = ctx.block_id();
    const int fi = static_cast<int>(bid / (nh * nw));
    const int hi = static_cast<int>((bid / nw) % nh);
    const int wi = static_cast<int>(bid % nw);

    const int f0 = fi * t.tile_f;
    const int fcur = std::min(t.tile_f, F - f0);
    const int oh0 = hi * t.tile_h;
    const int hcur = std::min(t.tile_h, H - oh0);
    const int ow0 = wi * t.tile_w;
    const int wcur = std::min(t.tile_w, W - ow0);

    // Weights staged transposed, [c][kh][kw][filter], the order the MAC loop
    // reads them in.
    const int taps = C * spec.kh * spec.kw;
    auto wtile = ctx.shared().allocate<float>(
        static_cast<std::int64_t>(t.tile_f) * taps, "std_weights");
    for (int f = 0; f < fcur; ++f) {
      const float* src = &w.at(f0 + f, 0, 0, 0);
      for (int k = 0; k < taps; ++k) {
        wtile[static_cast<std::size_t>(k) * fcur + f] = src[k];
      }
    }
    const std::int64_t wbytes = static_cast<std::int64_t>(fcur) * taps * esz;
    ctx.load_weights(wbytes);
    ctx.shared_store(wbytes);

    const int ih_lo = std::max(0, oh0 * spec.stride - spec.pad);
    const int ih_hi = std::min(
        spec.in_h, (oh0 + hcur - 1) * spec.stride - spec.pad + spec.kh);
    const int iw_lo = std::max(0, ow0 * spec.stride - spec.pad);
    const int iw_hi = std::min(
        spec.in_w, (ow0 + wcur - 1) * spec.stride - spec.pad + spec.kw);
    ctx.load_ifm(static_cast<std::int64_t>(C) * (ih_hi - ih_lo) *
                 (iw_hi - iw_lo) * esz);

    // Partial sums [pixel][filter]; each output still sums over c, then kh,
    // then kw, skipping the zero padding exactly as the reference does.
    std::vector<float> acc(static_cast<std::size_t>(hcur) * wcur * fcur, 0.0f);
    std::int64_t macs = 0;
    for (int oh = oh0; oh < oh0 + hcur; ++oh) {
      float* arow = &acc[static_cast<std::size_t>(oh - oh0) * wcur * fcur];
      const int ih0 = oh * spec.stride - spec.pad;
      for (int c = 0; c < C; ++c) {
        for (int kh = 0; kh < spec.kh; ++kh) {
          const int ih = ih0 + kh;
          if (ih < 0 || ih >= spec.in_h) continue;
          const float* x = &ifm.at(c, ih, 0);
          const float* wk = &wtile[static_cast<std::size_t>(
                                       (c * spec.kh + kh) * spec.kw) *
                                   fcur];
          for (int ow = ow0; ow < ow0 + wcur; ++ow) {
            float* a = arow + static_cast<std::size_t>(ow - ow0) * fcur;
            const int iw0 = ow * spec.stride - spec.pad;
            for (int kw = 0; kw < spec.kw; ++kw) {
              const int iw = iw0 + kw;
              if (iw < 0 || iw >= spec.in_w) continue;
              mac_broadcast(a, x[iw], wk + static_cast<std::size_t>(kw) * fcur,
                            fcur);
              macs += fcur;
            }
          }
        }
      }
    }
    for (int f = 0; f < fcur; ++f) {
      for (int oh = 0; oh < hcur; ++oh) {
        ep.apply_pixels(f0 + f,
                        &acc[static_cast<std::size_t>(oh) * wcur * fcur + f],
                        fcur, &ofm.at(f0 + f, oh0 + oh, ow0), wcur);
      }
    }
    ctx.shared_load(macs * esz);
    const std::int64_t outs = static_cast<std::int64_t>(fcur) * hcur * wcur;
    ctx.add_flops(2 * macs + outs * ep.ops_per_element());
    ctx.global_store(outs * esz);
  };

  return launch_kernel(dev, "std/" + spec.name, cfg, body);
}

}  // namespace fcm
