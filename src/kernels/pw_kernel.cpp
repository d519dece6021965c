#include "kernels/pw_kernel.hpp"

#include <algorithm>
#include <vector>

#include "gpusim/launch.hpp"
#include "kernels/mac_loops.hpp"

namespace fcm {

namespace {

constexpr int kThreads = 256;
/// Input channels staged per shared-memory weight chunk. Partial sums stay
/// in registers across chunks (OS), so weights are still read from global
/// exactly once per block while only a tile_f × 32 slice is ever resident.
constexpr int kChanChunk = 32;

// Common structure for both precisions. The accumulation step differs; the
// traffic accounting is identical (element counts × element size).
template <typename In, typename Acc, typename Ep>
gpusim::KernelStats run_pw_impl(const gpusim::DeviceSpec& dev,
                                const LayerSpec& spec, const Tensor<In>& ifm,
                                const WeightTensor<In>& w, const Ep& ep,
                                Tensor<In>& ofm, const ConvTiling& t,
                                DType dt) {
  spec.validate();
  FCM_CHECK(spec.kind == ConvKind::kPointwise, spec.name + ": not pointwise");
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
  const std::int64_t esz = static_cast<std::int64_t>(dtype_size(dt));
  const int kc = std::min(C, kChanChunk);

  gpusim::LaunchConfig cfg;
  cfg.grid_blocks = nf * nh * nw;
  cfg.threads_per_block = kThreads;
  cfg.shared_bytes = pw_shared_bytes(spec, t, dt);

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

    // Partial sums live in "registers" for the whole block (OS dataflow),
    // laid out [pixel][filter] so every MAC loop runs unit-stride across the
    // block's filters.
    std::vector<Acc> acc(static_cast<std::size_t>(hcur) * wcur * fcur, Acc{0});

    // Part 2/3: stream input channels in chunks; each chunk's weight slice
    // is prefetched into shared memory contiguously (stride-1, conflict-free)
    // and fully reused before the next chunk evicts it. The slice is staged
    // transposed, [channel][filter], the order the MAC loop reads it in.
    auto wtile = ctx.shared().template allocate<In>(
        static_cast<std::int64_t>(t.tile_f) * kc, "pw_weights_chunk");
    std::int64_t macs = 0;
    for (int c0 = 0; c0 < C; c0 += kc) {
      const int ccur = std::min(kc, C - c0);
      for (int f = 0; f < fcur; ++f) {
        const In* src = &w.at(f0 + f, c0, 0, 0);
        for (int c = 0; c < ccur; ++c) {
          wtile[static_cast<std::size_t>(c) * fcur + f] = src[c];
        }
      }
      const std::int64_t wbytes = static_cast<std::int64_t>(fcur) * ccur * esz;
      ctx.load_weights(wbytes);
      ctx.shared_store(wbytes);
      ctx.shared().note_warp_access(/*stride_words=*/1,
                                    ceil_div(wbytes, 4 * kWarpSize));

      // Each output's sum still runs over channels in order, chunk by chunk.
      for (int oh = 0; oh < hcur; ++oh) {
        mac_panel(&acc[static_cast<std::size_t>(oh) * wcur * fcur],
                  &ifm.at(c0, oh0 + oh, ow0), ifm.shape().hw(), wtile.data(),
                  ccur, wcur, fcur);
      }
      macs += static_cast<std::int64_t>(fcur) * hcur * wcur * ccur;
    }
    // The IFM tile is read once per block through L1 (Eq. 2: reloaded once
    // per filter tile): chunks partition the channels, so the loop above
    // touched each element exactly once.
    ctx.load_ifm(static_cast<std::int64_t>(C) * hcur * wcur * esz);
    ctx.shared_load(macs * esz);  // weight re-reads from shared

    // Part 4: epilogue + single store of each output (OS), one NCHW row at
    // a time.
    for (int f = 0; f < fcur; ++f) {
      for (int oh = 0; oh < hcur; ++oh) {
        ep.apply_pixels(f0 + f,
                        &acc[static_cast<std::size_t>(oh) * wcur * fcur + f],
                        fcur, &ofm.at(f0 + f, oh0 + oh, ow0), wcur);
      }
    }
    const std::int64_t outs = static_cast<std::int64_t>(fcur) * hcur * wcur;
    if (dt == DType::kF32) {
      ctx.add_flops(2 * macs + outs * ep.ops_per_element());
    } else {
      ctx.add_int_ops(2 * macs);
      ctx.add_flops(outs * ep.ops_per_element());
    }
    ctx.global_store(outs * esz);
  };

  return launch_kernel(dev, "pw/" + spec.name, cfg, body);
}

}  // namespace

gpusim::KernelStats run_pw_f32(const gpusim::DeviceSpec& dev,
                               const LayerSpec& spec, const TensorF& ifm,
                               const WeightsF& w, const EpilogueF32& ep,
                               TensorF& ofm, const ConvTiling& t) {
  return run_pw_impl<float, float>(dev, spec, ifm, w, ep, ofm, t, DType::kF32);
}

gpusim::KernelStats run_pw_i8(const gpusim::DeviceSpec& dev,
                              const LayerSpec& spec, const TensorI8& ifm,
                              const WeightsI8& w, const EpilogueI8& ep,
                              TensorI8& ofm, const ConvTiling& t) {
  return run_pw_impl<std::int8_t, std::int32_t>(dev, spec, ifm, w, ep, ofm, t,
                                                DType::kI8);
}

}  // namespace fcm
