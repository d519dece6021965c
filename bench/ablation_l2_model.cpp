// Ablation — the optional L2 absorption model (off in all paper benches).
//
// The paper's Eq. 2–4 charge every cross-block reload to DRAM; physical GPUs
// absorb reloads of L2-resident arrays. This bench re-evaluates the FP32
// fusion cases with L2 filtering applied to both the LBL and FCM sides and
// reports how the speedups move — quantifying how much of the magnitude gap
// between this reproduction's absolute numbers and measured hardware the
// missing L2 explains.
#include "bench_util.hpp"
#include "gpusim/l2_model.hpp"

using namespace fcm;

namespace {

gpusim::KernelStats l2_of_layer(const gpusim::DeviceSpec& dev,
                                const LayerSpec& spec,
                                const gpusim::KernelStats& st) {
  return gpusim::apply_l2(dev, st, spec.ifm_count() * 4,
                          spec.weights_count() * 4);
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: L2 absorption model (FP32 fusion cases, RTX-A4000)");
  const auto dev = gpusim::rtx_a4000();
  Table t({"case", "speedup (no L2)", "speedup (L2)", "LBL GMA shrink",
           "FCM GMA shrink"});
  const auto cases = models::fp32_cases();
  const auto grid = bench::eval_case_grid({dev}, cases, DType::kF32);
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const auto& c = cases[ci];
    const auto& r = grid[ci][0];
    if (!r.fused) continue;
    const auto& l1 = r.decision.lbl_first.stats;
    const auto& l2s = r.decision.lbl_second.stats;
    const auto& f = r.decision.fcm->stats;

    const auto l1_l2 = l2_of_layer(dev, c.first, l1);
    const auto l2_l2 = l2_of_layer(dev, c.second, l2s);
    const std::int64_t w_both =
        (c.first.weights_count() + c.second.weights_count()) * 4;
    const auto f_l2 =
        gpusim::apply_l2(dev, f, c.first.ifm_count() * 4, w_both);

    const double sp_raw = r.speedup();
    const double sp_l2 = (bench::time_of(dev, l1_l2) + bench::time_of(dev, l2_l2)) /
                         bench::time_of(dev, f_l2);
    t.add_row({c.id, fmt_f(sp_raw, 2), fmt_f(sp_l2, 2),
               fmt_f(static_cast<double>(l1_l2.gma_bytes() + l2_l2.gma_bytes()) /
                         static_cast<double>(l1.gma_bytes() + l2s.gma_bytes()),
                     2),
               fmt_f(static_cast<double>(f_l2.gma_bytes()) /
                         static_cast<double>(f.gma_bytes()),
                     2)});
  }
  std::cout << t.str();
  std::cout << "\nWith L2 filtering, weight-reload-heavy implementations gain"
               " the most; the\nfusion advantage persists because the"
               " intermediate round-trip it removes is\nDRAM traffic either"
               " way (the paper's central claim is L2-robust).\n";
  return 0;
}
