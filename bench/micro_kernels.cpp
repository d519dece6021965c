// Microbenchmarks of the functional simulated kernels. These time the
// *simulator's host execution* (useful for regression-testing the library
// itself); the paper's GPU-time figures come from the roofline model and are
// reported by the fig* benches.
//
// Every case is configured by min_of_5(): real time, because the blocks run
// on ThreadPool workers, not on the benchmark thread, so rates against the
// calling thread's CPU time would be inflated by the worker count and more;
// and 5 repetitions reported as their minimum, because one sample of a
// sub-millisecond kernel on a shared worker pool swings up to 2x between
// runs.
//
// Runs under google-benchmark when installed (CMake defines
// FCM_HAVE_GOOGLE_BENCHMARK); otherwise the built-in minibench harness
// provides the same BENCHMARK/State surface so the target always builds.
#ifdef FCM_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>
#else
#include "minibench.hpp"
#endif

#include <algorithm>
#include <vector>

#include "common/random.hpp"
#include "gpusim/device_spec.hpp"
#include "kernels/kernel_registry.hpp"

namespace fcm {
namespace {

const gpusim::DeviceSpec kDev = gpusim::jetson_orin();

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

void min_of_5(benchmark::internal::Benchmark* b) {
  b->UseRealTime()
      ->Repetitions(5)
      ->ComputeStatistics("min", min_of)
      ->ReportAggregatesOnly();
}

void BM_PwF32(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const auto spec = LayerSpec::pointwise("pw", c, 14, 14, 2 * c);
  TensorF ifm(spec.ifm_shape());
  fill_uniform(ifm, 1);
  WeightsF w(spec.filter_shape());
  fill_uniform(w, 2);
  const auto bn = BatchNorm::identity(2 * c);
  const EpilogueF32 ep(bn, ActKind::kReLU);
  TensorF ofm(spec.ofm_shape());
  const ConvTiling t{7, 7, std::min(2 * c, 64)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pw_f32(kDev, spec, ifm, w, ep, ofm, t));
  }
  state.SetItemsProcessed(state.iterations() * spec.macs());
}
BENCHMARK(BM_PwF32)->Arg(32)->Arg(64)->Arg(128)->Apply(min_of_5);

void BM_PwI8(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const auto spec = LayerSpec::pointwise("pw", c, 14, 14, 2 * c);
  TensorI8 ifm(spec.ifm_shape());
  fill_uniform_i8(ifm, 1);
  WeightsI8 w(spec.filter_shape());
  fill_uniform_i8(w, 2);
  const auto bn = BatchNorm::identity(2 * c);
  const EpilogueI8 ep(bn, ActKind::kReLU, QuantParams{0.1f, 0.02f, 0.1f});
  TensorI8 ofm(spec.ofm_shape());
  const ConvTiling t{7, 7, std::min(2 * c, 64)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pw_i8(kDev, spec, ifm, w, ep, ofm, t));
  }
  state.SetItemsProcessed(state.iterations() * spec.macs());
}
BENCHMARK(BM_PwI8)->Arg(32)->Arg(64)->Arg(128)->Apply(min_of_5);

void BM_StdF32(benchmark::State& state) {
  // CeiT's image-to-token stem: 7x7 stride-2 conv over an RGB image.
  const int hw = static_cast<int>(state.range(0));
  const auto spec =
      LayerSpec::standard("stem", 3, hw, hw, 32, 7, 2, ActKind::kGELU);
  TensorF ifm(spec.ifm_shape());
  fill_uniform(ifm, 1);
  WeightsF w(spec.filter_shape());
  fill_uniform(w, 2);
  const auto bn = BatchNorm::identity(32);
  const EpilogueF32 ep(bn, ActKind::kGELU);
  TensorF ofm(spec.ofm_shape());
  const ConvTiling t{8, 14, 16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_std_f32(kDev, spec, ifm, w, ep, ofm, t));
  }
  state.SetItemsProcessed(state.iterations() * spec.macs());
}
BENCHMARK(BM_StdF32)->Arg(56)->Arg(112)->Apply(min_of_5);

void BM_DwF32(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const auto spec = LayerSpec::depthwise("dw", c, 28, 28, 3, 1);
  TensorF ifm(spec.ifm_shape());
  fill_uniform(ifm, 1);
  WeightsF w(spec.filter_shape());
  fill_uniform(w, 2);
  const auto bn = BatchNorm::identity(c);
  const EpilogueF32 ep(bn, ActKind::kReLU6);
  TensorF ofm(spec.ofm_shape());
  const ConvTiling t{14, 14, std::min(c, 32)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_dw_f32(kDev, spec, ifm, w, ep, ofm, t));
  }
  state.SetItemsProcessed(state.iterations() * spec.macs());
}
BENCHMARK(BM_DwF32)->Arg(32)->Arg(128)->Apply(min_of_5);

void BM_FcmDwPwF32(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const auto dw = LayerSpec::depthwise("dw", c, 28, 28, 3, 1);
  const auto pw = LayerSpec::pointwise("pw", c, 28, 28, 2 * c);
  TensorF ifm(dw.ifm_shape());
  fill_uniform(ifm, 1);
  WeightsF w1(dw.filter_shape()), w2(pw.filter_shape());
  fill_uniform(w1, 2);
  fill_uniform(w2, 3);
  const auto bn1 = BatchNorm::identity(c);
  const auto bn2 = BatchNorm::identity(2 * c);
  const EpilogueF32 ep1(bn1, ActKind::kReLU6), ep2(bn2, ActKind::kReLU6);
  TensorF ofm(pw.ofm_shape());
  const FcmTiling t{7, 7, 0, std::min(2 * c, 32)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_dwpw_f32(kDev, dw, pw, ifm, w1, w2, ep1, ep2, ofm, t));
  }
  state.SetItemsProcessed(state.iterations() * (dw.macs() + pw.macs()));
}
BENCHMARK(BM_FcmDwPwF32)->Arg(32)->Arg(64)->Apply(min_of_5);

void BM_FcmPwDwF32(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const auto pw = LayerSpec::pointwise("pw", c, 14, 14, 2 * c);
  const auto dw = LayerSpec::depthwise("dw", 2 * c, 14, 14, 3, 1);
  TensorF ifm(pw.ifm_shape());
  fill_uniform(ifm, 1);
  WeightsF w1(pw.filter_shape()), w2(dw.filter_shape());
  fill_uniform(w1, 2);
  fill_uniform(w2, 3);
  const auto bn1 = BatchNorm::identity(2 * c);
  const auto bn2 = BatchNorm::identity(2 * c);
  const EpilogueF32 ep1(bn1, ActKind::kReLU6), ep2(bn2, ActKind::kReLU6);
  TensorF ofm(dw.ofm_shape());
  const FcmTiling t{7, 7, std::min(2 * c, 32), 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_pwdw_f32(kDev, pw, dw, ifm, w1, w2, ep1, ep2, ofm, t));
  }
  state.SetItemsProcessed(state.iterations() * (pw.macs() + dw.macs()));
}
BENCHMARK(BM_FcmPwDwF32)->Arg(32)->Arg(64)->Apply(min_of_5);

void BM_FcmPwDwI8(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const auto pw = LayerSpec::pointwise("pw", c, 14, 14, 2 * c);
  const auto dw = LayerSpec::depthwise("dw", 2 * c, 14, 14, 3, 1);
  TensorI8 ifm(pw.ifm_shape());
  fill_uniform_i8(ifm, 1);
  WeightsI8 w1(pw.filter_shape()), w2(dw.filter_shape());
  fill_uniform_i8(w1, 2);
  fill_uniform_i8(w2, 3);
  const auto bn1 = BatchNorm::identity(2 * c);
  const auto bn2 = BatchNorm::identity(2 * c);
  const QuantParams q{0.1f, 0.02f, 0.1f};
  const EpilogueI8 ep1(bn1, ActKind::kReLU6, q), ep2(bn2, ActKind::kReLU6, q);
  TensorI8 ofm(dw.ofm_shape());
  const FcmTiling t{7, 7, std::min(2 * c, 32), 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_pwdw_i8(kDev, pw, dw, ifm, w1, w2, ep1, ep2, ofm, t));
  }
  state.SetItemsProcessed(state.iterations() * (pw.macs() + dw.macs()));
}
BENCHMARK(BM_FcmPwDwI8)->Arg(32)->Arg(64)->Apply(min_of_5);

void BM_FcmPwDwRGeluF32(benchmark::State& state) {
  // CeiT's LeFF block, 192 -> 768 channels at 14x14 with a 3x3 DW and GELU
  // on both layers, in 7x7 spatial tiles: the heaviest step of the
  // functional mix. Both GELU epilogues vectorise through tanh_f32.
  const auto pw = LayerSpec::pointwise("pw", 192, 14, 14, 768, ActKind::kGELU);
  const auto dw = LayerSpec::depthwise("dw", 768, 14, 14, 3, 1, ActKind::kGELU);
  TensorF ifm(pw.ifm_shape());
  fill_uniform(ifm, 1);
  WeightsF w1(pw.filter_shape()), w2(dw.filter_shape());
  fill_uniform(w1, 2);
  fill_uniform(w2, 3);
  const auto bn1 = BatchNorm::identity(768);
  const auto bn2 = BatchNorm::identity(768);
  const EpilogueF32 ep1(bn1, ActKind::kGELU), ep2(bn2, ActKind::kGELU);
  TensorF ofm(dw.ofm_shape());
  const FcmTiling t{7, 7, 64, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_pwdw_f32(kDev, pw, dw, ifm, w1, w2, ep1, ep2, ofm, t));
  }
  state.SetItemsProcessed(state.iterations() * (pw.macs() + dw.macs()));
}
BENCHMARK(BM_FcmPwDwRGeluF32)->Apply(min_of_5);

void BM_FcmPwPwI8(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const auto pw1 = LayerSpec::pointwise("a", c, 14, 14, 2 * c);
  const auto pw2 = LayerSpec::pointwise("b", 2 * c, 14, 14, c);
  TensorI8 ifm(pw1.ifm_shape());
  fill_uniform_i8(ifm, 1);
  WeightsI8 w1(pw1.filter_shape()), w2(pw2.filter_shape());
  fill_uniform_i8(w1, 2);
  fill_uniform_i8(w2, 3);
  const auto bn1 = BatchNorm::identity(2 * c);
  const auto bn2 = BatchNorm::identity(c);
  const QuantParams q{0.1f, 0.02f, 0.1f};
  const EpilogueI8 ep1(bn1, ActKind::kNone, q), ep2(bn2, ActKind::kReLU6, q);
  TensorI8 ofm(pw2.ofm_shape());
  const FcmTiling t{7, 7, 0, std::min(2 * c, 32)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_pwpw_i8(kDev, pw1, pw2, ifm, w1, w2, ep1, ep2, ofm, t));
  }
  state.SetItemsProcessed(state.iterations() * (pw1.macs() + pw2.macs()));
}
BENCHMARK(BM_FcmPwPwI8)->Arg(32)->Arg(64)->Apply(min_of_5);

}  // namespace
}  // namespace fcm

BENCHMARK_MAIN();
