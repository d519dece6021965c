// Runtime tests: functional plan execution against the naive reference on a
// small model and on CeiT's GELU block (both precisions, residuals included;
// bit-identical on any worker count and batch) and the analytic plan
// evaluators.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hpp"
#include "gpusim/device_spec.hpp"
#include "models/model_zoo.hpp"
#include "runtime/executor.hpp"

namespace fcm::runtime {
namespace {

const gpusim::DeviceSpec kDev = gpusim::jetson_orin();

/// A small inverted-residual-style model exercising every FCM opportunity
/// and a residual edge, sized so functional execution is fast.
ModelGraph small_model() {
  ModelGraph g;
  g.name = "small";
  g.layers.push_back(LayerSpec::pointwise("stem", 8, 16, 16, 16));
  g.layers.push_back(LayerSpec::pointwise("exp1", 16, 16, 16, 48));
  g.layers.push_back(LayerSpec::depthwise("dw1", 48, 16, 16, 3, 1));
  g.layers.push_back(
      LayerSpec::pointwise("proj1", 48, 16, 16, 16, ActKind::kNone));
  g.layers.push_back(LayerSpec::pointwise("exp2", 16, 16, 16, 48));
  g.layers.push_back(LayerSpec::depthwise("dw2", 48, 16, 16, 3, 2));
  g.layers.push_back(
      LayerSpec::pointwise("proj2", 48, 8, 8, 24, ActKind::kNone));
  g.residual_edges.emplace_back(0, 3);  // stem output → proj1 output
  g.validate();
  return g;
}

/// A planner-friendly device with tiny SM count so small grids are feasible.
gpusim::DeviceSpec tiny_dev() {
  auto d = gpusim::jetson_orin();
  d.num_sms = 2;
  return d;
}

TEST(Runtime, FunctionalPlanMatchesReferenceF32) {
  const auto model = small_model();
  const auto dev = tiny_dev();
  const auto plan = planner::plan_model(dev, model, DType::kF32);
  ModelRunner runner(dev, model, 99);
  TensorF input(model.layers.front().ifm_shape());
  fill_uniform(input, 100);
  const auto ref = runner.run_reference_f32(input);
  std::vector<ModelReport> reports;
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    ScopedPoolOverride guard(pool);
    ModelReport& report = reports.emplace_back();
    const auto out = runner.run_f32(plan, input, &report);
    EXPECT_EQ(max_abs_diff(out, ref), 0.0f);
    ASSERT_EQ(report.steps.size(), plan.steps.size());
    EXPECT_GT(report.total_time_s(), 0.0);
    EXPECT_GT(report.total_energy_j(), 0.0);
  }
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(reports[0].steps[i].stats, reports[1].steps[i].stats)
        << "step " << i;
  }
}

TEST(Runtime, FunctionalPlanMatchesReferenceI8BitExactly) {
  const auto model = small_model();
  const auto dev = tiny_dev();
  const auto plan = planner::plan_model(dev, model, DType::kI8);
  ModelRunner runner(dev, model, 99);
  TensorI8 input(model.layers.front().ifm_shape());
  fill_uniform_i8(input, 100);
  const auto out = runner.run_i8(plan, input);
  const auto ref = runner.run_reference_i8(input);
  for (std::int64_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], ref[i]) << "element " << i;
  }
}

TEST(Runtime, FunctionalStatsMatchPlannerPrediction) {
  const auto model = small_model();
  const auto dev = tiny_dev();
  const auto plan = planner::plan_model(dev, model, DType::kF32);
  ModelRunner runner(dev, model, 5);
  TensorF input(model.layers.front().ifm_shape());
  fill_uniform(input, 6);
  ModelReport report;
  runner.run_f32(plan, input, &report);
  ASSERT_EQ(report.steps.size(), plan.steps.size());
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(report.steps[i].stats.gma_bytes(),
              plan.steps[i].stats.gma_bytes())
        << "step " << i << ": the cost model must predict the kernel exactly";
  }
}

/// CeiT's first LeFF block, layers 2-4 of models::ceit(): PW 192->768 and
/// DW 3x3, both GELU, then PW 768->192 over the 14x14 token grid.
ModelGraph ceit_leff_block() {
  const auto ceit = models::ceit();
  ModelGraph g;
  g.name = "CeiT_LeFF";
  g.layers.assign(ceit.layers.begin() + 2, ceit.layers.begin() + 5);
  g.validate();
  return g;
}

/// True when the two tensors hold the same shape and bytes.
template <typename T>
bool same_bits(const Tensor<T>& a, const Tensor<T>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.size())) == 0;
}

/// Run `plan` (dtype T) at batch 1 and 4 on 1 and 4 workers: every output
/// equals the reference bit for bit, and at batch 1 every step's stats equal
/// its plan step's prediction.
template <typename T>
void expect_plan_matches_reference(const ModelRunner& runner,
                                   const planner::Plan& plan) {
  constexpr bool kF32 = std::is_same_v<T, float>;
  const FmShape shape = runner.model().layers.front().ifm_shape();
  for (const int batch : {1, 4}) {
    std::vector<Tensor<T>> inputs;
    std::vector<Tensor<T>> refs;
    for (int i = 0; i < batch; ++i) {
      Tensor<T>& in = inputs.emplace_back(shape);
      if constexpr (kF32) {
        fill_uniform(in, 40 + i);
        refs.push_back(runner.run_reference_f32(in));
      } else {
        fill_uniform_i8(in, 40 + i);
        refs.push_back(runner.run_reference_i8(in));
      }
    }
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE("batch " + std::to_string(batch) + ", " +
                   std::to_string(workers) + " workers");
      ThreadPool pool(workers);
      ScopedPoolOverride guard(pool);
      ModelReport report;
      const BatchView<T> view(inputs);
      std::vector<Tensor<T>> outs;
      if constexpr (kF32) {
        outs = runner.run_f32_batch(plan, view, &report);
      } else {
        outs = runner.run_i8_batch(plan, view, &report);
      }
      ASSERT_EQ(outs.size(), refs.size());
      for (std::size_t i = 0; i < outs.size(); ++i) {
        EXPECT_TRUE(same_bits(outs[i], refs[i])) << "item " << i;
      }
      ASSERT_EQ(report.steps.size(), plan.steps.size());
      if (batch != 1) continue;
      for (std::size_t s = 0; s < plan.steps.size(); ++s) {
        EXPECT_EQ(report.steps[s].stats, plan.steps[s].stats) << "step " << s;
      }
    }
  }
}

TEST(Runtime, GeluBlockMatchesReferenceAndPrediction) {
  // The functional mix's GELU work: CeiT's LeFF block planned on RTX-A4000.
  const auto dev = gpusim::rtx_a4000();
  const auto model = ceit_leff_block();
  const ModelRunner runner(dev, model, 17);
  {
    SCOPED_TRACE("fp32");
    expect_plan_matches_reference<float>(
        runner, planner::plan_model(dev, model, DType::kF32));
  }
  {
    SCOPED_TRACE("int8");
    expect_plan_matches_reference<std::int8_t>(
        runner, planner::plan_model(dev, model, DType::kI8));
  }
}

TEST(Runtime, LblPlanAlsoMatchesReference) {
  const auto model = small_model();
  const auto dev = tiny_dev();
  const auto plan = planner::plan_model_lbl(dev, model, DType::kF32);
  ModelRunner runner(dev, model, 99);
  TensorF input(model.layers.front().ifm_shape());
  fill_uniform(input, 100);
  const auto out = runner.run_f32(plan, input);
  const auto ref = runner.run_reference_f32(input);
  EXPECT_EQ(max_abs_diff(out, ref), 0.0f);
}

TEST(Runtime, AnalyticEvaluatorsAggregate) {
  const auto dev = gpusim::rtx_a4000();
  const auto model = models::mobilenet_v1();
  const auto plan = planner::plan_model(dev, model, DType::kF32);
  const auto report = evaluate_plan(dev, model, plan);
  EXPECT_EQ(report.steps.size(), plan.steps.size());
  EXPECT_EQ(report.total_gma_bytes(), plan.total_gma_bytes());
  EXPECT_GT(report.total_time_s(), 0.0);
  const auto tvm = baselines::tvm_compile(dev, model, DType::kF32, 5, 1);
  const auto tvm_report = evaluate_tvm(dev, model, tvm);
  EXPECT_EQ(tvm_report.steps.size(), tvm.steps.size());
  EXPECT_NE(report.summary().find("kernels"), std::string::npos);
}

TEST(Runtime, ResidualAddIsApplied) {
  // With a residual edge 0→2, zeroing the skip source must change layer-2
  // output. Use two runners differing only in input.
  const auto model = small_model();
  const auto dev = tiny_dev();
  ModelRunner runner(dev, model, 1);
  TensorF a(model.layers.front().ifm_shape());
  fill_uniform(a, 2);
  const auto ref = runner.run_reference_f32(a);
  // Re-run with residual edges removed: output must differ.
  auto no_res = model;
  no_res.residual_edges.clear();
  ModelRunner runner2(dev, no_res, 1);
  const auto ref2 = runner2.run_reference_f32(a);
  EXPECT_GT(max_abs_diff(ref, ref2), 1e-3f);
}

}  // namespace
}  // namespace fcm::runtime
