// Plan execution.
//
// Two paths:
//  * Analytic evaluation — turn a FusePlanner Plan or a TVM-like plan into a
//    ModelReport using the planner's predicted stats (which tests prove equal
//    the kernels' measured stats). This is what the end-to-end benches use.
//  * Functional execution — ModelRunner owns deterministic random weights
//    and BN parameters for a model, runs a Plan's kernels on real tensors on
//    the simulator, and can produce a naive-reference output for validation.
#pragma once

#include <memory>
#include <optional>

#include "baselines/tvm_like.hpp"
#include "common/random.hpp"
#include "layers/model_graph.hpp"
#include "planner/fuse_planner.hpp"
#include "runtime/report.hpp"

namespace fcm::runtime {

/// Analytic evaluation of a FusePlanner plan.
ModelReport evaluate_plan(const gpusim::DeviceSpec& dev,
                          const ModelGraph& model,
                          const planner::Plan& plan);

/// Analytic evaluation of a TVM-like plan.
ModelReport evaluate_tvm(const gpusim::DeviceSpec& dev,
                         const ModelGraph& model,
                         const baselines::TvmPlan& plan);

/// Functional model execution on the simulator.
class ModelRunner {
 public:
  /// Materialise deterministic random weights/norm parameters for `model`.
  /// `quant` overrides the per-layer INT8 quantisation parameters uniformly
  /// when set (serving requests carry per-model quant params); the default
  /// keeps the library-wide 0.1/0.02/0.1 symmetric scales. Throws fcm::Error
  /// unless every scale of `quant`, and its acc_scale() and out_inv_scale(),
  /// is finite and > 0.
  ModelRunner(gpusim::DeviceSpec dev, ModelGraph model, std::uint64_t seed,
              std::optional<QuantParams> quant = std::nullopt);

  const ModelGraph& model() const { return model_; }

  /// Execute `plan` in FP32 on `input`; returns the model output and, when
  /// `report` is non-null, the per-kernel reports of the run.
  TensorF run_f32(const planner::Plan& plan, const TensorF& input,
                  ModelReport* report = nullptr) const;

  /// Execute `plan` in INT8. Standard-conv layers are not supported in the
  /// INT8 functional path (the planner never plans them in INT8 models used
  /// functionally).
  TensorI8 run_i8(const planner::Plan& plan, const TensorI8& input,
                  ModelReport* report = nullptr) const;

  /// Execute `plan` once per batch item, reusing the plan (and the per-step
  /// epilogues) across the whole batch. Within each step the items fan out
  /// over ThreadPool::global() (independent feature maps, one stats slot per
  /// item, deterministic index-order reduction), so batched runs speed up
  /// with host cores. Outputs are bit-identical to running each item through
  /// run_f32/run_i8 on its own, for any worker count — batching and
  /// parallelism change the run loop, never the numerics. `report` (when
  /// non-null) holds one step per plan step with kernel stats summed over
  /// the batch items, so its totals are the whole batch's simulated time and
  /// traffic.
  std::vector<TensorF> run_f32_batch(const planner::Plan& plan,
                                     const BatchViewF& inputs,
                                     ModelReport* report = nullptr) const;
  std::vector<TensorI8> run_i8_batch(const planner::Plan& plan,
                                     const BatchViewI8& inputs,
                                     ModelReport* report = nullptr) const;

  /// Naive reference output (layer-by-layer conv_ref) for validation.
  TensorF run_reference_f32(const TensorF& input) const;
  TensorI8 run_reference_i8(const TensorI8& input) const;

  /// Per-layer quantisation parameters used by the INT8 paths.
  const QuantParams& quant(int layer) const { return quant_[static_cast<std::size_t>(layer)]; }

 private:
  /// The one run loop behind every functional entry point: step-outer,
  /// item-inner, dtype selected by T (float or std::int8_t).
  template <typename T>
  std::vector<Tensor<T>> run_batch_impl(const planner::Plan& plan,
                                        const BatchView<T>& inputs,
                                        ModelReport* report) const;

  gpusim::DeviceSpec dev_;
  ModelGraph model_;
  std::vector<WeightsF> weights_f_;
  std::vector<WeightsI8> weights_i8_;
  std::vector<BatchNorm> bn_;
  std::vector<QuantParams> quant_;
};

}  // namespace fcm::runtime
