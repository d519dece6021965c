#include "runtime/executor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/l2_model.hpp"
#include "kernels/conv_ref.hpp"
#include "kernels/fcm_pwdwpw.hpp"
#include "kernels/kernel_registry.hpp"

namespace fcm::runtime {

ModelReport evaluate_plan(const gpusim::DeviceSpec& dev,
                          const ModelGraph& model,
                          const planner::Plan& plan) {
  ModelReport r;
  r.label = plan.model_name + " on " + dev.name + " (" +
            dtype_name(plan.dtype) + ")";
  for (const auto& s : plan.steps) {
    std::string name;
    if (s.fused) {
      name = std::string(fcm_kind_name(s.fcm_kind)) + "/" +
             model.layers[static_cast<std::size_t>(s.layer)].name + "+" +
             model.layers[static_cast<std::size_t>(s.layer2)].name;
    } else {
      name = "LBL/" + model.layers[static_cast<std::size_t>(s.layer)].name;
    }
    r.steps.push_back(evaluate_step(dev, std::move(name), s.stats));
  }
  return r;
}

ModelReport evaluate_tvm(const gpusim::DeviceSpec& dev,
                         const ModelGraph& model,
                         const baselines::TvmPlan& plan) {
  ModelReport r;
  r.label = plan.model_name + " on " + dev.name + " (" +
            dtype_name(plan.dtype) + ")";
  for (const auto& s : plan.steps) {
    const std::string name =
        std::string(baselines::tvm_impl_name(s.impl)) + "/" +
        model.layers[static_cast<std::size_t>(s.layer)].name;
    r.steps.push_back(evaluate_step(dev, name, s.stats));
  }
  return r;
}

ModelRunner::ModelRunner(gpusim::DeviceSpec dev, ModelGraph model,
                         std::uint64_t seed, std::optional<QuantParams> quant)
    : dev_(std::move(dev)), model_(std::move(model)) {
  if (quant) {
    const auto usable = [](float scale) {
      return std::isfinite(scale) && scale > 0.0f;
    };
    // The epilogue multiplies by the derived scales, which can overflow or
    // underflow even when every given scale is usable.
    FCM_CHECK(usable(quant->in_scale) && usable(quant->w_scale) &&
                  usable(quant->out_scale) && usable(quant->acc_scale()) &&
                  usable(quant->out_inv_scale()),
              "ModelRunner: INT8 quant scales, in_scale * w_scale and "
              "1 / out_scale must be finite and > 0");
  }
  model_.validate();
  const int n = model_.num_layers();
  weights_f_.resize(static_cast<std::size_t>(n));
  weights_i8_.resize(static_cast<std::size_t>(n));
  bn_.resize(static_cast<std::size_t>(n));
  quant_.resize(static_cast<std::size_t>(n));
  // Each layer's fill is seeded independently from (seed, i), so the layers
  // can be materialised in parallel with the same result as a serial loop.
  ThreadPool::global().parallel_for(n, [&](std::int64_t idx) {
    const std::size_t i = static_cast<std::size_t>(idx);
    const LayerSpec& spec = model_.layers[i];
    WeightsF wf(spec.filter_shape());
    fill_uniform(wf, seed + static_cast<std::uint64_t>(i) * 7919u, -0.5f, 0.5f);
    weights_f_[i] = std::move(wf);
    WeightsI8 wq(spec.filter_shape());
    fill_uniform_i8(wq, seed + static_cast<std::uint64_t>(i) * 104729u, -8, 8);
    weights_i8_[i] = std::move(wq);
    bn_[i] = spec.has_bn
                 ? BatchNorm::random(spec.out_c,
                                     seed + static_cast<std::uint64_t>(i))
                 : BatchNorm::identity(spec.out_c);
    // Symmetric per-tensor scales; chained so layer i+1 consumes layer i's
    // output scale.
    QuantParams q;
    q.in_scale = 0.1f;
    q.w_scale = 0.02f;
    q.out_scale = 0.1f;
    quant_[i] = quant.value_or(q);
  });
}

namespace {

template <typename T>
void residual_add(Tensor<T>& out, const Tensor<T>& saved) {
  for (std::int64_t i = 0; i < out.size(); ++i) {
    if constexpr (std::is_same_v<T, float>) {
      out[i] += saved[i];
    } else {
      const int v = static_cast<int>(out[i]) + static_cast<int>(saved[i]);
      out[i] = static_cast<T>(std::clamp(v, -128, 127));
    }
  }
}

/// Apply any residual edges terminating at `layer` and stash outputs that
/// source later edges.
template <typename T>
void handle_residuals(const ModelGraph& model, int layer, Tensor<T>& out,
                      std::vector<std::optional<Tensor<T>>>& saved) {
  for (const auto& [from, to] : model.residual_edges) {
    if (to == layer) {
      FCM_ASSERT(saved[static_cast<std::size_t>(from)].has_value(),
                 "residual source not saved");
      residual_add(out, *saved[static_cast<std::size_t>(from)]);
    }
  }
  for (const auto& [from, to] : model.residual_edges) {
    if (from == layer) saved[static_cast<std::size_t>(layer)] = out;
  }
}

}  // namespace

template <typename T>
std::vector<Tensor<T>> ModelRunner::run_batch_impl(const planner::Plan& plan,
                                                   const BatchView<T>& inputs,
                                                   ModelReport* report) const {
  constexpr bool kIsF32 = std::is_same_v<T, float>;
  const char* const who = kIsF32 ? "run_f32" : "run_i8";
  FCM_CHECK(!inputs.empty(), std::string(who) + ": empty batch");
  FCM_CHECK(inputs.shape() == model_.layers.front().ifm_shape(),
            std::string(who) + ": input shape mismatch");

  const std::size_t n = inputs.size();
  std::vector<Tensor<T>> cur(inputs.begin(), inputs.end());
  std::vector<std::vector<std::optional<Tensor<T>>>> saved(
      n, std::vector<std::optional<Tensor<T>>>(
             static_cast<std::size_t>(model_.num_layers())));
  if (report != nullptr) {
    report->label = plan.model_name + " on " + dev_.name +
                    (kIsF32 ? " (fp32, functional" : " (int8, functional");
    report->label += n > 1 ? ", batch=" + std::to_string(n) + ")" : ")";
    report->steps.clear();
  }

  // Per-layer weight/epilogue selection shared by every step shape below.
  const auto& weights = [this]() -> const auto& {
    if constexpr (kIsF32) {
      return weights_f_;
    } else {
      return weights_i8_;
    }
  }();
  auto epilogue = [this](int layer) {
    const auto l = static_cast<std::size_t>(layer);
    const ActKind act = model_.layers[l].act;
    if constexpr (kIsF32) {
      return EpilogueF32(bn_[l], act);
    } else {
      return EpilogueI8(bn_[l], act, quant_[l]);
    }
  };
  auto weight_bytes = [&weights](int layer) {
    return static_cast<std::int64_t>(
               weights[static_cast<std::size_t>(layer)].size()) *
           static_cast<std::int64_t>(sizeof(T));
  };

  // Host-parallel item-inner loop. Batch items are independent within a step
  // — each writes only its own cur/saved slot — so the loop fans over the
  // global pool with one KernelStats slot per item, reduced in index order
  // after the join. Outputs and summed stats are bit-identical to the serial
  // loop for any worker count (the pool is re-entrant, so the kernels'
  // nested block-level parallel_for inlines safely). Grain 1: one item is a
  // whole kernel run, the coarsest useful unit.
  std::vector<gpusim::KernelStats> item_stats(n);
  auto run_items = [&](const auto& body) {
    ThreadPool::global().parallel_for(
        static_cast<std::int64_t>(n),
        [&](std::int64_t item) {
          item_stats[static_cast<std::size_t>(item)] =
              body(static_cast<std::size_t>(item));
        },
        /*grain=*/1);
    gpusim::KernelStats sum;
    for (std::size_t item = 0; item < n; ++item) sum += item_stats[item];
    return sum;
  };

  for (const auto& s : plan.steps) {
    const int i = s.layer;
    const LayerSpec& a = model_.layers[static_cast<std::size_t>(i)];
    if constexpr (!kIsF32) {
      FCM_CHECK(a.kind != ConvKind::kStandard,
                "run_i8: INT8 standard conv unsupported");
    }
    // The plan step — layer specs, weights, epilogues, tilings — is resolved
    // once here and reused across every batch item; only the feature maps
    // change inside the item loop.
    std::string name;
    gpusim::KernelStats step_stats;
    std::int64_t step_weight_bytes = 0;
    if (s.fused && s.layer3 >= 0) {
      const LayerSpec& b = model_.layers[static_cast<std::size_t>(s.layer2)];
      const LayerSpec& c = model_.layers[static_cast<std::size_t>(s.layer3)];
      const auto ep1 = epilogue(i);
      const auto ep2 = epilogue(s.layer2);
      const auto ep3 = epilogue(s.layer3);
      name = "PWDWPW/" + a.name;
      step_weight_bytes =
          weight_bytes(i) + weight_bytes(s.layer2) + weight_bytes(s.layer3);
      step_stats = run_items([&](std::size_t item) {
        Tensor<T> ofm(c.ofm_shape());
        gpusim::KernelStats st;
        if constexpr (kIsF32) {
          st = run_pwdwpw_f32(dev_, a, b, c, cur[item],
                              weights[static_cast<std::size_t>(i)],
                              weights[static_cast<std::size_t>(s.layer2)],
                              weights[static_cast<std::size_t>(s.layer3)], ep1,
                              ep2, ep3, ofm, s.fcm_tiling);
        } else {
          st = run_pwdwpw_i8(dev_, a, b, c, cur[item],
                             weights[static_cast<std::size_t>(i)],
                             weights[static_cast<std::size_t>(s.layer2)],
                             weights[static_cast<std::size_t>(s.layer3)], ep1,
                             ep2, ep3, ofm, s.fcm_tiling);
        }
        cur[item] = std::move(ofm);
        handle_residuals(model_, s.layer3, cur[item], saved[item]);
        return st;
      });
    } else if (s.fused) {
      const LayerSpec& b = model_.layers[static_cast<std::size_t>(s.layer2)];
      const auto ep1 = epilogue(i);
      const auto ep2 = epilogue(s.layer2);
      name = std::string(fcm_kind_name(s.fcm_kind)) + "/" + a.name;
      step_weight_bytes = weight_bytes(i) + weight_bytes(s.layer2);
      step_stats = run_items([&](std::size_t item) {
        Tensor<T> ofm(b.ofm_shape());
        gpusim::KernelStats st;
        if constexpr (kIsF32) {
          st = run_fcm_f32(dev_, s.fcm_kind, a, b, cur[item],
                           weights[static_cast<std::size_t>(i)],
                           weights[static_cast<std::size_t>(s.layer2)], ep1,
                           ep2, ofm, s.fcm_tiling);
        } else {
          st = run_fcm_i8(dev_, s.fcm_kind, a, b, cur[item],
                          weights[static_cast<std::size_t>(i)],
                          weights[static_cast<std::size_t>(s.layer2)], ep1, ep2,
                          ofm, s.fcm_tiling);
        }
        cur[item] = std::move(ofm);
        handle_residuals(model_, s.layer2, cur[item], saved[item]);
        return st;
      });
    } else {
      const auto ep = epilogue(i);
      name = "LBL/" + a.name;
      step_weight_bytes = weight_bytes(i);
      step_stats = run_items([&](std::size_t item) {
        Tensor<T> ofm(a.ofm_shape());
        gpusim::KernelStats st;
        if constexpr (kIsF32) {
          st = run_lbl_f32(dev_, a, cur[item],
                           weights[static_cast<std::size_t>(i)], ep, ofm,
                           s.lbl_tiling);
        } else {
          st = run_lbl_i8(dev_, a, cur[item],
                          weights[static_cast<std::size_t>(i)], ep, ofm,
                          s.lbl_tiling);
        }
        cur[item] = std::move(ofm);
        handle_residuals(model_, i, cur[item], saved[item]);
        return st;
      });
    }
    // Batching's cost-model reuse term: the batch executes a step's kernel
    // back to back with unchanged weights, so when the step's weight
    // footprint fits the device's L2 share, items 2..n read weights from L2
    // and only item 1 touches DRAM (the same first-fetch-only accounting as
    // gpusim::apply_l2, restricted to the cross-item reloads — within each
    // item the paper's per-kernel accounting is kept, and a batch of one is
    // bit-identical to the unbatched report).
    if (n > 1 && step_weight_bytes > 0) {
      const gpusim::L2Params l2{};
      const auto budget = static_cast<std::int64_t>(
          static_cast<double>(dev_.l2_bytes) * l2.l2_share);
      if (step_weight_bytes <= budget) {
        const std::int64_t per_item_w =
            step_stats.weight_load_bytes / static_cast<std::int64_t>(n);
        const std::int64_t absorbed = step_stats.weight_load_bytes - per_item_w;
        step_stats.weight_load_bytes = per_item_w;
        step_stats.global_load_bytes -= absorbed;
      }
    }
    if (report != nullptr) {
      report->steps.push_back(evaluate_step(dev_, std::move(name), step_stats));
    }
  }
  return cur;
}

TensorF ModelRunner::run_f32(const planner::Plan& plan, const TensorF& input,
                             ModelReport* report) const {
  auto out = run_batch_impl<float>(plan, BatchViewF(&input, 1), report);
  return std::move(out.front());
}

TensorI8 ModelRunner::run_i8(const planner::Plan& plan, const TensorI8& input,
                             ModelReport* report) const {
  auto out = run_batch_impl<std::int8_t>(plan, BatchViewI8(&input, 1), report);
  return std::move(out.front());
}

std::vector<TensorF> ModelRunner::run_f32_batch(const planner::Plan& plan,
                                                const BatchViewF& inputs,
                                                ModelReport* report) const {
  return run_batch_impl<float>(plan, inputs, report);
}

std::vector<TensorI8> ModelRunner::run_i8_batch(const planner::Plan& plan,
                                                const BatchViewI8& inputs,
                                                ModelReport* report) const {
  return run_batch_impl<std::int8_t>(plan, inputs, report);
}

TensorF ModelRunner::run_reference_f32(const TensorF& input) const {
  TensorF cur = input;
  std::vector<std::optional<TensorF>> saved(
      static_cast<std::size_t>(model_.num_layers()));
  for (int i = 0; i < model_.num_layers(); ++i) {
    const LayerSpec& spec = model_.layers[static_cast<std::size_t>(i)];
    EpilogueF32 ep(bn_[static_cast<std::size_t>(i)], spec.act);
    cur = conv_ref_f32(spec, cur, weights_f_[static_cast<std::size_t>(i)], ep);
    handle_residuals(model_, i, cur, saved);
  }
  return cur;
}

TensorI8 ModelRunner::run_reference_i8(const TensorI8& input) const {
  TensorI8 cur = input;
  std::vector<std::optional<TensorI8>> saved(
      static_cast<std::size_t>(model_.num_layers()));
  for (int i = 0; i < model_.num_layers(); ++i) {
    const LayerSpec& spec = model_.layers[static_cast<std::size_t>(i)];
    FCM_CHECK(spec.kind != ConvKind::kStandard,
              "run_reference_i8: INT8 standard conv unsupported");
    EpilogueI8 ep(bn_[static_cast<std::size_t>(i)], spec.act,
                  quant_[static_cast<std::size_t>(i)]);
    cur = conv_ref_i8(spec, cur, weights_i8_[static_cast<std::size_t>(i)], ep);
    handle_residuals(model_, i, cur, saved);
  }
  return cur;
}

}  // namespace fcm::runtime
