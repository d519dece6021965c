#include "planner/fuse_planner.hpp"

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "kernels/kernel_registry.hpp"

namespace fcm::planner {

bool pair_fusable(const LayerSpec& first, const LayerSpec& second) {
  if (!(first.ofm_shape() == second.ifm_shape())) return false;
  FcmKind kind;
  return fcm_kind_for(first, second, kind);
}

bool model_pair_fusable(const ModelGraph& model, int i) {
  const int n = model.num_layers();
  if (i < 0 || i + 1 >= n) return false;
  const LayerSpec& a = model.layers[static_cast<std::size_t>(i)];
  const LayerSpec& b = model.layers[static_cast<std::size_t>(i + 1)];
  return !model.feeds_residual(i) && !model.receives_residual(i) &&
         a.allow_fusion && b.allow_fusion && pair_fusable(a, b);
}

bool model_triple_fusable(const ModelGraph& model, int i) {
  const int n = model.num_layers();
  if (i < 0 || i + 2 >= n) return false;
  const LayerSpec& a = model.layers[static_cast<std::size_t>(i)];
  const LayerSpec& b = model.layers[static_cast<std::size_t>(i + 1)];
  const LayerSpec& c = model.layers[static_cast<std::size_t>(i + 2)];
  if (a.kind != ConvKind::kPointwise || b.kind != ConvKind::kDepthwise ||
      c.kind != ConvKind::kPointwise) {
    return false;
  }
  if (!a.allow_fusion || !b.allow_fusion || !c.allow_fusion) return false;
  if (model.feeds_residual(i) || model.receives_residual(i)) return false;
  if (model.feeds_residual(i + 1) || model.receives_residual(i + 1)) {
    return false;
  }
  return a.ofm_shape() == b.ifm_shape() && b.ofm_shape() == c.ifm_shape();
}

PairDecision plan_pair(const gpusim::DeviceSpec& dev, const LayerSpec& first,
                       const LayerSpec& second, DType dt) {
  FCM_CHECK(first.ofm_shape() == second.ifm_shape(),
            "plan_pair: layers do not chain");
  auto lbl1 = best_lbl_tiling(dev, first, dt);
  auto lbl2 = best_lbl_tiling(dev, second, dt);
  FCM_CHECK(lbl1.has_value(),
            "plan_pair: no feasible LBL tiling for " + first.name + " on " +
                dev.name);
  FCM_CHECK(lbl2.has_value(),
            "plan_pair: no feasible LBL tiling for " + second.name + " on " +
                dev.name);

  PairDecision d;
  d.lbl_first = *lbl1;
  d.lbl_second = *lbl2;
  FcmKind kind;
  if (fcm_kind_for(first, second, kind)) {
    d.fcm = best_fcm_tiling(dev, kind, first, second, dt);
  }
  return d;
}

namespace {

PlanStep make_lbl_step(int layer, const LblChoice& c) {
  PlanStep s;
  s.fused = false;
  s.layer = layer;
  s.lbl_tiling = c.tiling;
  s.stats = c.stats;
  return s;
}

PlanStep make_fcm_step(int layer, const FcmChoice& c) {
  PlanStep s;
  s.fused = true;
  s.layer = layer;
  s.layer2 = layer + 1;
  s.fcm_kind = c.kind;
  s.fcm_tiling = c.tiling;
  s.stats = c.stats;
  return s;
}

}  // namespace

namespace {

/// Per-layer LBL choice with the standard-conv FP32 fallback applied.
LblChoice lbl_choice_for(const gpusim::DeviceSpec& dev, const LayerSpec& spec,
                         DType dt) {
  const DType layer_dt = spec.kind == ConvKind::kStandard ? DType::kF32 : dt;
  auto lbl = best_lbl_tiling(dev, spec, layer_dt);
  FCM_CHECK(lbl.has_value(),
            "no feasible LBL tiling for " + spec.name + " on " + dev.name);
  return *lbl;
}

/// For every position i where `searched(i)`, the first such position whose
/// `width` layers equal those from i on in every field but the name; -1
/// where `searched(i)` is false. `geometry` is the model's layers with their
/// names cleared.
template <typename Searched>
std::vector<int> first_occurrences(const std::vector<LayerSpec>& geometry,
                                   int width, const Searched& searched) {
  const int n = static_cast<int>(geometry.size());
  std::vector<int> first(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (!searched(i)) continue;
    first[static_cast<std::size_t>(i)] = i;
    for (int j = 0; j < i; ++j) {
      if (first[static_cast<std::size_t>(j)] != j) continue;
      bool same = true;
      for (int d = 0; d < width && same; ++d) {
        same = geometry[static_cast<std::size_t>(j + d)] ==
               geometry[static_cast<std::size_t>(i + d)];
      }
      if (same) {
        first[static_cast<std::size_t>(i)] = j;
        break;
      }
    }
  }
  return first;
}

PlanStep make_fcm3_step(int layer, const Fcm3Choice& c) {
  PlanStep s;
  s.fused = true;
  s.layer = layer;
  s.layer2 = layer + 1;
  s.layer3 = layer + 2;
  s.fcm_kind = FcmKind::kPwDwPw;
  s.fcm_tiling = c.tiling;
  s.stats = c.stats;
  return s;
}

}  // namespace

Plan plan_model(const gpusim::DeviceSpec& dev, const ModelGraph& model,
                DType dt, const PlanOptions& options) {
  model.validate();
  Plan plan;
  plan.model_name = model.name;
  plan.device_name = dev.name;
  plan.dtype = dt;

  const int n = model.num_layers();

  // Per-layer LBL costs, per-pair fused costs, per-triple fused costs. Every
  // layer/pair/triple is an independent tile search, so the whole estimator
  // pass fans out over the global pool: each worker writes only its own slot
  // and the DP below runs after the join, so plans are identical to a serial
  // pass for any worker count.
  //
  // Models repeat their blocks, and each search is a pure function of the
  // layers it reads, names aside (dev and dt are fixed here). So
  // only the first occurrence of each distinct layer, fusable pair and
  // fusable triple is searched, and the repeats copy its choice after the
  // join.
  std::vector<LayerSpec> geometry = model.layers;
  for (LayerSpec& l : geometry) l.name.clear();
  const auto lbl_src = first_occurrences(geometry, 1, [](int) { return true; });
  const auto pair_src = first_occurrences(
      geometry, 2, [&](int i) { return model_pair_fusable(model, i); });
  const auto triple_src = first_occurrences(geometry, 3, [&](int i) {
    return options.enable_triple && model_triple_fusable(model, i);
  });

  std::vector<LblChoice> lbl(static_cast<std::size_t>(n));
  std::vector<std::optional<FcmChoice>> fused(static_cast<std::size_t>(n));
  std::vector<std::optional<Fcm3Choice>> triple(static_cast<std::size_t>(n));
  ThreadPool::global().parallel_for(n, [&](std::int64_t idx) {
    const int i = static_cast<int>(idx);
    const std::size_t s = static_cast<std::size_t>(i);
    if (lbl_src[s] == i) {
      lbl[s] = lbl_choice_for(dev, model.layers[s], dt);
    }
    if (pair_src[s] == i) {
      FcmKind kind;
      fcm_kind_for(model.layers[s], model.layers[s + 1], kind);
      fused[s] = best_fcm_tiling(dev, kind, model.layers[s],
                                 model.layers[s + 1], dt);
    }
    if (triple_src[s] == i) {
      triple[s] = best_pwdwpw_tiling(dev, model.layers[s], model.layers[s + 1],
                                     model.layers[s + 2], dt);
    }
  });
  for (int i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    if (lbl_src[s] != i) lbl[s] = lbl[static_cast<std::size_t>(lbl_src[s])];
    if (pair_src[s] >= 0 && pair_src[s] != i) {
      fused[s] = fused[static_cast<std::size_t>(pair_src[s])];
    }
    if (triple_src[s] >= 0 && triple_src[s] != i) {
      triple[s] = triple[static_cast<std::size_t>(triple_src[s])];
    }
  }

  // DP over the chain: dp[i] = min total GMA bytes for layers i..n-1;
  // take[i] is the number of layers the winning step at i covers.
  std::vector<std::int64_t> dp(static_cast<std::size_t>(n) + 3, 0);
  std::vector<int> take(static_cast<std::size_t>(n), 1);
  for (int i = n - 1; i >= 0; --i) {
    const std::size_t s = static_cast<std::size_t>(i);
    dp[s] = lbl[s].stats.gma_bytes() + dp[s + 1];
    const auto& f = fused[s];
    if (f.has_value()) {
      const std::int64_t with_fuse = f->stats.gma_bytes() + dp[s + 2];
      if (with_fuse < dp[s]) {
        dp[s] = with_fuse;
        take[s] = 2;
      }
    }
    const auto& t3 = triple[s];
    if (t3.has_value()) {
      const std::int64_t with_triple = t3->stats.gma_bytes() + dp[s + 3];
      if (with_triple < dp[s]) {
        dp[s] = with_triple;
        take[s] = 3;
      }
    }
  }

  for (int i = 0; i < n;) {
    switch (take[static_cast<std::size_t>(i)]) {
      case 3:
        plan.steps.push_back(
            make_fcm3_step(i, *triple[static_cast<std::size_t>(i)]));
        i += 3;
        break;
      case 2:
        plan.steps.push_back(
            make_fcm_step(i, *fused[static_cast<std::size_t>(i)]));
        i += 2;
        break;
      default:
        plan.steps.push_back(
            make_lbl_step(i, lbl[static_cast<std::size_t>(i)]));
        i += 1;
        break;
    }
  }
  return plan;
}

Plan plan_model_greedy(const gpusim::DeviceSpec& dev, const ModelGraph& model,
                       DType dt) {
  model.validate();
  Plan plan;
  plan.model_name = model.name;
  plan.device_name = dev.name;
  plan.dtype = dt;

  const int n = model.num_layers();
  int i = 0;
  while (i < n) {
    const LayerSpec& cur = model.layers[static_cast<std::size_t>(i)];
    // INT8 standard convs are outside the paper's scope; they also block
    // fusion, so they always go LBL (executed in FP32 by the runtime).
    if (model_pair_fusable(model, i)) {
      const auto d =
          plan_pair(dev, cur, model.layers[static_cast<std::size_t>(i + 1)], dt);
      if (d.fuse()) {
        plan.steps.push_back(make_fcm_step(i, *d.fcm));
        i += 2;
        continue;
      }
      plan.steps.push_back(make_lbl_step(i, d.lbl_first));
      ++i;
      continue;
    }
    const DType layer_dt =
        cur.kind == ConvKind::kStandard ? DType::kF32 : dt;
    auto lbl = best_lbl_tiling(dev, cur, layer_dt);
    FCM_CHECK(lbl.has_value(), "plan_model: no feasible LBL tiling for " +
                                   cur.name + " on " + dev.name);
    plan.steps.push_back(make_lbl_step(i, *lbl));
    ++i;
  }
  return plan;
}

Plan plan_model_lbl(const gpusim::DeviceSpec& dev, const ModelGraph& model,
                    DType dt) {
  model.validate();
  Plan plan;
  plan.model_name = model.name + "(LBL)";
  plan.device_name = dev.name;
  plan.dtype = dt;
  const int n = model.num_layers();
  std::vector<LblChoice> lbl(static_cast<std::size_t>(n));
  ThreadPool::global().parallel_for(n, [&](std::int64_t i) {
    const LayerSpec& cur = model.layers[static_cast<std::size_t>(i)];
    const DType layer_dt =
        cur.kind == ConvKind::kStandard ? DType::kF32 : dt;
    auto best = best_lbl_tiling(dev, cur, layer_dt);
    FCM_CHECK(best.has_value(), "plan_model_lbl: no feasible LBL tiling for " +
                                    cur.name + " on " + dev.name);
    lbl[static_cast<std::size_t>(i)] = *best;
  });
  for (int i = 0; i < n; ++i) {
    plan.steps.push_back(make_lbl_step(i, lbl[static_cast<std::size_t>(i)]));
  }
  return plan;
}

}  // namespace fcm::planner
