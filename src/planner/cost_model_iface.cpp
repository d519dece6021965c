#include "planner/cost_model_iface.hpp"

#include <initializer_list>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "planner/cost_model.hpp"

namespace fcm::planner {

const char* cost_model_kind_name(CostModelKind k) {
  switch (k) {
    case CostModelKind::kAnalytical: return "analytical";
    case CostModelKind::kCalibrated: return "calibrated";
  }
  return "?";
}

bool CostModel::better(const gpusim::DeviceSpec& dev,
                       const gpusim::KernelStats& a,
                       const CandidateContext& actx,
                       const gpusim::KernelStats& b,
                       const CandidateContext& bctx) const {
  const double sa = score(dev, a, actx);
  const double sb = score(dev, b, bctx);
  if (sa != sb) return sa < sb;
  if (a.gma_bytes() != b.gma_bytes()) return a.gma_bytes() < b.gma_bytes();
  return a.num_blocks < b.num_blocks;
}

namespace {

class AnalyticalCostModel final : public CostModel {
 public:
  const char* name() const override { return "analytical"; }
  double score(const gpusim::DeviceSpec&, const gpusim::KernelStats& stats,
               const CandidateContext&) const override {
    // GMA bytes are < 2^53 for any model in the zoo, so the double carries
    // the int64 exactly and better() reproduces the historical
    // (gma_bytes, num_blocks) comparison bit-for-bit.
    return static_cast<double>(stats.gma_bytes());
  }
};

/// The calibrated-model slot. A plain mutex-guarded shared_ptr: installs are
/// rare (process start, fcmtune reload), reads are one lock per plan_model
/// call, never per candidate.
std::mutex g_calibrated_mu;
std::shared_ptr<const CostModel> g_calibrated;  // NOLINT(cert-err58-cpp)

double l1_fraction_of(std::int64_t l1, const gpusim::DeviceSpec& dev) {
  return dev.l1_bytes > 0
             ? static_cast<double>(l1) / static_cast<double>(dev.l1_bytes)
             : 0.0;
}

}  // namespace

double layer_padding_fraction(const LayerSpec& spec) {
  if (spec.pad == 0) return 0.0;
  const double total = static_cast<double>(spec.out_h()) * spec.kh *
                       static_cast<double>(spec.out_w()) * spec.kw;
  if (total <= 0.0) return 0.0;
  const double in_bounds =
      static_cast<double>(sum_taps(spec.out_h(), spec.kh, spec.stride,
                                   spec.pad, spec.in_h)) *
      static_cast<double>(sum_taps(spec.out_w(), spec.kw, spec.stride,
                                   spec.pad, spec.in_w));
  return 1.0 - in_bounds / total;
}

double partial_tile_fraction(
    std::initializer_list<std::pair<int, int>> dims) {
  double full = 1.0;
  double total = 1.0;
  for (const auto& [extent, tile] : dims) {
    if (tile <= 0) continue;
    full *= static_cast<double>(extent / tile);
    total *= static_cast<double>(ceil_div(extent, tile));
  }
  return total > 0.0 ? 1.0 - full / total : 0.0;
}

const CostModel& analytical_cost_model() {
  static const AnalyticalCostModel model;
  return model;
}

void set_calibrated_cost_model(std::shared_ptr<const CostModel> model) {
  std::lock_guard<std::mutex> lk(g_calibrated_mu);
  g_calibrated = std::move(model);
}

std::shared_ptr<const CostModel> calibrated_cost_model() {
  std::lock_guard<std::mutex> lk(g_calibrated_mu);
  return g_calibrated;
}

CandidateContext lbl_context(const gpusim::DeviceSpec& dev,
                             const LayerSpec& spec, const ConvTiling& t,
                             DType dt) {
  std::int64_t l1 = 0;
  switch (spec.kind) {
    case ConvKind::kPointwise: l1 = pw_l1_bytes(spec, t, dt); break;
    case ConvKind::kDepthwise: l1 = dw_l1_bytes(spec, t, dt); break;
    case ConvKind::kStandard: l1 = std_l1_bytes(spec, t, dt); break;
  }
  CandidateContext ctx;
  ctx.l1_fraction = l1_fraction_of(l1, dev);
  ctx.padding_fraction = layer_padding_fraction(spec);
  ctx.boundary_fraction = partial_tile_fraction({{spec.out_c, t.tile_f},
                                            {spec.out_h(), t.tile_h},
                                            {spec.out_w(), t.tile_w}});
  return ctx;
}

CandidateContext fcm_context(const gpusim::DeviceSpec& dev, FcmKind kind,
                             const LayerSpec& first, const LayerSpec& second,
                             const FcmTiling& t, DType dt) {
  CandidateContext ctx;
  ctx.l1_fraction = l1_fraction_of(fcm_l1_bytes(kind, first, second, t, dt),
                                   dev);
  switch (kind) {
    case FcmKind::kDwPw:
      ctx.padding_fraction = layer_padding_fraction(first);
      ctx.boundary_fraction = partial_tile_fraction(
          {{second.out_h(), t.tile_h}, {second.out_w(), t.tile_w}});
      break;
    case FcmKind::kPwDw:
    case FcmKind::kPwDwR:
      ctx.padding_fraction = layer_padding_fraction(second);
      ctx.boundary_fraction = partial_tile_fraction({{first.out_c, t.tile_c},
                                                {second.out_h(), t.tile_h},
                                                {second.out_w(), t.tile_w}});
      break;
    case FcmKind::kPwPw:
      ctx.boundary_fraction = partial_tile_fraction(
          {{second.out_h(), t.tile_h}, {second.out_w(), t.tile_w}});
      break;
    case FcmKind::kPwDwPw:
      throw Error("fcm_context: use pwdwpw_context for triples");
  }
  return ctx;
}

CandidateContext pwdwpw_context(const gpusim::DeviceSpec& dev,
                                const LayerSpec& pw1, const LayerSpec& dw,
                                const LayerSpec& pw2, const FcmTiling& t,
                                DType dt) {
  CandidateContext ctx;
  ctx.l1_fraction =
      l1_fraction_of(pwdwpw_l1_bytes(pw1, dw, pw2, t, dt), dev);
  ctx.padding_fraction = layer_padding_fraction(dw);
  ctx.boundary_fraction = partial_tile_fraction(
      {{pw2.out_h(), t.tile_h}, {pw2.out_w(), t.tile_w}});
  return ctx;
}

}  // namespace fcm::planner
