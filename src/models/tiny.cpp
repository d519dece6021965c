#include "models/model_zoo.hpp"

namespace fcm::models {

// "Tiny" — a compact MobileNet-style depthwise-separable stack used by the
// serving tests, CI smokes and perfbench's functional-mix. Unlike the paper
// models it has no standard-conv stem (a pointwise stem instead), so it is
// the one zoo entry the INT8 functional path (`ModelRunner::run_i8`) can
// execute end to end; it is also small enough that a full functional run is
// milliseconds, which keeps queue/backpressure tests and offered-load sweeps
// fast. Not part of `all_models()` — it reproduces no paper figure.
ModelGraph tiny() {
  ModelGraph g;
  g.name = "Tiny";
  const auto act = ActKind::kReLU6;

  g.layers.push_back(LayerSpec::pointwise("stem", 8, 32, 32, 16, act));
  g.layers.push_back(LayerSpec::pointwise("exp1", 16, 32, 32, 48, act));
  g.layers.push_back(LayerSpec::depthwise("dw1", 48, 32, 32, 3, 1, act));
  g.layers.push_back(
      LayerSpec::pointwise("proj1", 48, 32, 32, 16, ActKind::kNone));
  g.layers.push_back(LayerSpec::pointwise("exp2", 16, 32, 32, 48, act));
  g.layers.push_back(LayerSpec::depthwise("dw2", 48, 32, 32, 3, 2, act));
  g.layers.push_back(
      LayerSpec::pointwise("proj2", 48, 16, 16, 32, ActKind::kNone));
  g.layers.push_back(LayerSpec::pointwise("head", 32, 16, 16, 64, act));
  g.residual_edges.emplace_back(0, 3);  // stem output → proj1 output
  g.validate();
  return g;
}

}  // namespace fcm::models
