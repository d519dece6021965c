// Plan serialisation.
//
// FusePlanner plans are deployment artefacts: the paper's workflow derives a
// complete CNN execution plan offline and implements the network from it.
// This module round-trips plans through a line-oriented text format so plans
// can be stored, diffed and shipped:
//
//   fcmplan v1 model=Mob_v2 device=RTX-A4000 dtype=int8
//   lbl layer=0 th=8 tw=8 tf=32
//   fcm kind=PWDW_R layers=1,2 th=7 tw=7 tc=16 cf=0
//   fcm kind=PWDWPW layers=3,4,5 th=7 tw=7 tc=0 cf=32
//
// Stats are not serialised — they are a function of (device, model, tiling)
// and are recomputed on load by `reconcile`.
#pragma once

#include <string>

#include "gpusim/device_spec.hpp"
#include "layers/model_graph.hpp"
#include "planner/plan.hpp"

namespace fcm::planner {

/// Serialise a plan's schedule (steps + tilings) to the text format above.
std::string serialize(const Plan& plan);

/// Parse a serialised plan. Stats are left zeroed; call `reconcile` to fill
/// them. Throws fcm::Error on malformed input.
Plan deserialize(const std::string& text);

/// Recompute every step's predicted stats for `model` on `dev` and validate
/// the schedule against the model: steps cover the layers in order, each
/// once; fused steps obey plan_model's fusability rules and layer kinds;
/// every tile size a step's kind uses lies in 1..the extent the planner
/// searches it over, and unused ones are 0. Throws fcm::Error when the plan
/// does not fit the model.
void reconcile(const gpusim::DeviceSpec& dev, const ModelGraph& model,
               Plan& plan);

}  // namespace fcm::planner
