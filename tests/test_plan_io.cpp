// Plan serialisation tests: round-trip, reconciliation against the model,
// and rejection of malformed/unsound schedules.
#include <gtest/gtest.h>

#include "gpusim/device_spec.hpp"
#include "models/model_zoo.hpp"
#include "planner/fuse_planner.hpp"
#include "planner/plan_io.hpp"

namespace fcm::planner {
namespace {

TEST(PlanIo, RoundTripPreservesSchedule) {
  const auto dev = gpusim::rtx_a4000();
  const auto model = models::mobilenet_v2();
  PlanOptions opt;
  opt.enable_triple = true;
  const auto plan = plan_model(dev, model, DType::kI8, opt);

  const std::string text = serialize(plan);
  auto loaded = deserialize(text);
  ASSERT_EQ(loaded.steps.size(), plan.steps.size());
  EXPECT_EQ(loaded.model_name, plan.model_name);
  EXPECT_EQ(loaded.dtype, plan.dtype);
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const auto& a = plan.steps[i];
    const auto& b = loaded.steps[i];
    EXPECT_EQ(a.fused, b.fused);
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.layer2, b.layer2);
    EXPECT_EQ(a.layer3, b.layer3);
    if (a.fused) {
      EXPECT_EQ(a.fcm_kind, b.fcm_kind);
      EXPECT_EQ(a.fcm_tiling.tile_h, b.fcm_tiling.tile_h);
      EXPECT_EQ(a.fcm_tiling.tile_c, b.fcm_tiling.tile_c);
      EXPECT_EQ(a.fcm_tiling.chunk_f, b.fcm_tiling.chunk_f);
    } else {
      EXPECT_EQ(a.lbl_tiling.tile_f, b.lbl_tiling.tile_f);
    }
  }

  // Reconciliation recomputes exactly the planner's stats.
  reconcile(dev, model, loaded);
  EXPECT_EQ(loaded.total_gma_bytes(), plan.total_gma_bytes());
}

TEST(PlanIo, SerializedFormIsStable) {
  Plan p;
  p.model_name = "tiny";
  p.device_name = "RTX-A4000";
  p.dtype = DType::kF32;
  PlanStep lbl;
  lbl.layer = 0;
  lbl.lbl_tiling = ConvTiling{4, 8, 16};
  p.steps.push_back(lbl);
  PlanStep fcm;
  fcm.fused = true;
  fcm.layer = 1;
  fcm.layer2 = 2;
  fcm.fcm_kind = FcmKind::kPwDwR;
  fcm.fcm_tiling = FcmTiling{7, 7, 16, 0};
  p.steps.push_back(fcm);
  EXPECT_EQ(serialize(p),
            "fcmplan v1 model=tiny device=RTX-A4000 dtype=fp32\n"
            "lbl layer=0 th=4 tw=8 tf=16\n"
            "fcm kind=PWDW_R layers=1,2 th=7 tw=7 tc=16 cf=0\n");
}

TEST(PlanIo, RejectsMalformedInput) {
  EXPECT_THROW(deserialize(""), Error);
  EXPECT_THROW(deserialize("not-a-plan v1 model=x device=y dtype=fp32\n"),
               Error);
  EXPECT_THROW(
      deserialize("fcmplan v1 model=x device=y dtype=fp32\nbogus layer=0\n"),
      Error);
  EXPECT_THROW(
      deserialize("fcmplan v1 model=x device=y dtype=fp32\nlbl th=1 tw=1\n"),
      Error);  // missing layer
  // Malformed numerics must surface as fcm::Error, not std::invalid_argument
  // (a corrupt plan-cache file is recovered by catching Error and replanning).
  EXPECT_THROW(deserialize("fcmplan v1 model=x device=y dtype=fp32\n"
                           "lbl layer=abc th=1 tw=1 tf=1\n"),
               Error);
  EXPECT_THROW(deserialize("fcmplan v1 model=x device=y dtype=fp32\n"
                           "lbl layer= th=1 tw=1 tf=1\n"),
               Error);
  EXPECT_THROW(deserialize("fcmplan v1 model=x device=y dtype=fp32\n"
                           "fcm kind=DWPW layers=1,x th=1 tw=1 tc=0 cf=8\n"),
               Error);
  // Only the dtypes serialize writes; anything else is not silently fp32.
  EXPECT_THROW(deserialize("fcmplan v1 model=x device=y dtype=fp16\n"), Error);
}

TEST(PlanIo, ReconcileRejectsUnsoundSchedules) {
  const auto dev = gpusim::gtx1660();
  const auto mob = models::mobilenet_v1();
  const auto pw = LayerSpec::pointwise("pw", 16, 8, 8, 16);
  const auto dw = LayerSpec::depthwise("dw", 16, 8, 8, 3, 1);
  const ModelGraph pw2{"pw2", {pw, pw}, {}};
  const ModelGraph pw3{"pw3", {pw, pw, pw}, {}};
  const ModelGraph skip{"skip", {pw, pw, pw}, {{0, 2}}};
  ModelGraph pinned = pw2;
  pinned.layers[1].allow_fusion = false;
  const ModelGraph pwdw{"pwdw", {pw, dw}, {}};
  const ModelGraph dwpw{"dwpw", {dw, pw}, {}};

  struct Row {
    const char* why;
    const ModelGraph& model;
    std::string steps;
  };
  const std::string lbl = " th=4 tw=4 tf=16\n";
  const std::string big = "2147483647";
  const std::string mob_plan = serialize(plan_model(dev, mob, DType::kF32));
  const std::string mob_steps = mob_plan.substr(mob_plan.find('\n') + 1);
  const std::vector<Row> rows = {
      {"missing coverage", mob, "lbl layer=0" + lbl},
      {"double coverage", mob, mob_steps + "lbl layer=0" + lbl},
      // Layer 0 is a standard conv, which no FCM takes.
      {"standard conv in an FCM", mob,
       "fcm kind=DWPW layers=0,1 th=4 tw=4 tc=0 cf=8\n"},
      {"steps out of layer order", pw2,
       "lbl layer=1" + lbl + "lbl layer=0" + lbl},
      {"fused layers not adjacent", pw3,
       "fcm kind=PWPW layers=0,2 th=4 tw=4 tc=0 cf=16\nlbl layer=1" + lbl},
      {"fusion across a residual tap", skip,
       "fcm kind=PWPW layers=0,1 th=4 tw=4 tc=0 cf=16\nlbl layer=2" + lbl},
      {"fusion into an allow_fusion=false layer", pinned,
       "fcm kind=PWPW layers=0,1 th=4 tw=4 tc=0 cf=16\n"},
      {"tiles past int range", pwdw,
       "fcm kind=PWDW_R layers=0,1 th=" + big + " tw=" + big + " tc=" + big +
           " cf=" + big + "\n"},
      {"DWPW with cf=0", dwpw,
       "fcm kind=DWPW layers=0,1 th=4 tw=4 tc=0 cf=0\n"},
      {"DWPW with an unused tc", dwpw,
       "fcm kind=DWPW layers=0,1 th=4 tw=4 tc=8 cf=16\n"},
      {"LBL tile past the extent", pw2,
       "lbl layer=0 th=9 tw=4 tf=16\nlbl layer=1" + lbl},
  };
  const auto load = [](const Row& r) {
    return deserialize("fcmplan v1 model=" + r.model.name +
                       " device=GTX-1660 dtype=fp32\n" + r.steps);
  };
  for (const auto& r : rows) {
    auto p = load(r);
    EXPECT_THROW(reconcile(dev, r.model, p), Error) << r.why;
  }

  // The same models take sound schedules, so each rejection above comes
  // from the rule its row names.
  const std::vector<Row> sound = {
      {"in order", pw2, "lbl layer=0" + lbl + "lbl layer=1" + lbl},
      {"PWPW", pw3,
       "fcm kind=PWPW layers=0,1 th=4 tw=4 tc=0 cf=16\nlbl layer=2" + lbl},
      {"past the skip", skip, "lbl layer=0" + lbl +
           "fcm kind=PWPW layers=1,2 th=8 tw=8 tc=0 cf=16\n"},
      {"PWDW_R", pwdw, "fcm kind=PWDW_R layers=0,1 th=4 tw=8 tc=16 cf=0\n"},
      {"DWPW", dwpw, "fcm kind=DWPW layers=0,1 th=1 tw=8 tc=0 cf=16\n"},
  };
  for (const auto& r : sound) {
    auto p = load(r);
    EXPECT_NO_THROW(reconcile(dev, r.model, p)) << r.why;
  }
}

}  // namespace
}  // namespace fcm::planner
