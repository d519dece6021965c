// Autotuning-loop tests: feature-log golden acceptance + strict rejection of
// malformed input (same discipline as the workload trace format), cost-model
// serialize/parse round-trip, bit-identical refits from the same log,
// calibrated-vs-analytical accuracy on a held-out split of a real engine
// run, beam-vs-exhaustive plan quality across the model zoo, and the
// plan-cache keys that keep calibrated/beam plans apart from analytical ones.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "autotune/feature_log.hpp"
#include "autotune/features.hpp"
#include "autotune/fit.hpp"
#include "common/error.hpp"
#include "common/jsonl.hpp"
#include "common/random.hpp"
#include "gpusim/device_spec.hpp"
#include "models/model_zoo.hpp"
#include "planner/cost_model_iface.hpp"
#include "planner/fuse_planner.hpp"
#include "planner/tile_search.hpp"
#include "serving/inference_engine.hpp"
#include "serving/plan_cache.hpp"

namespace fcm::autotune {
namespace {

// --- fixtures ---------------------------------------------------------------

/// One fully-populated record; index-seeded so logs are deterministic but
/// rows are linearly independent enough to exercise the scanner and fitter.
FeatureRecord sample_record(int i) {
  FeatureRecord r;
  r.source = i % 3 == 0 ? "plan" : "execute";
  r.model = "Tiny";
  r.device = "RTX-A4000";
  r.dtype = i % 2 == 0 ? DType::kF32 : DType::kI8;
  r.batch = 1 + i % 4;
  std::uint64_t s = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i);
  for (std::size_t j = 0; j < kNumFeatures; ++j) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    r.features[j] = static_cast<double>(s >> 40) / static_cast<double>(1 << 24);
  }
  r.predicted_s = 1e-3 * (i + 1);
  r.executed_s = r.source == "plan" ? 0.0 : 0.9e-3 * (i + 1);
  return r;
}

FeatureLog sample_log(int n) {
  FeatureLog log;
  for (int i = 0; i < n; ++i) log.records.push_back(sample_record(i));
  return log;
}

/// Corrupt a serialized log by replacing the first occurrence of `needle`
/// (which must exist — a vacuous corruption would silently pass the test).
std::string replace_once(std::string text, const std::string& needle,
                         const std::string& with) {
  const auto pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "corruption needle missing: " << needle;
  return text.replace(pos, needle.size(), with);
}

// --- feature log ------------------------------------------------------------

TEST(FeatureLog, SerializeParseIdentity) {
  const FeatureLog log = sample_log(6);
  const std::string text = serialize_feature_log(log);
  const FeatureLog back = parse_feature_log(text);

  ASSERT_EQ(back.records.size(), log.records.size());
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    const FeatureRecord& a = log.records[i];
    const FeatureRecord& b = back.records[i];
    EXPECT_EQ(b.source, a.source);
    EXPECT_EQ(b.model, a.model);
    EXPECT_EQ(b.device, a.device);
    EXPECT_EQ(b.dtype, a.dtype);
    EXPECT_EQ(b.batch, a.batch);
    EXPECT_EQ(b.predicted_s, a.predicted_s);  // fmt_double_rt: bit-exact
    EXPECT_EQ(b.executed_s, a.executed_s);
    for (std::size_t j = 0; j < kNumFeatures; ++j) {
      EXPECT_EQ(b.features[j], a.features[j]);
    }
  }
  // serialize ∘ parse ∘ serialize is a fixed point — byte for byte.
  EXPECT_EQ(serialize_feature_log(back), text);
}

TEST(FeatureLog, GoldenHandWrittenLineParses) {
  // Field order deliberately differs from the writer's: the scanner reads by
  // key, not position.
  std::string line = "{\"model\": \"M\", \"source\": \"execute\", "
                     "\"device\": \"GTX-1660\", \"batch\": 2, "
                     "\"dtype\": \"int8\", \"executed\": 0.5, "
                     "\"predicted\": 1.5";
  for (std::size_t j = 0; j < kNumFeatures; ++j) {
    line += ", \"f" + std::to_string(j) + "\": " + std::to_string(j) + ".25";
  }
  line += "}";
  const std::string text =
      "{\"fcm_features\": 1, \"width\": 16, \"records\": 1}\n" + line + "\n";

  const FeatureLog log = parse_feature_log(text);
  ASSERT_EQ(log.records.size(), 1u);
  const FeatureRecord& r = log.records[0];
  EXPECT_EQ(r.source, "execute");
  EXPECT_EQ(r.model, "M");
  EXPECT_EQ(r.device, "GTX-1660");
  EXPECT_EQ(r.dtype, DType::kI8);
  EXPECT_EQ(r.batch, 2);
  EXPECT_EQ(r.predicted_s, 1.5);
  EXPECT_EQ(r.executed_s, 0.5);
  EXPECT_EQ(r.features[3], 3.25);
}

TEST(FeatureLog, RejectsMalformedInput) {
  const std::string good = serialize_feature_log(sample_log(2));
  EXPECT_NO_THROW(parse_feature_log(good));

  // Version and schema-shape mismatches.
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"fcm_features\": 1",
                                              "\"fcm_features\": 2")),
               Error);
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"width\": 16",
                                              "\"width\": 15")),
               Error);
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"records\": 2",
                                              "\"records\": 3")),
               Error);
  // Unknown and duplicate keys are hard errors, not warnings.
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"batch\"",
                                              "\"bogus\"")),
               Error);
  EXPECT_THROW(parse_feature_log(replace_once(
                   good, "\"f0\":", "\"batch\": 1, \"f0\":")),
               Error);
  // Enum, range and integrality checks on the values themselves.
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"source\": \"plan\"",
                                              "\"source\": \"warmup\"")),
               Error);
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"batch\": 1",
                                              "\"batch\": 0")),
               Error);
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"batch\": 1",
                                              "\"batch\": 1.5")),
               Error);
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"predicted\": 0.001",
                                              "\"predicted\": -0.001")),
               Error);
  // Range rules of the shared scanner: no infinities, no out-of-range cast.
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"predicted\": 0.001",
                                              "\"predicted\": 1e999")),
               Error);
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"executed\": 0,",
                                              "\"executed\": 1e999,")),
               Error);
  EXPECT_THROW(parse_feature_log(replace_once(good, "\"batch\": 1",
                                              "\"batch\": 1e10")),
               Error);
  // Structural damage: trailing garbage, truncation, missing header.
  EXPECT_THROW(parse_feature_log(good + "not json\n"), Error);
  EXPECT_THROW(parse_feature_log(good.substr(0, good.size() / 2)), Error);
  EXPECT_THROW(parse_feature_log("\n"), Error);
  const auto first_newline = good.find('\n');
  EXPECT_THROW(parse_feature_log(good.substr(first_newline + 1)), Error);
}

// --- cost-model file --------------------------------------------------------

TEST(CostModelFile, SerializeParseRoundTrip) {
  FeatureVector w{};
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    w[i] = (i % 2 == 0 ? 1.0 : -1.0) * (0.125 + static_cast<double>(i)) / 3.0;
  }
  const std::string text = serialize_cost_model(w);
  const FeatureVector back = parse_cost_model(text);
  for (std::size_t i = 0; i < kNumFeatures; ++i) EXPECT_EQ(back[i], w[i]);
  EXPECT_EQ(serialize_cost_model(back), text);

  EXPECT_THROW(parse_cost_model(replace_once(text, "\"fcm_cost_model\": 1",
                                             "\"fcm_cost_model\": 9")),
               Error);
  EXPECT_THROW(parse_cost_model(replace_once(text, "\"width\": 16",
                                             "\"width\": 8")),
               Error);
  EXPECT_THROW(parse_cost_model(replace_once(text, "\"launches\"",
                                             "\"rockets\"")),
               Error);
  EXPECT_THROW(parse_cost_model(text + text), Error);  // trailing object
  EXPECT_THROW(parse_cost_model(replace_once(
                   text, "\"launches\": " + jsonl::fmt_double_rt(w[0]),
                   "\"launches\": 1e999")),
               Error);  // an infinite weight
  EXPECT_THROW(parse_cost_model(""), Error);
}

// --- fitter -----------------------------------------------------------------

TEST(Fit, SameLogGivesBitIdenticalModel) {
  const FeatureLog log = sample_log(64);
  const FitResult a = fit_cost_model(log);
  const FitResult b = fit_cost_model(log);
  EXPECT_EQ(serialize_cost_model(a.weights), serialize_cost_model(b.weights));

  // And through the file format: parse(serialize(w)) refits nothing, so the
  // installed planner model is exactly the fitted one.
  EXPECT_EQ(serialize_cost_model(parse_cost_model(serialize_cost_model(
                a.weights))),
            serialize_cost_model(a.weights));
}

TEST(Fit, RecoversALinearTargetAndIgnoresPlanRecords) {
  // Target is an exact linear function of the features; with no ridge the
  // closed form must recover it (tiny numerical error), while the analytical
  // prediction carries a deliberate 10% bias.
  FeatureLog log = sample_log(64);
  for (FeatureRecord& r : log.records) {
    double t = 0.0;
    for (std::size_t j = 0; j < kNumFeatures; ++j) {
      t += 0.01 * static_cast<double>(j + 1) * r.features[j];
    }
    r.executed_s = r.source == "plan" ? 0.0 : t;
    r.predicted_s = 1.1 * t;
  }
  FitOptions fopt;
  fopt.lambda = 0.0;
  const FitResult res = fit_cost_model(log, fopt);
  EXPECT_GT(res.records_used, 0u);
  EXPECT_LT(res.records_used, log.records.size());  // plan records excluded
  EXPECT_LT(res.mae_calibrated, 1e-12);
  EXPECT_LT(res.mae_calibrated, res.mae_analytical);
}

/// `n` deterministic Tiny-shaped FP32 inputs seeded from `seed0`.
std::vector<TensorF> tiny_batch_f32(int n, std::uint64_t seed0) {
  const FmShape shape = models::tiny().layers.front().ifm_shape();
  std::vector<TensorF> batch;
  for (int i = 0; i < n; ++i) {
    TensorF in(shape);
    fill_uniform(in, seed0 + static_cast<std::uint64_t>(i));
    batch.push_back(std::move(in));
  }
  return batch;
}

TEST(Fit, CalibratedBeatsAnalyticalOnHeldOutEngineRun) {
  // Real serving run with mixed batch sizes: batched execution reuses
  // weights across items in L2, so the analytical per-item-times-batch
  // prediction systematically overshoots. Train on the even executed
  // records, hold out the odd ones — the fitted model must beat the
  // analytical prediction where it was never fitted.
  auto collector = std::make_shared<FeatureCollector>();
  serving::EngineOptions opt;
  opt.seed = 7;
  opt.feature_log = collector;
  serving::InferenceEngine engine(gpusim::jetson_orin(), opt);

  std::uint64_t seed = 100;
  for (int round = 0; round < 3; ++round) {
    for (int b : {1, 2, 3, 4, 5, 6, 7, 8}) {
      const auto resp = engine.submit(
          serving::ServeRequest::f32("Tiny", tiny_batch_f32(b, seed)));
      ASSERT_TRUE(resp.ok());
      seed += static_cast<std::uint64_t>(b);
    }
  }

  FeatureLog train, heldout;
  std::size_t i = 0;
  for (const FeatureRecord& r : collector->snapshot().records) {
    if (r.source != "execute") continue;
    (i++ % 2 == 0 ? train : heldout).records.push_back(r);
  }
  ASSERT_GE(train.records.size(), 8u);
  ASSERT_GE(heldout.records.size(), 8u);

  const FitResult res = fit_cost_model(train);
  const double mae_cal = mean_abs_error(res.weights, heldout);
  const double mae_ana = mean_abs_error_analytical(heldout);
  EXPECT_LT(mae_cal, mae_ana);
}

// --- planner seam -----------------------------------------------------------

TEST(PlannerSeam, CalibratedKindRequiresAnInstalledModel) {
  planner::set_calibrated_cost_model(nullptr);
  planner::PlanOptions o;
  o.cost_model = planner::CostModelKind::kCalibrated;
  const auto dev = gpusim::rtx_a4000();
  const auto model = models::tiny();
  EXPECT_THROW(planner::plan_model(dev, model, DType::kF32, o), Error);

  // Score = analytical roofline seconds: a valid, non-trivial calibration.
  FeatureVector w{};
  w[kFAnalyticalSeconds] = 1.0;
  planner::set_calibrated_cost_model(make_calibrated_cost_model(w));
  EXPECT_NO_THROW(planner::plan_model(dev, model, DType::kF32, o));
  planner::set_calibrated_cost_model(nullptr);
}

TEST(PlannerSeam, BeamMatchesExhaustiveWithinOnePercentAtFiveXFewerEvals) {
  // The acceptance bar for the beam search: across the full zoo it must
  // exactly evaluate >= 5x fewer tile candidates than the exhaustive search
  // while the chosen plans' total GMA stays within 1%.
  const auto dev = gpusim::rtx_a4000();
  std::int64_t evals_exhaustive = 0, evals_beam = 0;
  double gma_exhaustive = 0.0, gma_beam = 0.0;
  for (const char* name :
       {"Mob_v1", "Mob_v2", "XCe", "Prox", "CeiT", "CMT", "EffNet_B0"}) {
    const ModelGraph model = models::model_by_name(name);

    planner::reset_candidates_evaluated();
    const planner::Plan exhaustive =
        planner::plan_model(dev, model, DType::kF32);
    evals_exhaustive += planner::candidates_evaluated();
    gma_exhaustive += static_cast<double>(exhaustive.total_gma_bytes());

    planner::PlanOptions bopt;
    bopt.beam_width = 8;
    planner::reset_candidates_evaluated();
    const planner::Plan beamed =
        planner::plan_model(dev, model, DType::kF32, bopt);
    evals_beam += planner::candidates_evaluated();
    gma_beam += static_cast<double>(beamed.total_gma_bytes());
  }
  ASSERT_GT(evals_beam, 0);
  EXPECT_GE(evals_exhaustive, 5 * evals_beam)
      << "exhaustive " << evals_exhaustive << " vs beam " << evals_beam;
  EXPECT_LE(gma_beam, 1.01 * gma_exhaustive)
      << "beam GMA " << gma_beam << " vs exhaustive " << gma_exhaustive;
}

TEST(Features, PlanFeaturesAreFiniteAndAdditive) {
  const auto dev = gpusim::rtx_a4000();
  const ModelGraph model = models::model_by_name("Mob_v2");
  const planner::Plan plan = planner::plan_model(dev, model, DType::kF32);
  const FeatureVector f = featurize_plan(dev, model, plan);

  for (std::size_t j = 0; j < kNumFeatures; ++j) {
    EXPECT_TRUE(std::isfinite(f[j])) << feature_name(j);
    EXPECT_GE(f[j], 0.0) << feature_name(j);
  }
  // One launch per step at minimum, and the roofline features add up from
  // step-level featurize calls.
  EXPECT_GE(f[kFLaunches], static_cast<double>(plan.steps.size()));
  EXPECT_GT(f[kFAnalyticalSeconds], 0.0);
  EXPECT_GT(f[kFLoadGB], 0.0);
  EXPECT_LE(f[kFOccupancy], static_cast<double>(plan.steps.size()));
}

// --- plan-cache keys --------------------------------------------------------

TEST(PlanCacheKeys, CostModelAndBeamGetDistinctSlugsAndEntries) {
  planner::PlanOptions plain;
  planner::PlanOptions cal;
  cal.cost_model = planner::CostModelKind::kCalibrated;
  planner::PlanOptions beam;
  beam.beam_width = 8;

  const serving::PlanKey k_plain{"A", "GTX-1660", DType::kF32, plain};
  const serving::PlanKey k_cal{"A", "GTX-1660", DType::kF32, cal};
  const serving::PlanKey k_beam{"A", "GTX-1660", DType::kF32, beam};

  // Default options keep the historical slug (existing plan files on disk
  // stay valid); non-default options suffix it.
  EXPECT_EQ(k_plain.slug().find("__cal"), std::string::npos);
  EXPECT_EQ(k_plain.slug().find("__beam"), std::string::npos);
  EXPECT_NE(k_cal.slug().find("__cal"), std::string::npos);
  EXPECT_NE(k_beam.slug().find("__beam8"), std::string::npos);
  EXPECT_NE(k_plain.slug(), k_cal.slug());
  EXPECT_NE(k_plain.slug(), k_beam.slug());
  EXPECT_NE(k_cal.slug(), k_beam.slug());

  // And the cache itself plans once per option set, not once per model.
  std::atomic<int> calls{0};
  serving::PlanCache cache(8);
  cache.set_plan_fn([&calls](const gpusim::DeviceSpec& dev,
                             const ModelGraph& model, DType dt,
                             const planner::PlanOptions&) {
    ++calls;
    planner::Plan p;
    p.model_name = model.name;
    p.device_name = dev.name;
    p.dtype = dt;
    return p;
  });
  const auto dev = gpusim::gtx1660();
  ModelGraph g;
  g.name = "A";
  cache.get_or_plan(dev, g, DType::kF32, plain);
  cache.get_or_plan(dev, g, DType::kF32, cal);
  cache.get_or_plan(dev, g, DType::kF32, beam);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(cache.size(), 3u);
  cache.get_or_plan(dev, g, DType::kF32, cal);  // warm — no replan
  EXPECT_EQ(calls.load(), 3);
}

}  // namespace
}  // namespace fcm::autotune
