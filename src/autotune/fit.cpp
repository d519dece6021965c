#include "autotune/fit.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/jsonl.hpp"

namespace fcm::autotune {

namespace {

constexpr std::size_t N = kNumFeatures;

/// Solve the N×N system A·w = b in place by Gaussian elimination with
/// partial pivoting. Serial and index-ordered, so identical inputs give
/// bit-identical solutions on every run.
FeatureVector solve(double a[N][N], double b[N]) {
  for (std::size_t col = 0; col < N; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < N; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < N; ++c) std::swap(a[col][c], a[pivot][c]);
      std::swap(b[col], b[pivot]);
    }
    FCM_CHECK(a[col][col] != 0.0,
              "fit: singular normal equations (feature " +
                  std::string(feature_name(col)) +
                  " — is the log degenerate?)");
    for (std::size_t r = col + 1; r < N; ++r) {
      const double m = a[r][col] / a[col][col];
      if (m == 0.0) continue;
      for (std::size_t c = col; c < N; ++c) a[r][c] -= m * a[col][c];
      b[r] -= m * b[col];
    }
  }
  FeatureVector w{};
  for (std::size_t ri = N; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < N; ++c) acc -= a[ri][c] * w[c];
    w[ri] = acc / a[ri][ri];
  }
  return w;
}

double dot(const FeatureVector& w, const FeatureVector& x) {
  double acc = 0.0;
  for (std::size_t i = 0; i < N; ++i) acc += w[i] * x[i];
  return acc;
}

/// The calibrated planner cost model: predicted seconds = w · features.
class CalibratedCostModel final : public planner::CostModel {
 public:
  explicit CalibratedCostModel(const FeatureVector& weights)
      : weights_(weights) {}

  const char* name() const override { return "calibrated"; }

  double score(const gpusim::DeviceSpec& dev,
               const gpusim::KernelStats& stats,
               const planner::CandidateContext& ctx) const override {
    return dot(weights_, featurize(dev, stats, ctx));
  }

 private:
  FeatureVector weights_;
};

}  // namespace

FitResult fit_cost_model(const FeatureLog& log, const FitOptions& opt) {
  FCM_CHECK(opt.lambda >= 0.0, "fit: lambda must be >= 0");
  // Normal equations accumulated in log order — deterministic for a given
  // log byte-for-byte.
  double xtx[N][N] = {};
  double xty[N] = {};
  FitResult res;
  for (const FeatureRecord& r : log.records) {
    if (r.source != "execute") continue;
    for (std::size_t i = 0; i < N; ++i) {
      for (std::size_t j = 0; j < N; ++j) {
        xtx[i][j] += r.features[i] * r.features[j];
      }
      xty[i] += r.features[i] * r.executed_s;
    }
    ++res.records_used;
  }
  FCM_CHECK(res.records_used > 0,
            "fit: the log carries no \"execute\" records to fit on");

  // Scale-aware ridge: λ·diag(XᵀX) shrinks every coefficient by the same
  // relative amount whatever the feature's unit; the tiny absolute floor
  // keeps all-zero features (e.g. int_ops on an fp32-only log) solvable.
  constexpr double kEps = 1e-12;
  for (std::size_t i = 0; i < N; ++i) {
    xtx[i][i] += opt.lambda * xtx[i][i] + kEps;
  }
  res.weights = solve(xtx, xty);
  res.mae_analytical = mean_abs_error_analytical(log);
  res.mae_calibrated = mean_abs_error(res.weights, log);
  return res;
}

double mean_abs_error(const FeatureVector& weights, const FeatureLog& log) {
  double acc = 0.0;
  std::size_t n = 0;
  for (const FeatureRecord& r : log.records) {
    if (r.source != "execute") continue;
    acc += std::fabs(dot(weights, r.features) - r.executed_s);
    ++n;
  }
  FCM_CHECK(n > 0, "mean_abs_error: no \"execute\" records");
  return acc / static_cast<double>(n);
}

double mean_abs_error_analytical(const FeatureLog& log) {
  double acc = 0.0;
  std::size_t n = 0;
  for (const FeatureRecord& r : log.records) {
    if (r.source != "execute") continue;
    acc += std::fabs(r.predicted_s - r.executed_s);
    ++n;
  }
  FCM_CHECK(n > 0, "mean_abs_error_analytical: no \"execute\" records");
  return acc / static_cast<double>(n);
}

std::string serialize_cost_model(const FeatureVector& weights) {
  std::ostringstream os;
  os << "{\"fcm_cost_model\": " << kCostModelVersion
     << ", \"width\": " << kNumFeatures;
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    os << ", \"" << feature_name(i)
       << "\": " << jsonl::fmt_double_rt(weights[i]);
  }
  os << "}\n";
  return os.str();
}

FeatureVector parse_cost_model(const std::string& text) {
  bool parsed = false;
  FeatureVector weights{};
  jsonl::for_each_object(text, "cost model", [&](jsonl::FieldReader& fields) {
    if (parsed) fields.fail("trailing content after the model object");
    fields.require_version("fcm_cost_model", kCostModelVersion, "cost-model");
    const std::uint64_t width = fields.u64("width");
    if (width != static_cast<std::uint64_t>(kNumFeatures)) {
      fields.fail("feature width " + std::to_string(width) +
                  " does not match this build's schema (" +
                  std::to_string(kNumFeatures) + ")");
    }
    for (std::size_t i = 0; i < kNumFeatures; ++i) {
      weights[i] = fields.number(feature_name(i));
    }
    fields.check_no_unknown();
    parsed = true;
  });
  if (!parsed) {
    throw Error("cost model: missing model line ({\"fcm_cost_model\": 1, ...})");
  }
  return weights;
}

FeatureVector load_cost_model_file(const std::string& path) {
  return jsonl::load_file(path, "cost model", parse_cost_model);
}

void save_cost_model_file(const FeatureVector& weights,
                          const std::string& path) {
  jsonl::save_file(path, serialize_cost_model(weights), "cost model");
}

std::shared_ptr<const planner::CostModel> make_calibrated_cost_model(
    const FeatureVector& weights) {
  return std::make_shared<const CalibratedCostModel>(weights);
}

}  // namespace fcm::autotune
