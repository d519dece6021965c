// Versioned on-disk dataset for the autotuning loop.
//
// One JSONL file: a header line declaring the schema version, feature width
// and record count, then one flat JSON object per record carrying the plan's
// feature vector plus the predicted and executed sim seconds. Parsed by the
// same strict scanner as src/workload/trace (common/jsonl.hpp): unknown
// keys, duplicate keys, out-of-range numbers, version/width mismatches and
// count mismatches are hard parse errors — a silently reinterpreted
// training set is worse than a rejected one.
//
// Records come from two seams:
//   * "plan"    — a cold plan-cache miss that ran the planner (executed = 0;
//                 plan_seconds is not a feature target, the record exists so
//                 datasets capture what the planner chose and predicted).
//   * "execute" — a request that actually ran; `executed` is the simulated
//                 seconds the batch took, the fitter's training target.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "autotune/features.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace fcm::autotune {

/// Bump on any change to the line format or the feature schema
/// (features.hpp); readers reject other versions.
inline constexpr int kFeatureLogVersion = 1;

/// One logged (features, predicted, executed) observation.
struct FeatureRecord {
  /// "plan" or "execute" (see file comment).
  std::string source;
  std::string model;
  std::string device;
  DType dtype = DType::kF32;
  int batch = 1;
  /// Model-predicted simulated seconds for the whole request (per-item
  /// roofline total × batch at execute time; the plan's roofline total for
  /// source == "plan").
  double predicted_s = 0.0;
  /// Simulated seconds the request actually took; 0 for source == "plan".
  double executed_s = 0.0;
  /// Whole-plan feature vector (featurize_plan), scaled by batch for
  /// executed requests so features stay additive in work.
  FeatureVector features{};
};

struct FeatureLog {
  std::vector<FeatureRecord> records;
};

std::string serialize_feature_log(const FeatureLog& log);
/// Strict parse; throws fcm::Error("feature log line N: ...") on any
/// deviation from the schema.
FeatureLog parse_feature_log(const std::string& text);

FeatureLog load_feature_log_file(const std::string& path);
void save_feature_log_file(const FeatureLog& log, const std::string& path);

/// Thread-safe in-process accumulator the serving seams append to; flushed
/// to disk once at tool exit (the log is an offline dataset, not a live
/// stream).
class FeatureCollector {
 public:
  void record(FeatureRecord r) EXCLUDES(mu_);
  FeatureLog snapshot() const EXCLUDES(mu_);
  std::size_t size() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<FeatureRecord> records_ GUARDED_BY(mu_);
};

}  // namespace fcm::autotune
