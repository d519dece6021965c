#include "autotune/feature_log.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/jsonl.hpp"

namespace fcm::autotune {

namespace {

using jsonl::fmt_double_rt;
using jsonl::json_string;

std::string feature_key(std::size_t i) { return "f" + std::to_string(i); }

}  // namespace

std::string serialize_feature_log(const FeatureLog& log) {
  std::ostringstream os;
  os << "{\"fcm_features\": " << kFeatureLogVersion
     << ", \"width\": " << kNumFeatures
     << ", \"records\": " << log.records.size() << "}\n";
  for (const FeatureRecord& r : log.records) {
    FCM_CHECK(r.source == "plan" || r.source == "execute",
              "feature log: source must be \"plan\" or \"execute\", got \"" +
                  r.source + "\"");
    os << "{\"source\": " << json_string(r.source)
       << ", \"model\": " << json_string(r.model)
       << ", \"device\": " << json_string(r.device) << ", \"dtype\": \""
       << dtype_name(r.dtype) << "\", \"batch\": " << r.batch
       << ", \"predicted\": " << fmt_double_rt(r.predicted_s)
       << ", \"executed\": " << fmt_double_rt(r.executed_s);
    for (std::size_t i = 0; i < kNumFeatures; ++i) {
      os << ", \"" << feature_key(i)
         << "\": " << fmt_double_rt(r.features[i]);
    }
    os << "}\n";
  }
  return os.str();
}

FeatureLog parse_feature_log(const std::string& text) {
  FeatureLog log;
  bool have_header = false;
  std::uint64_t declared = 0;
  jsonl::for_each_object(text, "feature log", [&](jsonl::FieldReader& fields) {
    if (!have_header) {
      fields.require_version("fcm_features", kFeatureLogVersion,
                             "feature-log");
      const std::uint64_t width = fields.u64("width");
      if (width != static_cast<std::uint64_t>(kNumFeatures)) {
        fields.fail("feature width " + std::to_string(width) +
                    " does not match this build's schema (" +
                    std::to_string(kNumFeatures) + ")");
      }
      declared = fields.u64("records");
      fields.check_no_unknown();
      have_header = true;
      return;
    }
    FeatureRecord r;
    r.source = fields.string("source");
    if (r.source != "plan" && r.source != "execute") {
      fields.fail("source must be \"plan\" or \"execute\", got \"" +
                  r.source + "\"");
    }
    r.model = fields.string("model");
    r.device = fields.string("device");
    r.dtype = fields.dtype("dtype");
    r.batch = fields.integer("batch", 1);
    r.predicted_s = fields.number("predicted");
    if (r.predicted_s < 0.0) fields.fail("predicted must be >= 0");
    r.executed_s = fields.number("executed");
    if (r.executed_s < 0.0) fields.fail("executed must be >= 0");
    for (std::size_t i = 0; i < kNumFeatures; ++i) {
      r.features[i] = fields.number(feature_key(i).c_str());
    }
    fields.check_no_unknown();
    log.records.push_back(std::move(r));
  });
  if (!have_header) {
    throw Error(
        "feature log: missing header line ({\"fcm_features\": 1, \"width\": "
        "..., \"records\": ...})");
  }
  if (log.records.size() != declared) {
    throw Error("feature log: header declares " + std::to_string(declared) +
                " records but the file carries " +
                std::to_string(log.records.size()) +
                " — truncated or concatenated log");
  }
  return log;
}

FeatureLog load_feature_log_file(const std::string& path) {
  return jsonl::load_file(path, "feature log", parse_feature_log);
}

void save_feature_log_file(const FeatureLog& log, const std::string& path) {
  jsonl::save_file(path, serialize_feature_log(log), "feature log");
}

void FeatureCollector::record(FeatureRecord r) {
  MutexLock lk(mu_);
  records_.push_back(std::move(r));
}

FeatureLog FeatureCollector::snapshot() const {
  MutexLock lk(mu_);
  return FeatureLog{records_};
}

std::size_t FeatureCollector::size() const {
  MutexLock lk(mu_);
  return records_.size();
}

}  // namespace fcm::autotune
