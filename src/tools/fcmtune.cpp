// fcmtune — fit a calibrated planner cost model from a feature log.
//
// Closes the autotuning loop: fcmserve/fcmsim write a JSONL feature log
// (--feature-log), `fcmtune fit` solves a deterministic ridge regression over
// its executed records, and the resulting weights file plugs back into the
// planner via --cost-model-file on fcmplan/fcmserve. The fit is closed-form
// and serial, so the same log always yields a byte-identical model file.
//
//   fcmtune fit --log features.jsonl --out model.json
//   fcmtune fit --log features.jsonl --out model.json --lambda 0.01
#include <cstdlib>
#include <iostream>
#include <string>

#include "autotune/fit.hpp"
#include "common/error.hpp"
#include "common/jsonl.hpp"
#include "tools/cli_util.hpp"

using namespace fcm;

namespace {

void usage() {
  std::cout <<
      "fcmtune — fit a calibrated planner cost model from a feature log\n"
      "\n"
      "fcmtune fit --log <file> --out <file> [options]\n"
      "  --log <file>     feature-log JSONL written by fcmserve/fcmsim\n"
      "                   --feature-log (fits on its \"execute\" records)\n"
      "  --out <file>     where to write the fitted cost-model JSON\n"
      "  --lambda <x>     scale-aware ridge strength, default 0.001\n"
      "\n"
      "prints a one-object JSON fit summary on stdout; the model file loads\n"
      "back via fcmplan/fcmserve --cost-model-file\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") {
    usage();
    return 0;
  }
  if (cmd != "fit") {
    std::cerr << "error: unknown command '" << cmd << "' (expected fit)\n";
    usage();
    return 2;
  }

  std::string log_path, out_path;
  autotune::FitOptions fopt;
  cli::Args args{argc, argv, 2, usage};
  for (; args.i < argc; ++args.i) {
    const std::string arg = argv[args.i];
    if (arg == "--log") log_path = args.next(arg);
    else if (arg == "--out") out_path = args.next(arg);
    else if (arg == "--lambda") {
      const std::string v = args.next(arg);
      char* end = nullptr;
      const double x = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(x >= 0.0) || x > 1e9) {
        args.fail("bad numeric value '" + v +
                  "' for --lambda (expected 0..1e9)");
      }
      fopt.lambda = x;
    }
    else args.unknown();
  }
  if (log_path.empty() || out_path.empty()) {
    args.fail("fit needs --log <file> and --out <file>");
  }

  try {
    const autotune::FeatureLog log = autotune::load_feature_log_file(log_path);
    const autotune::FitResult res = autotune::fit_cost_model(log, fopt);
    autotune::save_cost_model_file(res.weights, out_path);
    // One strict-JSON object so `python3 -m json.tool` validates the summary
    // the same way it validates the model file.
    std::cout << "{\"records_total\": " << log.records.size()
              << ", \"records_used\": " << res.records_used
              << ", \"lambda\": " << jsonl::fmt_double_rt(fopt.lambda)
              << ", \"mae_analytical_s\": "
              << jsonl::fmt_double_rt(res.mae_analytical)
              << ", \"mae_calibrated_s\": "
              << jsonl::fmt_double_rt(res.mae_calibrated)
              << ", \"out\": " << jsonl::json_string(out_path)
              << "}\n";
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
