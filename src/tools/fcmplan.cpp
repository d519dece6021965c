// fcmplan — command-line FusePlanner.
//
// Derives a complete execution plan for one of the bundled models on one of
// the paper's GPUs, prints it (or exports the serialised schedule), and
// optionally compares it against the LBL-only plan and the TVM-like
// compiler. --import closes the export round-trip: a previously exported
// schedule is parsed and reconciled (stats recomputed, soundness validated)
// for the chosen device instead of being replanned.
//
//   fcmplan --model Mob_v2 --device RTX --dtype int8 --triple
//   fcmplan --model XCe --device GTX --export plan.txt
//   fcmplan --import plan.txt --device GTX --compare
//   fcmplan --model Prox --device Orin --compare --threads 8
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "baselines/tvm_like.hpp"
#include "common/thread_pool.hpp"
#include "tools/cli_util.hpp"
#include "gpusim/device_spec.hpp"
#include "models/model_zoo.hpp"
#include "planner/plan_io.hpp"
#include "runtime/executor.hpp"

using namespace fcm;

namespace {

void usage() {
  std::cout <<
      "fcmplan — derive an FCM/LBL execution plan for a bundled model\n"
      "  --model  <Mob_v1|Mob_v2|XCe|Prox|CeiT|CMT|EffNet_B0>\n"
      "                                 (required unless --import)\n"
      "  --device <GTX|RTX|Orin>        default RTX\n"
      "  --dtype  <fp32|int8>           default fp32\n"
      "  --triple                       enable PWDWPW triple fusion\n"
      "  --threads <n>                  worker threads (default: hardware)\n"
      "  --import <file>                load + reconcile an exported schedule\n"
      "                                 instead of planning\n"
      "  --export <file>                write the serialised schedule\n"
      "  --compare                      compare vs LBL-only and TVM-like\n";
}

}  // namespace

int main(int argc, char** argv) {
  // dtype stays unset unless the user passes --dtype (unset == fp32), so the
  // import path can tell an explicit request apart from the default.
  std::string model_name, device = "RTX", export_path, import_path;
  std::optional<DType> dtype;
  unsigned threads = 0;
  bool triple = false, compare = false;
  cli::Args args{argc, argv, 1, usage};
  for (; args.i < argc; ++args.i) {
    const std::string arg = argv[args.i];
    if (arg == "--model") model_name = args.next(arg);
    else if (arg == "--device") device = args.next(arg);
    else if (arg == "--dtype") dtype = args.next_dtype(arg);
    else if (arg == "--export") export_path = args.next(arg);
    else if (arg == "--import") import_path = args.next(arg);
    else if (arg == "--threads") {
      threads = static_cast<unsigned>(args.next_u64(arg, 1024));
    } else if (arg == "--triple") triple = true;
    else if (arg == "--compare") compare = true;
    else args.unknown();
  }
  if (model_name.empty() && import_path.empty()) {
    args.fail("--model or --import is required");
  }

  try {
    // 0 keeps the default (hardware concurrency) pool.
    std::unique_ptr<ThreadPool> own_pool;
    std::unique_ptr<ScopedPoolOverride> pool_guard;
    if (threads > 0) {
      own_pool = std::make_unique<ThreadPool>(threads);
      pool_guard = std::make_unique<ScopedPoolOverride>(*own_pool);
    }

    const auto dev = gpusim::device_by_name(device);

    planner::Plan plan;
    DType dt = dtype.value_or(DType::kF32);
    ModelGraph model;
    if (!import_path.empty()) {
      std::ifstream in(import_path);
      FCM_CHECK(in.good(), "cannot open " + import_path);
      std::ostringstream text;
      text << in.rdbuf();
      plan = planner::deserialize(text.str());
      // The imported header names the model and dtype; --model may override
      // the model (reconcile rejects the schedule if it does not fit), but
      // the plan's dtype always wins and planning options don't apply.
      if (model_name.empty()) model_name = plan.model_name;
      if (dtype.has_value() && plan.dtype != dt) {
        std::cerr << "note: --dtype ignored, imported plan is "
                  << dtype_name(plan.dtype) << "\n";
      }
      if (triple) {
        std::cerr << "note: --triple ignored, the imported schedule already "
                     "fixes all fusions\n";
      }
      dt = plan.dtype;
      model = models::model_by_name(model_name);
      planner::reconcile(dev, model, plan);
      std::cout << "imported " << import_path << " (reconciled for "
                << dev.name << ")\n";
    } else {
      model = models::model_by_name(model_name);
      planner::PlanOptions opt;
      opt.enable_triple = triple;
      planner::reset_candidates_evaluated();
      plan = planner::plan_model(dev, model, dt, opt);
      std::cout << "tile candidates evaluated: "
                << planner::candidates_evaluated() << "\n";
    }

    std::cout << plan.describe();
    const auto rep = runtime::evaluate_plan(dev, model, plan);
    std::cout << "\nestimated: " << rep.total_time_s() * 1e3 << " ms, "
              << rep.total_energy_j() * 1e3 << " mJ, "
              << rep.total_gma_bytes() / 1e6 << " MB GMA\n";

    if (compare) {
      const auto lbl = runtime::evaluate_plan(
          dev, model, planner::plan_model_lbl(dev, model, dt));
      const auto tvm = runtime::evaluate_tvm(
          dev, model, baselines::tvm_compile(dev, model, dt));
      std::cout << "vs LBL-only: " << lbl.total_time_s() / rep.total_time_s()
                << "x speedup, vs TVM-like: "
                << tvm.total_time_s() / rep.total_time_s() << "x speedup, "
                << rep.total_energy_j() / tvm.total_energy_j()
                << " of TVM energy\n";
    }

    if (!export_path.empty()) {
      std::ofstream out(export_path);
      FCM_CHECK(out.good(), "cannot open " + export_path);
      out << planner::serialize(plan);
      std::cout << "schedule written to " << export_path << "\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
