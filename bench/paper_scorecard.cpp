// Paper scorecard: the paper's evaluation (Fig. 1, Figs. 6-11, Tables II and
// III) reproduced on the three simulated GPUs, next to a claim record for
// every number the paper states.
//
//   bench_paper_scorecard <out.json>
//
// Each (fusion case, device, dtype) cell is planned once, and each (CNN,
// device, dtype) cell is planned and TVM-compiled once. Every cell and every
// claim is one flat record, rendered twice: as the paper's tables plus a
// paper-versus-reproduced claims table on stdout, and as one JSON object per
// line of <out.json>. The simulator is analytical and every aggregate sums
// in a fixed order, so the file depends on neither host speed nor worker
// count: the committed BENCH_paper.json is a byte-exact golden.
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "baselines/cudnn_like.hpp"
#include "baselines/tvm_like.hpp"
#include "bench_util.hpp"
#include "common/jsonl.hpp"
#include "models/model_zoo.hpp"
#include "planner/tile_search.hpp"
#include "runtime/executor.hpp"

using namespace fcm;

namespace {

using baselines::CudnnAlgo;
using gpusim::DeviceSpec;
using gpusim::KernelStats;

/// Fig. 8 and Table III report the two discrete GPUs, the first two of
/// gpusim::paper_devices() {GTX, RTX, Orin}.
constexpr std::size_t kDiscreteGpus = 2;

/// One cell or claim: flat string and number fields in insertion order,
/// read back by the tables and written as one JSON object.
class Record {
 public:
  explicit Record(const std::string& kind) { str("record", kind); }
  Record& str(const std::string& key, const std::string& v) {
    fields_.push_back({key, v, 0.0, true});
    return *this;
  }
  Record& num(const std::string& key, double v) {
    fields_.push_back({key, "", v, false});
    return *this;
  }
  double operator[](const std::string& key) const { return find(key).num; }
  const std::string& text(const std::string& key) const {
    return find(key).text;
  }
  std::string json() const {
    std::string out;
    for (const auto& f : fields_) {
      out += (out.empty() ? "{" : ", ") + jsonl::json_string(f.key) + ": " +
             (f.is_text ? jsonl::json_string(f.text)
                        : jsonl::fmt_double_rt(f.num));
    }
    return out + "}";
  }

 private:
  struct Field {
    std::string key, text;
    double num;
    bool is_text;
  };
  const Field& find(const std::string& key) const {
    for (const auto& f : fields_) {
      if (f.key == key) return f;
    }
    throw Error("paper scorecard: no field '" + key + "'");
  }
  std::vector<Field> fields_;
};

/// Running mean, min and max, fed in a fixed order.
struct Agg {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  int n = 0;
  void add(double v) {
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    ++n;
  }
  double avg() const { return sum / n; }
};

double dbl(std::int64_t v) { return static_cast<double>(v); }

std::vector<std::string> with_devices(std::vector<std::string> head,
                                      const std::vector<DeviceSpec>& devs) {
  for (const auto& d : devs) head.push_back(d.name);
  return head;
}

// ----------------------------------------------------------------- Fig. 1 ---

/// One MobileNet layer (64ch 56x56 -> 128ch, 3x3, FP32, RTX) as a standard
/// conv, split into DW+PW, and fused, in absolute counts.
std::vector<Record> eval_fig1() {
  const auto conv = LayerSpec::standard("std", 64, 56, 56, 128, 3, 1);
  const auto dw = LayerSpec::depthwise("dw", 64, 56, 56, 3, 1);
  const auto pw = LayerSpec::pointwise("pw", 64, 56, 56, 128);
  const auto dev = gpusim::rtx_a4000();
  const auto std_lbl = planner::best_lbl_tiling(dev, conv, DType::kF32);
  const auto dw_lbl = planner::best_lbl_tiling(dev, dw, DType::kF32);
  const auto pw_lbl = planner::best_lbl_tiling(dev, pw, DType::kF32);
  const auto fcm =
      planner::best_fcm_tiling(dev, FcmKind::kDwPw, dw, pw, DType::kF32);
  FCM_CHECK(std_lbl && dw_lbl && pw_lbl && fcm,
            "Fig. 1: infeasible configuration");
  auto row = [](const std::string& variant, std::int64_t macs,
                std::int64_t weights, std::int64_t fm, std::int64_t gma) {
    return Record("fig1")
        .str("variant", variant)
        .num("ops", 2.0 * dbl(macs))
        .num("weights", dbl(weights))
        .num("fm_accesses", dbl(fm))  // IFM + OFM of each executed kernel
        .num("gma_B", dbl(gma));
  };
  const std::int64_t dsc_macs = dw.macs() + pw.macs();
  const std::int64_t dsc_w = dw.weights_count() + pw.weights_count();
  return {row("Standard", conv.macs(), conv.weights_count(),
              conv.ifm_count() + conv.ofm_count(), std_lbl->stats.gma_bytes()),
          row("DSC (DW+PW)", dsc_macs, dsc_w,
              dw.ifm_count() + dw.ofm_count() + pw.ifm_count() + pw.ofm_count(),
              dw_lbl->stats.gma_bytes() + pw_lbl->stats.gma_bytes()),
          row("Fused (DWPW)", dsc_macs, dsc_w, dw.ifm_count() + pw.ofm_count(),
              fcm->stats.gma_bytes())};
}

void print_fig1(const std::vector<Record>& rows) {
  bench::print_header(
      "Fig. 1: standard vs DSC (DW+PW) vs fused — MobileNet layer, "
      "64ch 56x56 -> 128ch, 3x3, RTX-A4000 (normalised to standard)");
  Table t({"variant", "operations", "weights", "FM accesses",
           "GMA (measured)"});
  for (const Record& r : rows) {
    auto share = [&](const char* key) {
      return fmt_pct(r[key] / rows.front()[key]);
    };
    t.add_row({r.text("variant"), share("ops"), share("weights"),
               share("fm_accesses"), share("gma_B")});
  }
  std::cout << t.str();
}

// ----------------------------------------------------------- fusion cases ---

bool fused(const Record& x) { return x.text("choice") != "LBL"; }
double lbl_gma(const Record& x) { return x["lbl_load_B"] + x["lbl_store_B"]; }
double impl_gma(const Record& x) {
  return x["impl_load_B"] + x["impl_store_B"];
}
/// Fig. 9: speedup of the time under `key` over IMPLICIT_PRECOMP_GEMM, and
/// the share of its GMA that `gma` saves.
double over_precomp(const Record& x, const char* key) {
  return x["cudnn_precomp_s"] / x[key];
}
double saving(const Record& x, double gma) {
  return 1.0 - gma / x["cudnn_precomp_B"];
}

std::string bound_of(const DeviceSpec& dev, const KernelStats& st) {
  return gpusim::bound_name(gpusim::estimate_time(dev, st).bound);
}

/// One (fusion case, device, dtype) cell: the planner's pair decision (its
/// implementation is the FCM, or LBL when it declines to fuse) and the three
/// cuDNN-like algorithms over the same two layers.
Record case_record(const models::FusionCase& c, const DeviceSpec& dev,
                   DType dt, const bench::CaseResult& r) {
  const auto& d = r.decision;
  const KernelStats lbl = d.lbl_first.stats + d.lbl_second.stats;
  const KernelStats& impl = r.fused ? d.fcm->stats : lbl;
  auto cudnn = [&](CudnnAlgo a) {
    return baselines::cudnn_stats(dev, a, c.first, dt) +
           baselines::cudnn_stats(dev, a, c.second, dt);
  };
  const KernelStats precomp = cudnn(CudnnAlgo::kImplicitPrecompGemm);
  return Record("case")
      .str("case", c.id)
      .str("dnn", c.dnn)
      .str("dtype", dtype_name(dt))
      .str("device", dev.name)
      .str("choice", r.fused ? fcm_kind_name(d.fcm->kind) : "LBL")
      .num("lbl_s", r.lbl_time)
      .num("impl_s", r.impl_time)
      .num("speedup", r.speedup())
      .num("redundancy", dbl(impl.redundant_flops) / dbl(impl.total_ops()))
      .num("lbl_load_B", dbl(lbl.global_load_bytes))
      .num("lbl_store_B", dbl(lbl.global_store_bytes))
      .num("impl_load_B", dbl(impl.global_load_bytes))
      .num("impl_store_B", dbl(impl.global_store_bytes))
      .num("cudnn_gemm_s", bench::time_of(dev, cudnn(CudnnAlgo::kGemm)))
      .num("cudnn_implicit_s",
           bench::time_of(dev, cudnn(CudnnAlgo::kImplicitGemm)))
      .num("cudnn_precomp_s", bench::time_of(dev, precomp))
      .num("cudnn_precomp_B", dbl(precomp.gma_bytes()))
      .str("lbl_bound", bound_of(dev, d.lbl_first.stats) + ", " +
                            bound_of(dev, d.lbl_second.stats))
      .str("fcm_bound", r.fused ? bound_of(dev, d.fcm->stats) : "-");
}

/// Every case of one dtype on every device, case-major, with what the paper
/// quotes about them.
struct CaseGrid {
  DType dt = DType::kF32;
  std::vector<models::FusionCase> cases;
  std::vector<DeviceSpec> devs;
  std::vector<Record> cells;
  Agg speedup;      ///< Figs. 6-7; a declined fusion counts 1.00x
  Agg fcm_cudnn;    ///< Fig. 9: planned implementation over IMPL_PRECOMP
  Agg lbl_cudnn;    ///< Fig. 9: LBL over IMPL_PRECOMP
  Agg other_cudnn;  ///< Fig. 9: GEMM and IMPL_GEMM over IMPL_PRECOMP
  Agg save_lbl, save_fcm;  ///< Fig. 9: GMA saved against IMPL_PRECOMP
  Agg fused_gma;    ///< Fig. 8: FCM over LBL GMA, fused discrete-GPU cells
  Agg redundancy;   ///< Table II: the nonzero redundancy column entries
  int wins = 0;     ///< cells whose planned FCM beats LBL

  const Record& at(std::size_t ci, std::size_t di) const {
    return cells[ci * devs.size() + di];
  }
  /// Table II's redundancy column: the largest over the devices.
  double case_redundancy(std::size_t ci) const {
    double red = 0.0;
    for (std::size_t di = 0; di < devs.size(); ++di) {
      red = std::max(red, at(ci, di)["redundancy"]);
    }
    return red;
  }
};

CaseGrid eval_cases(const std::vector<DeviceSpec>& devs, DType dt) {
  CaseGrid g;
  g.dt = dt;
  g.cases = models::cases_for(dt);
  g.devs = devs;
  const auto results = bench::eval_case_grid(devs, g.cases, dt);
  for (std::size_t ci = 0; ci < g.cases.size(); ++ci) {
    for (std::size_t di = 0; di < devs.size(); ++di) {
      const Record& x = g.cells.emplace_back(
          case_record(g.cases[ci], devs[di], dt, results[ci][di]));
      g.speedup.add(x["speedup"]);
      g.fcm_cudnn.add(over_precomp(x, "impl_s"));
      g.lbl_cudnn.add(over_precomp(x, "lbl_s"));
      g.other_cudnn.add(over_precomp(x, "cudnn_gemm_s"));
      g.other_cudnn.add(over_precomp(x, "cudnn_implicit_s"));
      g.save_lbl.add(saving(x, lbl_gma(x)));
      g.save_fcm.add(saving(x, impl_gma(x)));
      if (fused(x) && di < kDiscreteGpus) {
        g.fused_gma.add(impl_gma(x) / lbl_gma(x));
      }
      if (fused(x) && x["speedup"] > 1.0) ++g.wins;
    }
    if (g.case_redundancy(ci) > 0.0) g.redundancy.add(g.case_redundancy(ci));
  }
  return g;
}

/// Figs. 6-7: the planned implementation's speedup over LBL.
void print_speedups(const std::string& title, const CaseGrid& g) {
  bench::print_header(title);
  Table t(with_devices({"case"}, g.devs));
  for (std::size_t ci = 0; ci < g.cases.size(); ++ci) {
    std::vector<std::string> row{g.cases[ci].id};
    for (std::size_t di = 0; di < g.devs.size(); ++di) {
      const Record& x = g.at(ci, di);
      row.push_back(fmt_f(x["speedup"], 2) + (fused(x) ? "" : "*"));
    }
    t.add_row(row);
  }
  std::cout << t.str()
            << "(* planner declined to fuse: runs LBL, speedup 1.00)\n"
            << "average " << fmt_f(g.speedup.avg(), 2) << "x, max "
            << fmt_f(g.speedup.max, 2) << "x\n";
}

/// Table II: the planner's choice per device and the redundancy column.
void print_table2(const CaseGrid& g) {
  bench::print_header(std::string("Table II (") + dtype_name(g.dt) +
                      "): FusePlanner-selected FCM type and redundancy");
  auto head = with_devices({"case", "DNN", "pair"}, g.devs);
  head.push_back("redundancy");
  Table t(head);
  for (std::size_t ci = 0; ci < g.cases.size(); ++ci) {
    const auto& c = g.cases[ci];
    std::vector<std::string> row{c.id, c.dnn,
                                 std::string(conv_kind_name(c.first.kind)) +
                                     "->" + conv_kind_name(c.second.kind)};
    for (std::size_t di = 0; di < g.devs.size(); ++di) {
      row.push_back(g.at(ci, di).text("choice"));
    }
    row.push_back(fmt_pct(g.case_redundancy(ci)));
    t.add_row(row);
  }
  std::cout << t.str();
}

/// Fig. 8: LBL and planned-implementation loads and stores, normalised to
/// the LBL total.
void print_fig8(const CaseGrid& g) {
  bench::print_header(
      "Fig. 8: normalised GM access time, read/write breakdown (FP32)");
  for (std::size_t di = 0; di < kDiscreteGpus; ++di) {
    Table t({"case", "LBL read", "LBL write", "FCM read", "FCM write",
             "FCM total"});
    for (std::size_t ci = 0; ci < g.cases.size(); ++ci) {
      const Record& x = g.at(ci, di);
      const double lbl = lbl_gma(x);
      t.add_row({g.cases[ci].id, fmt_f(x["lbl_load_B"] / lbl, 2),
                 fmt_f(x["lbl_store_B"] / lbl, 2),
                 fmt_f(x["impl_load_B"] / lbl, 2),
                 fmt_f(x["impl_store_B"] / lbl, 2),
                 fmt_f(impl_gma(x) / lbl, 2)});
    }
    std::cout << "\n[" << g.devs[di].name << "]\n" << t.str();
  }
}

/// Fig. 9: the cuDNN-like algorithms, LBL and the planned implementation
/// over IMPLICIT_PRECOMP_GEMM, with the GMA each saves against it.
void print_fig9(const CaseGrid& g) {
  for (std::size_t di = 0; di < g.devs.size(); ++di) {
    Table t({"case", "GEMM", "IMPL_GEMM", "LBL", "FCM", "GMA save LBL",
             "GMA save FCM"});
    for (std::size_t ci = 0; ci < g.cases.size(); ++ci) {
      const Record& x = g.at(ci, di);
      t.add_row({g.cases[ci].id, fmt_f(over_precomp(x, "cudnn_gemm_s"), 2),
                 fmt_f(over_precomp(x, "cudnn_implicit_s"), 2),
                 fmt_f(over_precomp(x, "lbl_s"), 2),
                 fmt_f(over_precomp(x, "impl_s"), 2),
                 fmt_pct(saving(x, lbl_gma(x))),
                 fmt_pct(saving(x, impl_gma(x)))});
    }
    std::cout << "\n[" << g.devs[di].name << ", " << dtype_name(g.dt) << "]\n"
              << t.str();
  }
  std::cout << "\nFCM vs best cuDNN: max " << fmt_f(g.fcm_cudnn.max, 2)
            << "x, average " << fmt_f(g.fcm_cudnn.avg(), 2) << "x\n"
            << "LBL vs best cuDNN: max " << fmt_f(g.lbl_cudnn.max, 2)
            << "x, average " << fmt_f(g.lbl_cudnn.avg(), 2) << "x\n"
            << "max GMA savings: LBL " << fmt_pct(g.save_lbl.max) << ", FCM "
            << fmt_pct(g.save_fcm.max) << "\n";
}

/// Table III: roofline bound of the LBL kernels and of the FCM.
void print_table3(const CaseGrid& g) {
  for (std::size_t di = 0; di < kDiscreteGpus; ++di) {
    Table t({"case", "LBL", "FCM"});
    for (std::size_t ci = 0; ci < g.cases.size(); ++ci) {
      const Record& x = g.at(ci, di);
      t.add_row({g.cases[ci].id, x.text("lbl_bound"), x.text("fcm_bound")});
    }
    std::cout << "\n[" << g.devs[di].name << ", " << dtype_name(g.dt) << "]\n"
              << t.str();
  }
}

// ------------------------------------------------------------------- CNNs ---

/// Every e2e CNN of one dtype on every device, model-major: the FusePlanner
/// plan against the TVM-like compiler's.
struct CnnGrid {
  DType dt = DType::kF32;
  std::vector<DeviceSpec> devs;
  std::vector<Record> cells;
  Agg speedup, energy;
};

CnnGrid eval_cnns(const std::vector<DeviceSpec>& devs, DType dt) {
  CnnGrid g;
  g.dt = dt;
  g.devs = devs;
  for (const auto& model : models::e2e_cnns()) {
    for (const auto& dev : devs) {
      const auto plan = planner::plan_model(dev, model, dt);
      const auto ours = runtime::evaluate_plan(dev, model, plan);
      const auto tvm = runtime::evaluate_tvm(
          dev, model, baselines::tvm_compile(dev, model, dt));
      const Record& x = g.cells.emplace_back(
          Record("cnn")
              .str("model", model.name)
              .str("dtype", dtype_name(dt))
              .str("device", dev.name)
              .num("fused_layers", plan.fused_layer_count())
              .num("layers", plan.total_layer_count())
              .num("fcm_s", ours.total_time_s())
              .num("tvm_s", tvm.total_time_s())
              .num("speedup", tvm.total_time_s() / ours.total_time_s())
              .num("fcm_J", ours.total_energy_j())
              .num("tvm_J", tvm.total_energy_j())
              .num("energy_ratio",
                   ours.total_energy_j() / tvm.total_energy_j()));
      g.speedup.add(x["speedup"]);
      g.energy.add(x["energy_ratio"]);
    }
  }
  return g;
}

/// Fig. 10 (speedup and fused layers per device) or Fig. 11 (energy ratio).
void print_cnns(const std::string& title, const CnnGrid& g, bool energy) {
  bench::print_header(title + " (" + dtype_name(g.dt) + ")");
  auto head = with_devices({"model"}, g.devs);
  if (!energy) head.push_back("fused layers");
  Table t(head);
  for (std::size_t i = 0; i < g.cells.size(); i += g.devs.size()) {
    std::vector<std::string> row{g.cells[i].text("model")};
    std::string fused;  // per device, in column order
    for (std::size_t di = 0; di < g.devs.size(); ++di) {
      const Record& x = g.cells[i + di];
      row.push_back(fmt_f(x[energy ? "energy_ratio" : "speedup"], 2));
      fused += (di > 0 ? ", " : "") + fmt_f(x["fused_layers"], 0) + "/" +
               fmt_f(x["layers"], 0);
    }
    if (!energy) row.push_back(fused);
    t.add_row(row);
  }
  std::cout << t.str();
  if (energy) {
    std::cout << "average " << fmt_f(g.energy.avg(), 2) << ", minimum "
              << fmt_f(g.energy.min, 2) << "\n";
  } else {
    std::cout << "average " << fmt_f(g.speedup.avg(), 2) << "x, max "
              << fmt_f(g.speedup.max, 2) << "x\n";
  }
}

// ----------------------------------------------------------------- claims ---

/// A number the paper states, next to its reproduction. [lo, hi] holds the
/// values the paper's statement covers: a rounded figure covers half a unit
/// of its last digit either side ("1.3x" is 1.25-1.35) and a count is exact.
/// "INT8 higher" covers 0 to 0.2, the most the paper's 1.4x and 1.3x allow;
/// "IMPL_PRECOMP fastest" covers any other algorithm at 0 to 1x of it.
/// `unit` is "x", "ratio", "fraction" (printed as a percentage) or "count".
Record claim(const std::string& what, const std::string& paper, double lo,
             double hi, const std::string& unit, double reproduced) {
  return Record("claim")
      .str("claim", what)
      .str("paper", paper)
      .num("paper_lo", lo)
      .num("paper_hi", hi)
      .str("unit", unit)
      .num("reproduced", reproduced)
      .str("verdict", reproduced < lo   ? "below"
                      : reproduced > hi ? "above"
                                        : "within");
}

std::vector<Record> make_claims(const std::vector<Record>& fig1,
                                const CaseGrid& f32, const CaseGrid& i8,
                                const CnnGrid& e32, const CnnGrid& e8) {
  const Record& std_conv = fig1[0];
  const Record& dsc = fig1[1];
  const Record& fused_dsc = fig1[2];
  return {
      claim("Fig. 1: DW+PW operations / standard", "~12%", 0.115, 0.125,
            "fraction", dsc["ops"] / std_conv["ops"]),
      claim("Fig. 1: DW+PW weights / standard", "~11%", 0.105, 0.115,
            "fraction", dsc["weights"] / std_conv["weights"]),
      claim("Fig. 1: DW+PW GMA that fusion removes", "roughly half", 0.45,
            0.55, "fraction", 1.0 - fused_dsc["gma_B"] / dsc["gma_B"]),
      claim("Fig. 6: FCM over LBL, FP32, average", "1.3x", 1.25, 1.35, "x",
            f32.speedup.avg()),
      claim("Fig. 6: FCM over LBL, FP32, max", "1.6x", 1.55, 1.65, "x",
            f32.speedup.max),
      claim("Fig. 7: FCM over LBL, INT8, average", "1.4x", 1.35, 1.45, "x",
            i8.speedup.avg()),
      claim("Fig. 7: FCM over LBL, INT8, max", "1.8x", 1.75, 1.85, "x",
            i8.speedup.max),
      claim("Figs. 6-7: INT8 average minus FP32 average", "INT8 higher", 0.0,
            0.2, "x", i8.speedup.avg() - f32.speedup.avg()),
      claim("Fig. 8: FCM / LBL GMA, FP32 GTX+RTX, min", "~0.3", 0.25, 0.35,
            "ratio", f32.fused_gma.min),
      claim("Fig. 8: FCM / LBL GMA, FP32 GTX+RTX, max", "~0.9", 0.85, 0.95,
            "ratio", f32.fused_gma.max),
      claim("Fig. 9: FCM over IMPL_PRECOMP_GEMM, FP32, max", "3.7x", 3.65,
            3.75, "x", f32.fcm_cudnn.max),
      claim("Fig. 9: FCM over IMPL_PRECOMP_GEMM, FP32, average", "2x", 1.5,
            2.5, "x", f32.fcm_cudnn.avg()),
      claim("Fig. 9: LBL over IMPL_PRECOMP_GEMM, FP32, max", "3x", 2.5, 3.5,
            "x", f32.lbl_cudnn.max),
      claim("Fig. 9: LBL over IMPL_PRECOMP_GEMM, FP32, average", "1.5x", 1.45,
            1.55, "x", f32.lbl_cudnn.avg()),
      claim("Fig. 9: LBL GMA saving vs IMPL_PRECOMP_GEMM, FP32, max", "63%",
            0.625, 0.635, "fraction", f32.save_lbl.max),
      claim("Fig. 9: FCM GMA saving vs IMPL_PRECOMP_GEMM, FP32, max", "83%",
            0.825, 0.835, "fraction", f32.save_fcm.max),
      claim("Fig. 9: GEMM/IMPL_GEMM over IMPL_PRECOMP_GEMM, FP32, max",
            "IMPL_PRECOMP fastest", 0.0, 1.0, "x", f32.other_cudnn.max),
      claim("Fig. 10: end to end over TVM, FP32, average", "1.4x", 1.35, 1.45,
            "x", e32.speedup.avg()),
      claim("Fig. 10: end to end over TVM, INT8, average", "1.5x", 1.45, 1.55,
            "x", e8.speedup.avg()),
      claim("Fig. 10: end to end over TVM, FP32, max", "1.6x", 1.55, 1.65,
            "x", e32.speedup.max),
      claim("Fig. 10: end to end over TVM, INT8, max", "1.8x", 1.75, 1.85,
            "x", e8.speedup.max),
      claim("Fig. 11: energy / TVM, FP32, average", "0.59", 0.585, 0.595,
            "ratio", e32.energy.avg()),
      claim("Fig. 11: energy / TVM, INT8, average", "0.54", 0.535, 0.545,
            "ratio", e8.energy.avg()),
      claim("Fig. 11: energy / TVM, FP32, min", "0.34", 0.335, 0.345, "ratio",
            e32.energy.min),
      claim("Fig. 11: energy / TVM, INT8, min", "0.35", 0.345, 0.355, "ratio",
            e8.energy.min),
      claim("Table II: cells whose planned FCM beats LBL, of 72", "67", 67.0,
            67.0, "count", f32.wins + i8.wins),
      claim("Table II: FP32 redundancy, min over cases", "4%", 0.035, 0.045,
            "fraction", f32.redundancy.min),
      claim("Table II: FP32 redundancy, max over cases", "18%", 0.175, 0.185,
            "fraction", f32.redundancy.max),
      claim("Table III: INT8 (dp4a) compute roof / FP32", "4x", 3.5, 4.5, "x",
            f32.devs[0].peak_int8_ops() / f32.devs[0].peak_fp32_flops()),
  };
}

void print_claims(const std::vector<Record>& claims) {
  bench::print_header("Claims: paper vs reproduced");
  Table t({"claim", "paper", "reproduced", "verdict"});
  for (const Record& c : claims) {
    const double v = c["reproduced"];
    const std::string& unit = c.text("unit");
    const std::string shown = unit == "fraction" ? fmt_pct(v)
                              : unit == "count"  ? fmt_f(v, 0)
                              : unit == "x"      ? fmt_f(v, 2) + "x"
                                                 : fmt_f(v, 2);
    t.add_row({c.text("claim"), c.text("paper"), shown, c.text("verdict")});
  }
  std::cout << t.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: " << argv[0] << " <out.json>\n";
    return 2;
  }
  const auto devs = gpusim::paper_devices();
  const auto fig1 = eval_fig1();
  const CaseGrid f32 = eval_cases(devs, DType::kF32);
  const CaseGrid i8 = eval_cases(devs, DType::kI8);
  const CnnGrid e32 = eval_cnns(devs, DType::kF32);
  const CnnGrid e8 = eval_cnns(devs, DType::kI8);
  const auto claims = make_claims(fig1, f32, i8, e32, e8);

  print_fig1(fig1);
  print_speedups("Fig. 6: FCM speedup over LBL (FP32)", f32);
  print_speedups("Fig. 7: FCM speedup over LBL (INT8)", i8);
  print_fig8(f32);
  bench::print_header(
      "Fig. 9: speedup over cuDNN IMPL_PRECOMP_GEMM, per case (fp32 + int8)");
  print_fig9(f32);
  print_fig9(i8);
  for (const CnnGrid* g : {&e32, &e8}) {
    print_cnns("Fig. 10: end-to-end speedup over TVM", *g, false);
  }
  for (const CnnGrid* g : {&e32, &e8}) {
    print_cnns("Fig. 11: energy per inference normalised to TVM", *g, true);
  }
  print_table2(f32);
  print_table2(i8);
  bench::print_header("Table III: roofline categorisation (fp32 + int8)");
  print_table3(f32);
  print_table3(i8);
  print_claims(claims);

  std::string json;
  for (const auto* records :
       {&fig1, &f32.cells, &i8.cells, &e32.cells, &e8.cells, &claims}) {
    for (const Record& r : *records) {
      json += (json.empty() ? "[\n" : ",\n") + r.json();
    }
  }
  jsonl::save_file(argv[1], json + "\n]\n", "paper scorecard");
  return 0;
}
