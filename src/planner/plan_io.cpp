#include "planner/plan_io.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "kernels/kernel_registry.hpp"
#include "planner/cost_model.hpp"
#include "planner/fuse_planner.hpp"

namespace fcm::planner {

namespace {

FcmKind kind_from_name(const std::string& name) {
  if (name == "DWPW") return FcmKind::kDwPw;
  if (name == "PWDW") return FcmKind::kPwDw;
  if (name == "PWDW_R") return FcmKind::kPwDwR;
  if (name == "PWPW") return FcmKind::kPwPw;
  if (name == "PWDWPW") return FcmKind::kPwDwPw;
  throw Error("plan_io: unknown FCM kind '" + name + "'");
}

/// Parse "key=value" tokens of one line into a map.
std::map<std::string, std::string> parse_fields(std::istringstream& line) {
  std::map<std::string, std::string> out;
  std::string tok;
  while (line >> tok) {
    const auto eq = tok.find('=');
    FCM_CHECK(eq != std::string::npos, "plan_io: malformed token '" + tok + "'");
    out[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return out;
}

/// stoi that reports malformed numerics as fcm::Error (std::stoi throws
/// std::invalid_argument/out_of_range, which would escape callers that only
/// handle library errors — e.g. a corrupt plan-cache file must be rejected,
/// not abort the process).
int parse_int(const std::string& s) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(s, &used);
    FCM_CHECK(used == s.size(), "plan_io: bad integer '" + s + "'");
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error("plan_io: bad integer '" + s + "'");
  }
}

int to_int(const std::map<std::string, std::string>& f, const std::string& k) {
  const auto it = f.find(k);
  FCM_CHECK(it != f.end(), "plan_io: missing field '" + k + "'");
  return parse_int(it->second);
}

std::string get(const std::map<std::string, std::string>& f,
                const std::string& k) {
  const auto it = f.find(k);
  FCM_CHECK(it != f.end(), "plan_io: missing field '" + k + "'");
  return it->second;
}

}  // namespace

std::string serialize(const Plan& plan) {
  std::ostringstream os;
  os << "fcmplan v1 model=" << plan.model_name
     << " device=" << plan.device_name << " dtype=" << dtype_name(plan.dtype)
     << "\n";
  for (const auto& s : plan.steps) {
    if (!s.fused) {
      os << "lbl layer=" << s.layer << " th=" << s.lbl_tiling.tile_h
         << " tw=" << s.lbl_tiling.tile_w << " tf=" << s.lbl_tiling.tile_f
         << "\n";
    } else {
      os << "fcm kind=" << fcm_kind_name(s.fcm_kind) << " layers=" << s.layer
         << "," << s.layer2;
      if (s.layer3 >= 0) os << "," << s.layer3;
      os << " th=" << s.fcm_tiling.tile_h << " tw=" << s.fcm_tiling.tile_w
         << " tc=" << s.fcm_tiling.tile_c << " cf=" << s.fcm_tiling.chunk_f
         << "\n";
    }
  }
  return os.str();
}

Plan deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  FCM_CHECK(std::getline(is, line), "plan_io: empty input");
  {
    std::istringstream header(line);
    std::string magic, version;
    header >> magic >> version;
    FCM_CHECK(magic == "fcmplan" && version == "v1",
              "plan_io: bad header '" + line + "'");
    const auto f = parse_fields(header);
    Plan plan;
    plan.model_name = get(f, "model");
    plan.device_name = get(f, "device");
    const std::string dtype = get(f, "dtype");
    FCM_CHECK(dtype == dtype_name(DType::kF32) ||
                  dtype == dtype_name(DType::kI8),
              "plan_io: unknown dtype '" + dtype + "'");
    plan.dtype = dtype == dtype_name(DType::kI8) ? DType::kI8 : DType::kF32;

    while (std::getline(is, line)) {
      if (line.empty()) continue;
      std::istringstream ls(line);
      std::string tag;
      ls >> tag;
      const auto fields = parse_fields(ls);
      PlanStep s;
      if (tag == "lbl") {
        s.fused = false;
        s.layer = to_int(fields, "layer");
        s.lbl_tiling = ConvTiling{to_int(fields, "th"), to_int(fields, "tw"),
                                  to_int(fields, "tf")};
      } else if (tag == "fcm") {
        s.fused = true;
        s.fcm_kind = kind_from_name(get(fields, "kind"));
        const std::string layers = get(fields, "layers");
        std::istringstream lls(layers);
        std::string part;
        std::vector<int> idx;
        while (std::getline(lls, part, ',')) idx.push_back(parse_int(part));
        FCM_CHECK(idx.size() == 2 || idx.size() == 3,
                  "plan_io: bad layers list '" + layers + "'");
        s.layer = idx[0];
        s.layer2 = idx[1];
        if (idx.size() == 3) s.layer3 = idx[2];
        s.fcm_tiling = FcmTiling{to_int(fields, "th"), to_int(fields, "tw"),
                                 to_int(fields, "tc"), to_int(fields, "cf")};
      } else {
        throw Error("plan_io: unknown step tag '" + tag + "'");
      }
      plan.steps.push_back(s);
    }
    return plan;
  }
}

namespace {

/// A tile size the step's kind uses must lie in 1..extent, the range the
/// planner enumerates it over; an unused one (extent 0) must be 0, as
/// serialize writes it.
void check_tile(const PlanStep& s, const char* field, int v, int extent) {
  const bool ok = extent == 0 ? v == 0 : v >= 1 && v <= extent;
  FCM_CHECK(ok, "reconcile: step at layer " + std::to_string(s.layer) + ": " +
                    field + "=" + std::to_string(v) +
                    (extent == 0 ? " must be 0"
                                 : " outside 1.." + std::to_string(extent)));
}

}  // namespace

void reconcile(const gpusim::DeviceSpec& dev, const ModelGraph& model,
               Plan& plan) {
  model.validate();
  const int n = model.num_layers();
  const auto layer = [&](int i) -> const LayerSpec& {
    return model.layers[static_cast<std::size_t>(i)];
  };

  // Each step starts at the first layer not yet covered and covers
  // consecutive layers, so steps run in layer order and cover each layer
  // exactly once.
  int next = 0;
  for (auto& s : plan.steps) {
    const int width = !s.fused ? 1 : s.layer3 >= 0 ? 3 : 2;
    FCM_CHECK(s.layer == next && next + width <= n,
              "reconcile: step at layer " + std::to_string(s.layer) +
                  " does not cover layers from " + std::to_string(next) +
                  " on");
    FCM_CHECK(width < 2 || (s.layer2 == s.layer + 1 &&
                            (width < 3 || s.layer3 == s.layer + 2)),
              "reconcile: fused layers from " + std::to_string(s.layer) +
                  " are not consecutive");
    next += width;

    const LayerSpec& a = layer(s.layer);
    if (!s.fused) {
      check_tile(s, "th", s.lbl_tiling.tile_h, a.out_h());
      check_tile(s, "tw", s.lbl_tiling.tile_w, a.out_w());
      check_tile(s, "tf", s.lbl_tiling.tile_f, a.out_c);
      const DType dt = a.kind == ConvKind::kStandard ? DType::kF32 : plan.dtype;
      s.stats = lbl_stats(a, s.lbl_tiling, dt);
      continue;
    }
    const LayerSpec& b = layer(s.layer2);
    const LayerSpec& last = layer(s.layer + width - 1);
    int c_extent = 0;  // tile_c's range
    int f_extent = 0;  // chunk_f's range
    if (width == 3) {
      FCM_CHECK(model_triple_fusable(model, s.layer),
                "reconcile: layers " + std::to_string(s.layer) + ".." +
                    std::to_string(s.layer3) + " are not a fusable triple");
      FCM_CHECK(s.fcm_kind == FcmKind::kPwDwPw,
                "reconcile: three layers require PWDWPW");
      f_extent = std::max(a.out_c, last.out_c);
    } else {
      FCM_CHECK(model_pair_fusable(model, s.layer),
                "reconcile: layers " + std::to_string(s.layer) + "," +
                    std::to_string(s.layer2) + " are not a fusable pair");
      FcmKind expected;
      fcm_kind_for(a, b, expected);
      const bool pwdw_family =
          (expected == FcmKind::kPwDw) &&
          (s.fcm_kind == FcmKind::kPwDw || s.fcm_kind == FcmKind::kPwDwR);
      FCM_CHECK(s.fcm_kind == expected || pwdw_family,
                "reconcile: FCM kind does not match layer kinds");
      if (pwdw_family) c_extent = a.out_c;
      if (expected == FcmKind::kDwPw) f_extent = b.out_c;
      if (expected == FcmKind::kPwPw) f_extent = std::max(a.out_c, b.out_c);
    }
    check_tile(s, "th", s.fcm_tiling.tile_h, last.out_h());
    check_tile(s, "tw", s.fcm_tiling.tile_w, last.out_w());
    check_tile(s, "tc", s.fcm_tiling.tile_c, c_extent);
    check_tile(s, "cf", s.fcm_tiling.chunk_f, f_extent);
    s.stats = width == 3
                  ? pwdwpw_stats(a, b, last, s.fcm_tiling, plan.dtype)
                  : fcm_stats(s.fcm_kind, a, b, s.fcm_tiling, plan.dtype);
  }
  FCM_CHECK(next == n,
            "reconcile: layer " + std::to_string(next) + " not covered");
  plan.device_name = dev.name;
}

}  // namespace fcm::planner
