// functional-mix: a closed loop of real (functional) inference requests.
//
// One benchmark thread keeps kInFlight requests in flight against one
// RTX-A4000 InferenceEngine (2 queue workers, FIFO, no coalescing). The
// request order is a seeded shuffle of fixed blocks, so every run sees the
// same proportions of each request type. The host work is almost all in the
// kernels (block-parallel for batch-1 requests, item-parallel for the INT8
// batch-8 ones) and the runtime executor; the planner and plan cache run only
// during set-up.
#include <cstring>
#include <future>
#include <iostream>
#include <random>

#include "bench.hpp"
#include "common/random.hpp"
#include "gpusim/device_spec.hpp"
#include "kernels/fcm_pwdwpw.hpp"
#include "kernels/kernel_registry.hpp"
#include "models/model_zoo.hpp"
#include "obs/trace.hpp"
#include "planner/tile_search.hpp"
#include "serving/inference_engine.hpp"

namespace perfbench {
namespace {

using fcm::DType;
using fcm::serving::InferenceEngine;
using fcm::serving::ServeRequest;
using fcm::serving::ServeResponse;

struct ReqType {
  const char* model;
  DType dtype;
  int batch;
  /// Occurrences in every shuffled block of the request order.
  int per_block;
};

// The mix. Per block of 29 requests: 1 Mob_v2 and 2 CeiT single images
// (over half the host time), 6 Tiny INT8 batch-8 requests (the item-parallel
// path) and 20 Tiny FP32 single images. The proportions put the median well
// inside the Tiny FP32 latencies and the p95 inside the CeiT ones, away from
// the gaps between latency modes, and let a 20 s run complete > 200 requests.
constexpr ReqType kTypes[] = {
    {"Mob_v2", DType::kF32, 1, 1},
    {"CeiT", DType::kF32, 1, 2},
    {"Tiny", DType::kI8, 8, 6},
    {"Tiny", DType::kF32, 1, 20},
};
constexpr int kNumTypes = 4;
constexpr int kPoolPerType = 4;
constexpr int kInFlight = 2;
constexpr int kSetupReps = 3;
constexpr int kWarmupRequests = 8;
constexpr std::size_t kTracerCapacity = 1u << 17;

std::string type_label(const ReqType& t) {
  return std::string(t.model) + "/" + fcm::dtype_name(t.dtype) + "/b" +
         std::to_string(t.batch);
}

/// The seeded request order: blocks holding type t kTypes[t].per_block
/// times, each block Fisher-Yates shuffled, each request drawing one of the
/// type's pooled inputs.
class MixSequence {
 public:
  explicit MixSequence(std::uint64_t seed) : rng_(seed) {}

  /// True between blocks: a timed phase ends only here, so every run
  /// completes whole blocks and sees the mix in its exact proportions.
  bool at_block_boundary() const { return pos_ == block_.size(); }

  std::pair<int, int> next() {
    if (pos_ == block_.size()) refill();
    const int type = block_[pos_++];
    return {type, static_cast<int>(rng_() % kPoolPerType)};
  }

 private:
  void refill() {
    block_.clear();
    for (int t = 0; t < kNumTypes; ++t) {
      for (int k = 0; k < kTypes[t].per_block; ++k) block_.push_back(t);
    }
    for (std::size_t i = block_.size() - 1; i > 0; --i) {
      std::swap(block_[i], block_[rng_() % (i + 1)]);
    }
    pos_ = 0;
  }

  std::mt19937_64 rng_;
  std::vector<int> block_;
  std::size_t pos_ = 0;
};

using Pool = std::vector<std::vector<ServeRequest>>;

ServeRequest make_request(const ReqType& t, std::uint64_t seed) {
  const fcm::FmShape shape =
      fcm::models::model_by_name(t.model).layers.front().ifm_shape();
  if (t.dtype == DType::kF32) {
    std::vector<fcm::TensorF> batch;
    for (int j = 0; j < t.batch; ++j) {
      fcm::TensorF x(shape);
      fcm::fill_uniform(x, mix_seed(seed, static_cast<std::uint64_t>(j)));
      batch.push_back(std::move(x));
    }
    return ServeRequest::f32(t.model, std::move(batch));
  }
  std::vector<fcm::TensorI8> batch;
  for (int j = 0; j < t.batch; ++j) {
    fcm::TensorI8 x(shape);
    fcm::fill_uniform_i8(x, mix_seed(seed, static_cast<std::uint64_t>(j)), -64,
                         63);
    batch.push_back(std::move(x));
  }
  return ServeRequest::i8(t.model, std::move(batch));
}

struct Setup {
  std::unique_ptr<InferenceEngine> engine;
  Pool pool;
};

/// Engine construction, warm plans (through the plan cache), runner weights,
/// admission-price memos and the seeded input pool.
Setup set_up(const Options& opt, std::shared_ptr<fcm::obs::Tracer> tracer,
             SpanLog& spans) {
  fcm::serving::EngineOptions eo;
  eo.seed = mix_seed(opt.seed, 1);
  eo.queue_workers = 2;
  eo.scheduler.queue_depth = 8;
  eo.scheduler.policy = fcm::serving::AdmissionPolicy::kBlock;
  eo.scheduler.discipline = fcm::serving::QueueDiscipline::kFifo;
  eo.scheduler.max_coalesce_batch = 1;
  eo.tracer = std::move(tracer);
  Setup s;
  s.engine = std::make_unique<InferenceEngine>(fcm::gpusim::rtx_a4000(), eo);
  s.engine->plan_cache().set_plan_fn(spanned_plan_fn(spans));
  for (const ReqType& t : kTypes) {
    ScopedSpan span(spans, "plan_cache.get_or_plan");
    s.engine->plan_for(t.model, t.dtype);
  }
  for (const ReqType& t : kTypes) {
    ScopedSpan span(spans, "runtime.load_weights");
    s.engine->runner(t.model);
  }
  for (const ReqType& t : kTypes) {
    s.engine->predict_cost_s(t.model, t.dtype, t.batch);
  }
  s.pool.resize(kNumTypes);
  for (int t = 0; t < kNumTypes; ++t) {
    for (int k = 0; k < kPoolPerType; ++k) {
      s.pool[static_cast<std::size_t>(t)].push_back(make_request(
          kTypes[t], mix_seed(opt.seed, 100 + static_cast<std::uint64_t>(
                                                  t * kPoolPerType + k))));
    }
  }
  return s;
}

struct Sample {
  int type = 0;
  bool ok = false;
  double latency_s = 0.0;
  double queue_wait_s = 0.0;
  double sim_s = 0.0;
  std::int64_t gma = 0;
  int items = 0;
};

struct LoopStats {
  std::vector<Sample> samples;
  std::vector<double> submit_us;
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  double wall_s = 0.0;

  std::int64_t items() const {
    std::int64_t n = 0;
    for (const Sample& s : samples) n += s.ok ? s.items : 0;
    return n;
  }
  double items_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(items()) / wall_s : 0.0;
  }
};

/// Keep kInFlight requests in flight from this thread: whenever one
/// completes, submit the next, until `max_requests` were sent or
/// `duration_s` has passed and the current block is complete; then drain.
/// Outputs are discarded.
LoopStats closed_loop(InferenceEngine& engine, MixSequence& seq,
                      const Pool& pool, double duration_s,
                      std::int64_t max_requests, SpanLog& spans) {
  struct Slot {
    std::future<ServeResponse> f;
    int type = -1;  ///< -1: idle
    std::int64_t order = 0;
  };
  LoopStats st;
  Slot slots[kInFlight];
  const double t0 = now_s();
  auto more = [&] {
    return st.sent < max_requests &&
           (now_s() - t0 < duration_s || !seq.at_block_boundary());
  };
  auto submit = [&](Slot& slot) {
    const auto [type, k] = seq.next();
    ServeRequest req =
        pool[static_cast<std::size_t>(type)][static_cast<std::size_t>(k)];
    req.discard_outputs = true;
    const double a = now_s();
    {
      ScopedSpan span(spans, "engine.submit_async");
      slot.f = engine.submit_async(std::move(req));
    }
    st.submit_us.push_back((now_s() - a) * 1e6);
    slot.type = type;
    slot.order = st.sent++;
  };
  auto harvest = [&](Slot& slot) {
    Sample smp;
    smp.type = slot.type;
    try {
      const ServeResponse r = slot.f.get();
      smp.ok = r.ok();
      smp.latency_s = r.latency_s;
      smp.queue_wait_s = r.queue_wait_s;
      smp.sim_s = r.sim_time_s;
      smp.gma = r.gma_bytes;
      smp.items = r.batch;
    } catch (const std::exception& e) {
      std::cout << "request failed: " << e.what() << "\n";
    }
    (smp.ok ? st.ok : st.failed) += 1;
    st.samples.push_back(smp);
  };

  for (Slot& slot : slots) {
    if (more()) submit(slot);
  }
  for (;;) {
    bool any = false, progressed = false;
    Slot* oldest = nullptr;
    for (Slot& slot : slots) {
      if (slot.type < 0) continue;
      any = true;
      if (slot.f.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        if (oldest == nullptr || slot.order < oldest->order) oldest = &slot;
        continue;
      }
      harvest(slot);
      progressed = true;
      if (more()) {
        submit(slot);
      } else {
        slot.type = -1;
      }
    }
    if (!any) break;
    if (!progressed && oldest != nullptr) {
      oldest->f.wait_for(std::chrono::microseconds(100));
    }
  }
  st.wall_s = now_s() - t0;
  return st;
}

bool same_bits(const fcm::TensorF& a, const fcm::TensorF& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}
bool same_bits(const fcm::TensorI8& a, const fcm::TensorI8& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size())) ==
             0;
}

/// Outside the timed phase: one seeded pooled request per type, outputs
/// kept, compared bit for bit with the runner's naive reference.
void check_outputs(InferenceEngine& engine, const Pool& pool,
                   std::uint64_t seed, Result& res) {
  std::mt19937_64 rng(mix_seed(seed, 7));
  std::int64_t sent = 0, ok = 0, items = 0;
  for (int t = 0; t < kNumTypes; ++t) {
    const ReqType& type = kTypes[t];
    const ServeRequest& req = pool[static_cast<std::size_t>(t)]
                                  [static_cast<std::size_t>(rng() % kPoolPerType)];
    ++sent;
    ServeResponse r = engine.submit_async(req).get();
    if (!r.ok()) {
      res.fail("check request " + type_label(type) + " did not complete");
      continue;
    }
    const auto runner = engine.runner(type.model);
    bool match = true;
    for (int j = 0; j < type.batch; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (type.dtype == DType::kF32) {
        match &= ju < r.outputs_f32.size() &&
                 same_bits(r.outputs_f32[ju],
                           runner->run_reference_f32(req.batch_f32[ju]));
      } else {
        match &= ju < r.outputs_i8.size() &&
                 same_bits(r.outputs_i8[ju],
                           runner->run_reference_i8(req.batch_i8[ju]));
      }
      ++items;
    }
    if (match) {
      ++ok;
    } else {
      res.fail("output of " + type_label(type) +
               " differs from run_reference");
    }
  }
  print_phase("check", sent, ok, sent - ok);
  std::cout << "output check: " << items
            << " images compared bit for bit with run_reference: "
            << (ok == sent ? "ok" : "MISMATCH") << "\n";
}

// ------------------------------------------------------- profile phase ---

/// The benchmark's own weights, norms and quant params for one model.
struct OwnWeights {
  std::vector<fcm::WeightsF> wf;
  std::vector<fcm::WeightsI8> wq;
  std::vector<fcm::BatchNorm> bn;
  std::vector<fcm::QuantParams> q;

  OwnWeights(const fcm::ModelGraph& g, std::uint64_t seed) {
    for (int i = 0; i < g.num_layers(); ++i) {
      const fcm::LayerSpec& spec = g.layers[static_cast<std::size_t>(i)];
      const auto s = mix_seed(seed, static_cast<std::uint64_t>(i));
      fcm::WeightsF f(spec.filter_shape());
      fcm::fill_uniform(f, s, -0.5f, 0.5f);
      wf.push_back(std::move(f));
      fcm::WeightsI8 w8(spec.filter_shape());
      fcm::fill_uniform_i8(w8, s + 1, -8, 8);
      wq.push_back(std::move(w8));
      bn.push_back(spec.has_bn ? fcm::BatchNorm::random(spec.out_c, s + 2)
                               : fcm::BatchNorm::identity(spec.out_c));
      q.push_back(fcm::QuantParams{0.1f, 0.02f, 0.1f});
    }
  }
};

struct KindTotals {
  std::int64_t calls = 0;
  double host_s = 0.0;
  std::int64_t ops = 0;
  std::int64_t gma = 0;
};

std::string step_kind(const fcm::ModelGraph& g, const fcm::planner::PlanStep& s) {
  if (s.fused) {
    if (s.layer3 >= 0) return "pwdwpw";
    switch (s.fcm_kind) {
      case fcm::FcmKind::kDwPw: return "dwpw";
      case fcm::FcmKind::kPwDw: return "pwdw";
      case fcm::FcmKind::kPwDwR: return "pwdw_r";
      case fcm::FcmKind::kPwPw: return "pwpw";
      case fcm::FcmKind::kPwDwPw: return "pwdwpw";
    }
  }
  switch (g.layers[static_cast<std::size_t>(s.layer)].kind) {
    case fcm::ConvKind::kDepthwise: return "dw";
    case fcm::ConvKind::kPointwise: return "pw";
    case fcm::ConvKind::kStandard: return "std";
  }
  return "?";
}

/// Replay `plan` step by step through the kernel_registry entry points on
/// one input, timing each kernel call. Residual adds (executor glue) are
/// left out; they change values, never the kernels' work or traffic. Checks
/// that each call's GMA equals the plan step's predicted GMA (the kernel
/// conservation check). Returns the summed kernel host seconds.
template <typename T>
double replay_kernels(const fcm::gpusim::DeviceSpec& dev,
                      const fcm::ModelGraph& g,
                      const fcm::planner::Plan& plan, const OwnWeights& w,
                      const fcm::Tensor<T>& input,
                      std::map<std::string, KindTotals>& kinds,
                      SpanLog& spans, Result& res) {
  constexpr bool kF32 = std::is_same_v<T, float>;
  const std::string dt = kF32 ? "fp32" : "int8";
  const auto& weights = [&]() -> const auto& {
    if constexpr (kF32) {
      return w.wf;
    } else {
      return w.wq;
    }
  }();
  auto ep = [&](int layer) {
    const auto l = static_cast<std::size_t>(layer);
    if constexpr (kF32) {
      return fcm::EpilogueF32(w.bn[l], g.layers[l].act);
    } else {
      return fcm::EpilogueI8(w.bn[l], g.layers[l].act, w.q[l]);
    }
  };
  auto layer = [&](int i) -> const fcm::LayerSpec& {
    return g.layers[static_cast<std::size_t>(i)];
  };
  auto wt = [&](int i) -> const auto& {
    return weights[static_cast<std::size_t>(i)];
  };

  double total = 0.0;
  fcm::Tensor<T> cur = input;
  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const fcm::planner::PlanStep& s = plan.steps[si];
    const std::string kind = step_kind(g, s);
    const std::string span_name = "kernels." + kind;
    const int last = s.layer3 >= 0 ? s.layer3 : s.layer2 >= 0 ? s.layer2
                                                              : s.layer;
    fcm::Tensor<T> ofm(layer(last).ofm_shape());
    fcm::gpusim::KernelStats st;
    const double t0 = now_s();
    {
      ScopedSpan span(spans, span_name.c_str());
      if (s.fused && s.layer3 >= 0) {
        if constexpr (kF32) {
          st = fcm::run_pwdwpw_f32(dev, layer(s.layer), layer(s.layer2),
                                   layer(s.layer3), cur, wt(s.layer),
                                   wt(s.layer2), wt(s.layer3), ep(s.layer),
                                   ep(s.layer2), ep(s.layer3), ofm,
                                   s.fcm_tiling);
        } else {
          st = fcm::run_pwdwpw_i8(dev, layer(s.layer), layer(s.layer2),
                                  layer(s.layer3), cur, wt(s.layer),
                                  wt(s.layer2), wt(s.layer3), ep(s.layer),
                                  ep(s.layer2), ep(s.layer3), ofm,
                                  s.fcm_tiling);
        }
      } else if (s.fused) {
        if constexpr (kF32) {
          st = fcm::run_fcm_f32(dev, s.fcm_kind, layer(s.layer),
                                layer(s.layer2), cur, wt(s.layer),
                                wt(s.layer2), ep(s.layer), ep(s.layer2), ofm,
                                s.fcm_tiling);
        } else {
          st = fcm::run_fcm_i8(dev, s.fcm_kind, layer(s.layer),
                               layer(s.layer2), cur, wt(s.layer),
                               wt(s.layer2), ep(s.layer), ep(s.layer2), ofm,
                               s.fcm_tiling);
        }
      } else {
        if constexpr (kF32) {
          st = fcm::run_lbl_f32(dev, layer(s.layer), cur, wt(s.layer),
                                ep(s.layer), ofm, s.lbl_tiling);
        } else {
          st = fcm::run_lbl_i8(dev, layer(s.layer), cur, wt(s.layer),
                               ep(s.layer), ofm, s.lbl_tiling);
        }
      }
    }
    const double dt_s = now_s() - t0;
    total += dt_s;
    KindTotals& k = kinds[kind + "." + dt];
    k.calls += 1;
    k.host_s += dt_s;
    k.ops += st.total_ops();
    k.gma += st.gma_bytes();
    if (st.gma_bytes() != s.stats.gma_bytes()) {
      res.fail("kernel conservation: " + plan.model_name + " step " +
               std::to_string(si) + " (" + kind + "." + dt + ") moved " +
               std::to_string(st.gma_bytes()) + " B, plan predicts " +
               std::to_string(s.stats.gma_bytes()) + " B");
    }
    cur = std::move(ofm);
  }
  return total;
}

/// Time one run_*_batch call on the engine's runner and plan.
double time_run_batch(InferenceEngine& engine, const ReqType& t,
                      const ServeRequest& req, int batch, SpanLog& spans) {
  const auto runner = engine.runner(t.model);
  const auto plan = engine.plan_for(t.model, t.dtype);
  const auto n = static_cast<std::size_t>(batch);
  ScopedSpan span(spans, "runtime.run_batch");
  const double t0 = now_s();
  if (t.dtype == DType::kF32) {
    runner->run_f32_batch(*plan, fcm::BatchViewF(req.batch_f32.data(), n));
  } else {
    runner->run_i8_batch(*plan, fcm::BatchViewI8(req.batch_i8.data(), n));
  }
  return now_s() - t0;
}

/// The traced run's profile phase: each mix plan replayed kernel by kernel
/// and run whole through the runner, interleaved, `reps` times.
void profile(InferenceEngine& engine, const Pool& pool, const Options& opt,
             SpanLog& spans, Result& res) {
  const int reps = opt.small ? 1 : 3;
  const auto dev = engine.device();
  std::map<std::string, KindTotals> kinds;
  std::map<std::string, std::unique_ptr<OwnWeights>> own;
  for (const ReqType& t : kTypes) {
    if (own.count(t.model) == 0) {
      own[t.model] = std::make_unique<OwnWeights>(
          fcm::models::model_by_name(t.model), mix_seed(opt.seed, 9));
    }
  }
  double kernel_s = 0.0, run_b1_s = 0.0, tiny_b1_s = 0.0, tiny_b8_s = 0.0;
  std::int64_t run_calls = 0;
  for (int r = 0; r < reps; ++r) {
    for (int ti = 0; ti < kNumTypes; ++ti) {
      const ReqType& t = kTypes[ti];
      const ServeRequest& req = pool[static_cast<std::size_t>(ti)][0];
      const fcm::ModelGraph g = fcm::models::model_by_name(t.model);
      const auto plan = engine.plan_for(t.model, t.dtype);
      if (t.dtype == DType::kF32) {
        kernel_s += replay_kernels(dev, g, *plan, *own[t.model],
                                   req.batch_f32.front(), kinds, spans, res);
      } else {
        kernel_s += replay_kernels(dev, g, *plan, *own[t.model],
                                   req.batch_i8.front(), kinds, spans, res);
      }
      const double b1 = time_run_batch(engine, t, req, 1, spans);
      run_b1_s += b1;
      ++run_calls;
      if (t.dtype == DType::kI8) {
        tiny_b1_s += b1;
        tiny_b8_s += time_run_batch(engine, t, req, t.batch, spans);
        ++run_calls;
      }
    }
  }
  std::cout << "profile phase: " << reps
            << " passes of kernel-by-kernel replay vs run_batch per mix plan\n";
  for (const auto& [name, k] : kinds) {
    bool reported = false;
    for (const std::string& r : reported_kernel_kinds()) reported |= r == name;
    std::cout << "  kernel " << name << ": " << k.calls << " calls, "
              << k.host_s << " s, " << k.gma / 1e6 << " MB"
              << (reported ? "" : "  (kind not in the reported metric list)")
              << "\n";
    if (!reported) continue;
    const std::string p = "kernels." + name + ".";
    res.layer[p + "calls"] = static_cast<double>(k.calls);
    res.layer[p + "host_s"] = k.host_s;
    res.layer[p + "gmacs_per_s"] =
        k.host_s > 0.0 ? static_cast<double>(k.ops) / 2.0 / k.host_s / 1e9
                       : 0.0;
    res.layer[p + "gma_mb"] = static_cast<double>(k.gma) / 1e6;
  }
  const double self_frac = run_b1_s > 0.0 ? 1.0 - kernel_s / run_b1_s : 0.0;
  res.layer["runtime.run_batch.calls"] = static_cast<double>(run_calls);
  res.layer["runtime.run_batch.host_s"] = run_b1_s + tiny_b8_s;
  res.layer["runtime.self_frac"] = self_frac;
  res.layer["runtime.b1_item_ms"] = tiny_b1_s / reps * 1e3;
  res.layer["runtime.b8_item_ms"] =
      tiny_b8_s / reps / kTypes[2].batch * 1e3;
  std::cout << "kernel conservation: per-step replay GMA "
            << (res.correct ? "equals" : "DIFFERS FROM")
            << " the plans' predicted GMA\n"
            << "runtime self time: " << self_frac * 100.0
            << "% of batch-1 run_batch host time (kernels " << kernel_s
            << " s of " << run_b1_s << " s)\n";
  if (self_frac < 0.0) {
    std::cout << "note: negative runtime self time means the replay's kernel "
                 "calls ran slower than the runner's (host timing noise)\n";
  }
}

struct MixMetrics {
  double items_per_s = 0.0, p50_ms = 0.0, p95_ms = 0.0;
  double gma_mb_per_item = 0.0, sim_us_per_item = 0.0, ok_frac = 0.0;
  std::size_t samples = 0;
};

MixMetrics summarise(const LoopStats& st) {
  MixMetrics m;
  std::vector<double> lat;
  double sim = 0.0, gma = 0.0;
  for (const Sample& s : st.samples) {
    if (!s.ok) continue;
    lat.push_back(s.latency_s * 1e3);
    sim += s.sim_s;
    gma += static_cast<double>(s.gma);
  }
  const auto items = static_cast<double>(st.items());
  m.items_per_s = st.items_per_s();
  m.p50_ms = percentile(lat, 0.50);
  m.p95_ms = percentile(lat, 0.95);
  m.samples = lat.size();
  m.gma_mb_per_item = items > 0 ? gma / items / 1e6 : 0.0;
  m.sim_us_per_item = items > 0 ? sim / items * 1e6 : 0.0;
  m.ok_frac = st.sent > 0 ? static_cast<double>(st.ok) /
                                static_cast<double>(st.sent)
                          : 0.0;
  return m;
}

void print_types(const LoopStats& st) {
  for (int t = 0; t < kNumTypes; ++t) {
    std::vector<double> lat;
    for (const Sample& s : st.samples) {
      if (s.ok && s.type == t) lat.push_back(s.latency_s * 1e3);
    }
    std::cout << "  " << type_label(kTypes[t]) << ": " << lat.size()
              << " requests, p50 " << percentile(lat, 0.5) << " ms\n";
  }
}

}  // namespace

Result run_functional_mix(const Options& opt) {
  Result res;
  SpanLog spans;

  std::vector<double> setup_s;
  Setup s;
  for (int r = 0; r < kSetupReps; ++r) {
    s.engine.reset();
    const double t0 = now_s();
    s = set_up(opt, nullptr, spans);
    setup_s.push_back(now_s() - t0);
  }

  MixSequence warm_seq(mix_seed(opt.seed, 3));
  const LoopStats warm = closed_loop(*s.engine, warm_seq, s.pool, 1e9,
                                     kWarmupRequests, spans);
  print_phase("warm-up", warm.sent, warm.ok, warm.failed);

  MixSequence seq(mix_seed(opt.seed, 2));
  if (!opt.trace) {
    const LoopStats st =
        closed_loop(*s.engine, seq, s.pool, opt.seconds, INT64_MAX, spans);
    print_phase("timed", st.sent, st.ok, st.failed);
    res.attempted = st.sent;
    res.failed = st.failed;
    const MixMetrics m = summarise(st);
    print_types(st);
    const std::size_t beyond =
        m.samples - static_cast<std::size_t>(std::ceil(0.95 * m.samples));
    std::cout << "closed loop: 1 load thread, " << kInFlight
              << " requests in flight, " << st.wall_s << " s timed\n";
    print_metric("setup_s", percentile(setup_s, 0.5), "s",
                 "median of " + std::to_string(kSetupReps) + " set-ups");
    print_metric("items_per_s", m.items_per_s, "images/s",
                 "json host_ops_per_s");
    print_metric("lat_p50_ms", m.p50_ms, "ms",
                 std::to_string(m.samples) + " samples");
    print_metric("lat_p95_ms", m.p95_ms, "ms",
                 "json lat_tail_ms; " + std::to_string(m.samples) +
                     " samples, " + std::to_string(beyond) + " beyond");
    print_metric("gma_mb_per_item", m.gma_mb_per_item, "MB/image");
    print_metric("sim_us_per_item", m.sim_us_per_item, "us/image");
    print_metric("failed_frac", 1.0 - m.ok_frac, "fraction",
                 "json slo_attain = 1 - failed_frac");
    if (!opt.small && (m.samples < 200 || beyond < 10)) {
      std::cout << "warning: fewer than 200 timed requests; p95 has fewer "
                   "than 10 samples beyond it\n";
    }
    res.e2e["setup_s"] = percentile(setup_s, 0.5);
    res.e2e["host_ops_per_s"] = m.items_per_s;
    res.e2e["lat_p50_ms"] = m.p50_ms;
    res.e2e["lat_tail_ms"] = m.p95_ms;
    res.e2e["gma_mb_per_item"] = m.gma_mb_per_item;
    res.e2e["sim_us_per_item"] = m.sim_us_per_item;
    res.e2e["slo_attain"] = m.ok_frac;
    check_outputs(*s.engine, s.pool, opt.seed, res);
    return res;
  }

  // Traced run: the untraced phase A on the set-up engine, then a second
  // engine built with spans on and the Tracer attached for phase B, each
  // half the run; then the profile phase on the traced engine.
  const LoopStats a =
      closed_loop(*s.engine, seq, s.pool, opt.seconds / 2, INT64_MAX, spans);
  print_phase("timed A (untraced)", a.sent, a.ok, a.failed);
  s.engine.reset();

  auto tracer = std::make_shared<fcm::obs::Tracer>(kTracerCapacity);
  spans.set_enabled(true);
  fcm::planner::reset_candidates_evaluated();
  Setup tr = set_up(opt, tracer, spans);
  MixSequence warm_seq_b(mix_seed(opt.seed, 4));
  closed_loop(*tr.engine, warm_seq_b, tr.pool, 1e9, kWarmupRequests, spans);
  const fcm::serving::QueueStats q0 = tr.engine->queue_stats();
  tr.engine->reset_depth_watermark();
  const double b_t0 = now_s();
  const LoopStats b =
      closed_loop(*tr.engine, seq, tr.pool, opt.seconds / 2, INT64_MAX, spans);
  const double b_t1 = now_s();
  print_phase("timed B (traced)", b.sent, b.ok, b.failed);
  res.attempted = a.sent + b.sent;
  res.failed = a.failed + b.failed;
  const auto q = fcm::serving::queue_delta(tr.engine->queue_stats(), q0);
  const auto depth = static_cast<double>(tr.engine->depth_watermark());
  const std::int64_t candidates = fcm::planner::candidates_evaluated();

  std::vector<double> wait_ms, exec_ms;
  for (const Sample& smp : b.samples) {
    if (!smp.ok) continue;
    wait_ms.push_back(smp.queue_wait_s * 1e3);
    exec_ms.push_back((smp.latency_s - smp.queue_wait_s) * 1e3);
  }
  res.layer["engine.submit_async.host_us"] = percentile(b.submit_us, 0.5);
  res.layer["engine.exec_ms.p50"] = percentile(exec_ms, 0.5);
  res.layer["scheduler.queue_wait_ms.p50"] = percentile(wait_ms, 0.5);
  res.layer["scheduler.queue_wait_ms.p95"] = percentile(wait_ms, 0.95);
  for (const std::string p : {"scheduler.", "scheduler.shard0."}) {
    res.layer[p + "accepted"] = static_cast<double>(q.accepted);
    res.layer[p + "rejected"] = static_cast<double>(q.rejected);
    res.layer[p + "expired"] = static_cast<double>(q.expired);
    res.layer[p + "max_depth"] = depth;
  }
  res.layer["scheduler.coalesced_batches"] =
      static_cast<double>(q.coalesced_batches);
  res.layer["scheduler.coalesced_items"] =
      static_cast<double>(q.coalesced_items);

  const auto totals = spans.totals();
  const auto in_b = spans.totals(b_t0, b_t1);
  int fused = 0, layers = 0;
  for (const ReqType& t : kTypes) {
    const auto plan = tr.engine->plan_for(t.model, t.dtype);
    fused += plan->fused_layer_count();
    layers += plan->total_layer_count();
  }
  const auto cache = tr.engine->plan_cache().stats();
  auto total_of = [](const std::map<std::string, SpanLog::Totals>& m,
                     const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? SpanLog::Totals{} : it->second;
  };
  res.layer["planner.plan_model.calls"] =
      static_cast<double>(total_of(totals, "planner.plan_model").calls);
  res.layer["planner.plan_model.host_s"] =
      total_of(totals, "planner.plan_model").total_s;
  res.layer["planner.candidates_evaluated"] = static_cast<double>(candidates);
  res.layer["planner.fused_layer_frac"] =
      layers > 0 ? static_cast<double>(fused) / layers : 0.0;
  res.layer["planner.timed_frac"] =
      total_of(in_b, "planner.plan_model").total_s / (b_t1 - b_t0);
  res.layer["plan_cache.hits"] = static_cast<double>(cache.hits);
  res.layer["plan_cache.misses"] = static_cast<double>(cache.misses);
  res.layer["plan_cache.hit_ratio"] =
      cache.hits + cache.misses > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses)
          : 0.0;
  res.layer["plan_cache.get_or_plan.host_s"] =
      total_of(totals, "plan_cache.get_or_plan").self_s;
  res.layer["obs.spans_recorded"] = static_cast<double>(tracer->size());
  res.layer["obs.spans_dropped"] = static_cast<double>(tracer->dropped());
  const double overhead =
      a.items_per_s() > 0.0 ? 1.0 - b.items_per_s() / a.items_per_s() : 0.0;
  res.layer["obs.trace_overhead_frac"] = overhead;
  std::cout << "trace overhead: items_per_s untraced " << a.items_per_s()
            << ", traced " << b.items_per_s() << " (" << overhead * 100.0
            << "%)\n"
            << "tracer: " << tracer->size() << " spans recorded, "
            << tracer->dropped() << " dropped\n";

  profile(*tr.engine, tr.pool, opt, spans, res);
  check_outputs(*tr.engine, tr.pool, opt.seed, res);

  const std::string stem = "functional-mix-seed" + std::to_string(opt.seed);
  res.traces_written.push_back(
      write_output(opt.out_dir, stem + ".spans.json", spans.chrome_trace_json()));
  res.traces_written.push_back(write_output(
      opt.out_dir, stem + ".tracer.json", tracer->chrome_trace_json()));
  return res;
}

}  // namespace perfbench
