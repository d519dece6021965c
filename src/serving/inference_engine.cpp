#include "serving/inference_engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <thread>
#include <utility>

#include "gpusim/roofline.hpp"
#include "models/model_zoo.hpp"

namespace fcm::serving {

namespace {

/// The scheduler inherits the engine's tracer and shard index unless its
/// options already carry their own.
SchedulerOptions wire_scheduler_options(const EngineOptions& opt) {
  SchedulerOptions s = opt.scheduler;
  if (!s.tracer) s.tracer = opt.tracer;
  s.shard = opt.shard;
  return s;
}

}  // namespace

InferenceEngine::InferenceEngine(gpusim::DeviceSpec dev, EngineOptions opt)
    : dev_(std::move(dev)),
      opt_(std::move(opt)),
      cache_(opt_.plan_cache_capacity, opt_.cache_dir),
      clock_(opt_.clock ? opt_.clock : std::make_shared<SteadyClock>()),
      scheduler_(wire_scheduler_options(opt_), clock_),
      holds_(clock_) {
  auto& reg = obs::MetricsRegistry::global();
  m_.latency = &reg.histogram_family(
      "fcm_request_latency_seconds",
      "End-to-end request latency (sync: plan lookup + execution; async: "
      "+ queue wait), seconds",
      {"model", "dtype", "batch"});
  m_.executed_sim_s = &reg.gauge_family(
      "fcm_executed_sim_seconds_total",
      "Simulated GPU seconds executed, summed over requests",
      {"model", "dtype"});
  m_.predicted_sim_s = &reg.gauge_family(
      "fcm_predicted_sim_seconds_total",
      "Planner-predicted simulated GPU seconds (roofline estimate over the "
      "executed plan's steps, times the batch), summed over requests — "
      "compare against fcm_executed_sim_seconds_total",
      {"model", "dtype"});
  m_.admission_cost_fallback = &reg.counter_family(
      "fcm_admission_cost_fallback_total",
      "submit_async admissions priced at cost_s = 0 because predict_cost_s "
      "threw (the request still executes and surfaces its error on get(); "
      "load_seconds under-counts it)").get();
}

InferenceEngine::~InferenceEngine() {
  // Wake blocked producers (they self-reject), reject the backlog, and make
  // every pop return false; then the workers drain out. In-flight dispatches
  // complete first — a worker mid-execution still resolves its futures.
  scheduler_.stop();
  holds_.stop();  // release virtually-held workers so they can drain out
  MutexLock lk(workers_mu_);  // workers never take workers_mu_: join-safe
  for (auto& w : workers_) w.join();
}

namespace {

/// Runner-pool key: the model name, plus a bit-exact rendering of the quant
/// override when present — requests differing in any scale bit must not
/// share a runner.
std::string runner_key(const std::string& model,
                       const std::optional<QuantParams>& quant) {
  if (!quant.has_value()) return model;
  auto bits = [](float f) {
    return std::to_string(std::bit_cast<std::uint32_t>(f));
  };
  return model + "|q:" + bits(quant->in_scale) + "," + bits(quant->w_scale) +
         "," + bits(quant->out_scale);
}

}  // namespace

std::shared_ptr<const runtime::ModelRunner> InferenceEngine::runner_keyed(
    const std::string& model_name, const std::optional<QuantParams>& quant) {
  const std::string key = runner_key(model_name, quant);
  MutexLock lk(mu_);
  for (;;) {
    auto it = runners_.find(key);
    if (it == runners_.end()) break;  // this thread becomes the builder
    if (it->second.ready) return it->second.runner;
    cv_.wait(lk);  // another thread is materialising the weights
  }
  runners_.emplace(key, RunnerSlot{});
  lk.unlock();

  std::shared_ptr<const runtime::ModelRunner> built;
  try {
    built = std::make_shared<const runtime::ModelRunner>(
        dev_, models::model_by_name(model_name), opt_.seed, quant);
  } catch (...) {
    // Unknown model or invalid graph: free the slot so a later (corrected)
    // request does not wait forever on a builder that gave up.
    lk.lock();
    runners_.erase(key);
    cv_.notify_all();
    throw;
  }

  lk.lock();
  RunnerSlot& slot = runners_[key];
  slot.runner = built;
  slot.ready = true;
  cv_.notify_all();
  return built;
}

std::shared_ptr<const runtime::ModelRunner> InferenceEngine::runner(
    const std::string& model_name) {
  return runner_keyed(model_name, std::nullopt);
}

std::shared_ptr<const planner::Plan> InferenceEngine::plan_for(
    const std::string& model_name, DType dtype) {
  // Plan against the bare graph — plan-only flows (fcmserve --plan-only,
  // cache warm-up) must not pay runner weight materialisation.
  return cache_.get_or_plan(dev_, models::model_by_name(model_name), dtype,
                            opt_.plan_options);
}

ServeResponse InferenceEngine::execute_request(const ServeRequest& req) {
  if (req.dry_run) return execute_dry(req);
  FCM_CHECK(req.batch() >= 1, "ServeRequest: empty batch");
  FCM_CHECK(req.dtype == DType::kF32 ? req.batch_i8.empty()
                                     : req.batch_f32.empty(),
            "ServeRequest: batch dtype does not match the dtype tag");
  const double t0 = clock_->now_s();
  const auto r = runner_keyed(req.model, req.dtype == DType::kI8
                                             ? req.quant
                                             : std::nullopt);
  const auto plan =
      cache_.get_or_plan(dev_, r->model(), req.dtype, opt_.plan_options);

  runtime::ModelReport report;
  ServeResponse resp = response_stub(req, ServeStatus::kOk);
  if (req.dtype == DType::kF32) {
    resp.outputs_f32 =
        r->run_f32_batch(*plan, BatchViewF(req.batch_f32), &report);
  } else {
    resp.outputs_i8 = r->run_i8_batch(*plan, BatchViewI8(req.batch_i8), &report);
  }
  resp.sim_time_s = report.total_time_s();
  resp.gma_bytes = report.total_gma_bytes();
  resp.latency_s = clock_->now_s() - t0;

  if (obs::enabled()) {
    // Predicted-vs-executed sim time: the planner's per-step roofline
    // estimate summed over the executed plan, once per batch item, against
    // what the batch run actually simulated (cross-item weight reuse in L2
    // makes the executed figure the smaller one).
    double predicted_item_s = 0.0;
    for (const planner::PlanStep& step : plan->steps) {
      predicted_item_s += gpusim::estimate_time(dev_, step.stats).total_s;
    }
    const std::string dtype = dtype_name(req.dtype);
    m_.predicted_sim_s->with({req.model, dtype})
        .add(predicted_item_s * req.batch());
    m_.executed_sim_s->with({req.model, dtype}).add(resp.sim_time_s);
  }
  return resp;
}

InferenceEngine::DryCost InferenceEngine::dry_cost_for(const std::string& model,
                                                       DType dtype) {
  const std::string key = model + '|' + dtype_name(dtype);
  {
    MutexLock lk(dry_mu_);
    auto it = dry_costs_.find(key);
    if (it != dry_costs_.end()) return it->second;
  }
  // Per-item roofline cost of the plan this engine would execute the model
  // with (through the plan cache, so dry replays still exercise and count
  // cache traffic). Racing builders compute identical values.
  DryCost cost;
  const auto plan = plan_for(model, dtype);
  for (const planner::PlanStep& step : plan->steps) {
    cost.per_item_s += gpusim::estimate_time(dev_, step.stats).total_s;
    cost.per_item_bytes += step.stats.gma_bytes();
  }
  MutexLock lk(dry_mu_);
  dry_costs_.emplace(key, cost);
  return cost;
}

double InferenceEngine::predict_cost_s(const std::string& model, DType dtype,
                                       int batch) {
  return dry_cost_for(model, dtype).per_item_s *
         static_cast<double>(std::max(1, batch));
}

std::optional<double> InferenceEngine::try_predict_cost_s(
    const std::string& model, DType dtype, int batch) {
  const std::string key = model + '|' + dtype_name(dtype);
  MutexLock lk(dry_mu_);
  auto it = dry_costs_.find(key);
  if (it == dry_costs_.end()) return std::nullopt;
  return it->second.per_item_s * static_cast<double>(std::max(1, batch));
}

ServeResponse InferenceEngine::execute_dry(const ServeRequest& req) {
  FCM_CHECK(req.dry_batch >= 1, "ServeRequest: dry-run batch must be >= 1");
  const double t0 = clock_->now_s();
  const DryCost cost = dry_cost_for(req.model, req.dtype);
  ServeResponse resp = response_stub(req, ServeStatus::kOk);
  const double items = static_cast<double>(req.dry_batch);
  resp.sim_time_s = cost.per_item_s * items;
  resp.gma_bytes = cost.per_item_bytes * req.dry_batch;
  resp.latency_s = clock_->now_s() - t0;
  if (obs::enabled()) {
    // Dry runs execute nothing, so predicted == executed by construction;
    // exporting both keeps dashboard queries uniform across modes.
    const std::string dtype = dtype_name(req.dtype);
    m_.predicted_sim_s->with({req.model, dtype}).add(resp.sim_time_s);
    m_.executed_sim_s->with({req.model, dtype}).add(resp.sim_time_s);
  }
  return resp;
}

void InferenceEngine::observe_latency(const ServeResponse& resp,
                                      double latency_s) {
  if (!obs::enabled()) return;
  m_.latency
      ->with({resp.model, dtype_name(resp.dtype), std::to_string(resp.batch)})
      .observe(latency_s);
}

void InferenceEngine::trace_request(const char* name, std::uint64_t trace_id,
                                    const std::string& model, double begin_s,
                                    double end_s) const {
  if (!opt_.tracer || !obs::enabled()) return;
  obs::TraceSpan span;
  span.trace_id = trace_id;
  span.name = name;
  span.begin_s = begin_s;
  span.end_s = end_s;
  span.lane = opt_.shard;
  span.args = {{"model", model}};
  opt_.tracer->record(std::move(span));
}

ServeResponse InferenceEngine::submit(const ServeRequest& req) {
  const double t0 = clock_->now_s();
  ServeResponse resp = execute_request(req);
  // Sync submits bypass the scheduler, so the id is assigned here (callers
  // that set their own keep it — the response echoes it either way).
  if (resp.request_id == 0) resp.request_id = obs::next_request_id();
  const double end_s = clock_->now_s();
  observe_latency(resp, resp.latency_s);
  trace_request("execute", resp.request_id, resp.model, t0, end_s);
  trace_request("respond", resp.request_id, resp.model, end_s, end_s);
  return resp;
}

std::size_t InferenceEngine::n_workers() const {
  const unsigned n = opt_.queue_workers;
  if (n != 0) return n;
  return std::max(1u, std::thread::hardware_concurrency());
}

void InferenceEngine::ensure_workers() {
  MutexLock lk(workers_mu_);
  if (!workers_.empty()) return;
  const std::size_t n = n_workers();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

std::future<ServeResponse> InferenceEngine::submit_async(ServeRequest req) {
  ensure_workers();
  if (!(req.cost_s > 0.0)) {
    // Stamp the prediction that feeds load_seconds() (and through it the
    // cost-aware router and the autoscaler). Admission must not throw:
    // failures (unknown model, bad graph) keep surfacing on future.get()
    // from the execution path, so an unpriceable request just carries 0.
    try {
      req.cost_s = predict_cost_s(req.model, req.dtype, req.batch());
    } catch (...) {
      // The fallback is deliberate, but it must not be silent: a zero cost
      // makes this request invisible to load_seconds(), the cost-aware
      // router and the autoscaler.
      req.cost_s = 0.0;
      if (obs::enabled()) m_.admission_cost_fallback->inc();
      bool first_for_model = false;
      {
        MutexLock lk(warn_mu_);
        first_for_model = warned_models_.insert(req.model).second;
      }
      if (first_for_model) {
        std::fprintf(stderr,
                     "fcm: warning: admission pricing failed for model '%s'; "
                     "admitting with cost_s = 0 (the execution error, if any, "
                     "surfaces on the request future)\n",
                     req.model.c_str());
      }
    }
  }
  return scheduler_.push(std::move(req));
}

void InferenceEngine::worker_loop() {
  Scheduler::Dispatch d;
  while (scheduler_.pop(&d)) {
    if (d.items.size() == 1) {
      run_single(std::move(d.items.front()), d.popped_s);
    } else {
      run_coalesced(d);
    }
  }
}

void InferenceEngine::run_single(Scheduler::Item item, double popped_s) {
  const double wait_s = popped_s - item.enqueued_s;
  try {
    ServeResponse resp = execute_request(item.req);
    if (item.req.discard_outputs) {
      resp.outputs_f32.clear();
      resp.outputs_i8.clear();
    }
    if (opt_.sim_dilation > 0.0) {
      // Occupancy pacing: hold the worker until the simulated device would
      // have finished, so this engine's drain rate — and its load gauge —
      // tracks the device it models rather than host functional-run speed.
      const double release_s = popped_s + resp.sim_time_s * opt_.sim_dilation;
      if (opt_.virtual_hold) {
        holds_.hold_until(release_s);
      } else {
        clock_->sleep_until(release_s);
      }
      resp.latency_s = clock_->now_s() - popped_s;
    }
    resp.queue_wait_s = wait_s;
    resp.latency_s += wait_s;
    const double end_s = clock_->now_s();
    observe_latency(resp, resp.latency_s);
    trace_request("execute", resp.request_id, resp.model, popped_s, end_s);
    trace_request("respond", resp.request_id, resp.model, end_s, end_s);
    scheduler_.record_completed(1, item.req.cost_s);
    item.promise.set_value(std::move(resp));
  } catch (...) {
    scheduler_.record_failed(1, item.req.cost_s);
    item.promise.set_exception(std::current_exception());
  }
}

void InferenceEngine::run_coalesced(Scheduler::Dispatch& d) {
  const std::size_t n = d.items.size();
  // Every item is a single-image request sharing (model, dtype, quant) —
  // the scheduler's coalescing key — so one merged request serves them all.
  ServeRequest merged;
  merged.model = d.items.front().req.model;
  merged.dtype = d.items.front().req.dtype;
  merged.quant = d.items.front().req.quant;
  merged.dry_run = d.items.front().req.dry_run;
  if (merged.dry_run) {
    // Dry riders coalesce under a "|dry"-suffixed key, so every item here is
    // a single-item dry request; the merged dry batch carries the count.
    merged.dry_batch = static_cast<int>(n);
  } else {
    for (Scheduler::Item& it : d.items) {
      if (merged.dtype == DType::kF32) {
        merged.batch_f32.push_back(std::move(it.req.batch_f32.front()));
      } else {
        merged.batch_i8.push_back(std::move(it.req.batch_i8.front()));
      }
    }
  }
  // Promises resolved so far: the catch below must only set_exception on
  // the unresolved tail — set_exception on an already-satisfied promise
  // throws std::future_error out of the catch and terminates the worker.
  std::size_t resolved = 0;
  try {
    ServeResponse batch = execute_request(merged);
    if (opt_.sim_dilation > 0.0) {
      const double release_s =
          d.popped_s + batch.sim_time_s * opt_.sim_dilation;
      if (opt_.virtual_hold) {
        holds_.hold_until(release_s);
      } else {
        clock_->sleep_until(release_s);
      }
    }
    const double end_s = clock_->now_s();
    for (std::size_t i = 0; i < n; ++i) {
      Scheduler::Item& item = d.items[i];
      ServeResponse resp;
      resp.status = ServeStatus::kOk;
      resp.request_id = item.req.request_id;
      resp.model = merged.model;
      resp.dtype = merged.dtype;
      resp.batch = 1;
      if (!item.req.discard_outputs && !merged.dry_run) {
        if (merged.dtype == DType::kF32) {
          resp.outputs_f32.push_back(std::move(batch.outputs_f32[i]));
        } else {
          resp.outputs_i8.push_back(std::move(batch.outputs_i8[i]));
        }
      }
      // Per-request accounting: each rider waited its own queue time and
      // completed when the merged batch did; the batch's simulated cost is
      // split evenly across the riders (the first rider absorbs the integer
      // remainder so summed shares reconstruct the batch total exactly).
      resp.queue_wait_s = d.popped_s - item.enqueued_s;
      resp.latency_s = end_s - item.enqueued_s;
      resp.sim_time_s = batch.sim_time_s / static_cast<double>(n);
      resp.gma_bytes = batch.gma_bytes / static_cast<std::int64_t>(n);
      if (i == 0) resp.gma_bytes += batch.gma_bytes % static_cast<std::int64_t>(n);
      observe_latency(resp, resp.latency_s);
      // The merged batch executed as one run: every rider's execute span
      // covers the same [dispatch, end] interval under its own trace id.
      trace_request("execute", resp.request_id, resp.model, d.popped_s, end_s);
      trace_request("respond", resp.request_id, resp.model, end_s, end_s);
      // Record each rider before resolving it, like run_single: a caller
      // woken by its future must find the completion already in the stats
      // and the in-flight gauge already retired.
      scheduler_.record_completed(1, item.req.cost_s);
      item.promise.set_value(std::move(resp));
      ++resolved;
    }
  } catch (...) {
    double tail_s = 0.0;
    for (std::size_t i = resolved; i < n; ++i) tail_s += d.items[i].req.cost_s;
    scheduler_.record_failed(n - resolved, tail_s);
    for (std::size_t i = resolved; i < n; ++i) {
      d.items[i].promise.set_exception(std::current_exception());
    }
  }
}

double InferenceEngine::next_wakeup_s() {
  return std::min(scheduler_.next_wakeup_s(), holds_.next_release_s());
}

bool InferenceEngine::settled() {
  {
    // Workers spawn on the first submit_async; until then nothing can be
    // executing, so a pristine engine is settled by definition.
    MutexLock lk(workers_mu_);
    if (workers_.empty()) return true;
  }
  return scheduler_.settled(n_workers(), holds_.active());
}

}  // namespace fcm::serving
