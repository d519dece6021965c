#include "serving/serving_report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/table.hpp"

namespace fcm::serving {

QueueStats queue_delta(const QueueStats& after, const QueueStats& before) {
  QueueStats d;
  d.accepted = after.accepted - before.accepted;
  d.rejected = after.rejected - before.rejected;
  d.expired = after.expired - before.expired;
  d.completed = after.completed - before.completed;
  d.blocked = after.blocked - before.blocked;
  d.max_depth = after.max_depth;  // watermark, not a counter
  d.coalesced_batches = after.coalesced_batches - before.coalesced_batches;
  d.coalesced_items = after.coalesced_items - before.coalesced_items;
  d.queued = after.queued;
  d.in_flight = after.in_flight;
  d.queued_seconds = after.queued_seconds;
  d.in_flight_seconds = after.in_flight_seconds;
  return d;
}

void queue_accumulate(QueueStats& into, const QueueStats& add) {
  into.accepted += add.accepted;
  into.rejected += add.rejected;
  into.expired += add.expired;
  into.completed += add.completed;
  into.blocked += add.blocked;
  into.max_depth = std::max(into.max_depth, add.max_depth);
  into.coalesced_batches += add.coalesced_batches;
  into.coalesced_items += add.coalesced_items;
  into.queued += add.queued;
  into.in_flight += add.in_flight;
  into.queued_seconds += add.queued_seconds;
  into.in_flight_seconds += add.in_flight_seconds;
}

void cache_accumulate(CacheStats& into, const CacheStats& add) {
  into.hits += add.hits;
  into.misses += add.misses;
  into.evictions += add.evictions;
  into.disk_hits += add.disk_hits;
  into.coalesced += add.coalesced;
}

CacheStats cache_delta(const CacheStats& after, const CacheStats& before) {
  CacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  d.disk_hits = after.disk_hits - before.disk_hits;
  d.coalesced = after.coalesced - before.coalesced;
  return d;
}

ModelServingStats& model_stats(ServingReport& report,
                               const std::string& model) {
  for (auto& m : report.models) {
    if (m.model == model) return m;
  }
  report.models.push_back(ModelServingStats{});
  report.models.back().model = model;
  return report.models.back();
}

GroupServingStats& group_stats(ServingReport& report, DType dtype, int batch) {
  for (auto& g : report.groups) {
    if (g.dtype == dtype && g.batch == batch) return g;
  }
  report.groups.push_back(GroupServingStats{});
  report.groups.back().dtype = dtype;
  report.groups.back().batch = batch;
  return report.groups.back();
}

int ServingReport::total_requests() const {
  int n = 0;
  for (const auto& m : models) n += m.requests;
  return n;
}

int ServingReport::total_items() const {
  int n = 0;
  for (const auto& m : models) n += m.items;
  return n;
}

double ServingReport::throughput_rps() const {
  return wall_s > 0.0 ? total_requests() / wall_s : 0.0;
}

double ServingReport::throughput_items_per_s() const {
  return wall_s > 0.0 ? total_items() / wall_s : 0.0;
}

std::string ServingReport::table() const {
  Table t({"model", "reqs", "items", "req/s", "mean ms", "p50 ms", "p95 ms",
           "p99 ms", "sim ms/req", "GMA MB/req"});
  for (const auto& m : models) {
    const double n = std::max(1, m.requests);
    t.add_row({m.model, std::to_string(m.requests), std::to_string(m.items),
               fmt_f(wall_s > 0.0 ? m.requests / wall_s : 0.0, 1),
               fmt_f(m.mean_latency_s() * 1e3, 2), fmt_f(m.p50_s() * 1e3, 2),
               fmt_f(m.p95_s() * 1e3, 2), fmt_f(m.p99_s() * 1e3, 2),
               fmt_f(m.sim_time_s / n * 1e3, 3),
               fmt_f(static_cast<double>(m.gma_bytes) / n / 1e6, 2)});
  }
  return t.str();
}

std::string ServingReport::group_table() const {
  if (groups.empty()) return {};
  Table t({"dtype", "batch", "reqs", "items", "rej", "exp", "items/s",
           "mean ms", "p50 ms", "p95 ms", "sim ms/req"});
  for (const auto& g : groups) {
    t.add_row({dtype_name(g.dtype), std::to_string(g.batch),
               std::to_string(g.requests), std::to_string(g.items),
               std::to_string(g.rejected), std::to_string(g.expired),
               fmt_f(wall_s > 0.0 ? g.items / wall_s : 0.0, 1),
               fmt_f(g.mean_latency_s() * 1e3, 2), fmt_f(g.p50_s() * 1e3, 2),
               fmt_f(g.p95_s() * 1e3, 2),
               fmt_f(g.sim_time_s / std::max(1, g.requests) * 1e3, 3)});
  }
  return t.str();
}

std::string ServingReport::shard_table() const {
  if (shards.empty()) return {};
  Table t({"shard", "device", "routed", "reqs", "items", "rej", "exp",
           "req/s", "p50 ms", "p95 ms", "p99 ms", "sim ms/req", "max depth"});
  for (const auto& s : shards) {
    const double n = std::max(1, s.requests);
    t.add_row({std::to_string(s.shard), s.device, std::to_string(s.routed),
               std::to_string(s.requests), std::to_string(s.items),
               std::to_string(s.rejected), std::to_string(s.expired),
               fmt_f(wall_s > 0.0 ? s.requests / wall_s : 0.0, 1),
               fmt_f(s.p50_s() * 1e3, 2), fmt_f(s.p95_s() * 1e3, 2),
               fmt_f(s.p99_s() * 1e3, 2), fmt_f(s.sim_time_s / n * 1e3, 3),
               std::to_string(s.queue.max_depth)});
  }
  return t.str();
}

namespace {

/// Bit-exact double rendering (hexfloat — every distinct value has a
/// distinct spelling, unlike fixed-precision %g).
std::string hexf(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

std::string ServingReport::deterministic_digest() const {
  std::ostringstream os;
  os << "device=" << device << " router=" << router << "\n";
  for (const auto& m : models) {
    os << "model " << m.model << " reqs=" << m.requests
       << " items=" << m.items << " sim_s=" << hexf(m.sim_time_s)
       << " gma=" << m.gma_bytes << "\n";
  }
  for (const auto& g : groups) {
    os << "group " << dtype_name(g.dtype) << "x" << g.batch
       << " reqs=" << g.requests << " items=" << g.items
       << " rej=" << g.rejected << " exp=" << g.expired
       << " sim_s=" << hexf(g.sim_time_s) << "\n";
  }
  for (const auto& s : shards) {
    os << "shard " << s.shard << " device=" << s.device
       << " routed=" << s.routed << " reqs=" << s.requests
       << " items=" << s.items << " rej=" << s.rejected
       << " exp=" << s.expired << " sim_s=" << hexf(s.sim_time_s)
       << " gma=" << s.gma_bytes << "\n";
  }
  os << "queue accepted=" << queue.accepted << " completed=" << queue.completed
     << " rejected=" << queue.rejected << " expired=" << queue.expired << "\n";
  os << "autoscale ups=" << scale_ups << " downs=" << scale_downs
     << " serving=" << serving_shards << "\n";
  return os.str();
}

std::string ServingReport::summary() const {
  std::ostringstream os;
  os << total_requests() << " requests (" << total_items() << " items) on "
     << device << " in " << fmt_f(wall_s * 1e3, 1) << " ms ("
     << fmt_f(throughput_rps(), 1) << " req/s, "
     << fmt_f(throughput_items_per_s(), 1) << " items/s); plan cache: "
     << cache.hits << " hits, " << cache.misses << " misses ("
     << cache.disk_hits << " from disk), " << cache.evictions << " evictions";
  if (queue.accepted + queue.rejected > 0) {
    os << "; queue: " << queue.accepted << " accepted, " << queue.rejected
       << " rejected, " << queue.expired << " expired, " << queue.blocked
       << " blocked, max depth " << queue.max_depth << ", coalesced "
       << queue.coalesced_batches << " batches/" << queue.coalesced_items
       << " items";
  }
  if (!shards.empty()) {
    int served = 0;
    for (const auto& s : shards) served += s.requests > 0 ? 1 : 0;
    os << "; router " << router << ", " << served << "/" << shards.size()
       << " shards served";
    if (scale_ups + scale_downs > 0) {
      os << "; autoscale " << scale_ups << " up/" << scale_downs << " down, "
         << serving_shards << " serving at end";
    }
  }
  return os.str();
}

}  // namespace fcm::serving
