// Aggregated serving metrics: per-model request counts, host latency
// percentiles, simulated GPU time and traffic (from runtime/report),
// per-(dtype × batch-size) latency groups, admission-queue counters and a
// snapshot of the plan-cache counters — the numbers fcmserve and fcmsim
// print.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "serving/plan_cache.hpp"

namespace fcm::serving {

/// Admission-queue counters of an InferenceEngine (or deltas over one
/// replay). `accepted` counts enqueues that made it into the bounded queue
/// (monotonic); of those, `completed` ran and `expired` were dropped at
/// dequeue because their deadline had already passed. `rejected` counts
/// requests resolved with ServeStatus::kRejected — turned away at admission
/// (kReject policy, queue full) or drained unexecuted at engine shutdown.
/// `blocked` counts enqueues that had to wait for space under the kBlock
/// policy; `max_depth` is the queue's high-water mark. `coalesced_batches`
/// counts dispatches that merged several single-image requests into one
/// batch, `coalesced_items` the requests riding in them (each also counts
/// into `completed` once it runs).
struct QueueStats {
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t expired = 0;
  std::int64_t completed = 0;
  std::int64_t blocked = 0;
  std::int64_t max_depth = 0;
  std::int64_t coalesced_batches = 0;
  std::int64_t coalesced_items = 0;
  /// Point-in-time gauges, not counters: requests waiting in the queue and
  /// requests popped but not yet finished, read under the queue mutex at
  /// snapshot time. Their sum is the load signal the cluster router's
  /// join-shortest-queue policy balances on (Scheduler::load() reads the
  /// same two numbers under the same lock). Delta helpers copy the `after`
  /// side instead of subtracting.
  std::int64_t queued = 0;
  std::int64_t in_flight = 0;
  /// Gauge twins of queued/in_flight in predicted simulated seconds of work
  /// (Scheduler::load_seconds() splits into these two under the same lock).
  double queued_seconds = 0.0;
  double in_flight_seconds = 0.0;
};

/// Counter deltas `after - before`; the queued/in-flight gauges are copied
/// from `after` (a gauge difference is meaningless).
QueueStats queue_delta(const QueueStats& after, const QueueStats& before);

/// Plan-cache counter deltas `after - before`.
CacheStats cache_delta(const CacheStats& after, const CacheStats& before);

/// Fold one shard's stats into a cluster aggregate: counters and gauges
/// sum, max_depth takes the max over shards. Keeps the field list in one
/// place beside queue_delta.
void queue_accumulate(QueueStats& into, const QueueStats& add);
void cache_accumulate(CacheStats& into, const CacheStats& add);

/// Request statistics aggregated for one model.
struct ModelServingStats {
  std::string model;
  int requests = 0;
  /// Batch items summed over all requests (== requests for single-image).
  int items = 0;
  /// Host wall-clock latency distribution over all requests, seconds
  /// (includes the plan lookup — the first request of a cold model pays the
  /// planning cost). A bounded fixed-bucket histogram: memory is O(buckets)
  /// no matter how long the replay, and the percentiles below come from the
  /// same bucket math the registry exporters use.
  obs::HistogramData latency;

  /// Summed simulated GPU time and traffic over all requests.
  double sim_time_s = 0.0;
  std::int64_t gma_bytes = 0;

  double mean_latency_s() const { return latency.mean(); }
  double p50_s() const { return latency.percentile(0.50); }
  double p95_s() const { return latency.percentile(0.95); }
  double p99_s() const { return latency.percentile(0.99); }
};

/// Request statistics aggregated for one (dtype, batch size) combination —
/// the axes the serving API is polymorphic over.
struct GroupServingStats {
  DType dtype = DType::kF32;
  int batch = 1;
  /// Completed requests and their summed batch items.
  int requests = 0;
  int items = 0;
  /// Requests of this group turned away by admission control / deadlines.
  int rejected = 0;
  int expired = 0;
  /// Latency distribution of completed requests, seconds (bounded
  /// fixed-bucket histogram).
  obs::HistogramData latency;
  double sim_time_s = 0.0;

  double mean_latency_s() const { return latency.mean(); }
  double p50_s() const { return latency.percentile(0.50); }
  double p95_s() const { return latency.percentile(0.95); }
  double p99_s() const { return latency.percentile(0.99); }
};

/// Request statistics aggregated for one cluster shard (one per-device
/// InferenceEngine behind the router). Every replay is a cluster's, so a
/// single-device replay reports one shard.
struct ShardServingStats {
  /// Shard index in the cluster's device list.
  int shard = 0;
  std::string device;
  /// Requests the router sent to this shard (including ones later rejected
  /// or expired by the shard's admission queue).
  int routed = 0;
  /// Completed requests and their summed batch items.
  int requests = 0;
  int items = 0;
  int rejected = 0;
  int expired = 0;
  /// Latency distribution of completed requests, seconds (bounded
  /// fixed-bucket histogram).
  obs::HistogramData latency;
  /// Summed simulated GPU time and traffic over completed requests.
  double sim_time_s = 0.0;
  std::int64_t gma_bytes = 0;
  /// This shard's admission-queue counter deltas over the replay
  /// (max_depth is the shard's queue high-water mark during it).
  QueueStats queue;

  double mean_latency_s() const { return latency.mean(); }
  double p50_s() const { return latency.percentile(0.50); }
  double p95_s() const { return latency.percentile(0.95); }
  double p99_s() const { return latency.percentile(0.99); }
};

/// One replayed request mix, aggregated per model, per (dtype, batch) and
/// per cluster shard.
struct ServingReport {
  /// The one shard's device name, or "cluster[A+B+...]" for several.
  std::string device;
  /// The router policy that distributed the mix.
  std::string router;
  /// Host wall-clock time of the whole replay, seconds.
  double wall_s = 0.0;
  /// Plan-cache counter deltas attributable to this replay alone (not the
  /// engines' lifetime totals), summed over shards.
  CacheStats cache;
  /// Admission-queue counter deltas of this replay, summed over shards
  /// (max_depth is the max over shards).
  QueueStats queue;
  std::vector<ModelServingStats> models;
  /// First-appearance order over the mix, like `models`.
  std::vector<GroupServingStats> groups;
  /// Per-shard breakdown, in device-list order.
  std::vector<ShardServingStats> shards;
  /// Autoscaler event deltas over the replay (0/0 when autoscaling is
  /// off). Scale decisions are part of the
  /// deterministic schedule, so the digest includes them.
  std::int64_t scale_ups = 0;
  std::int64_t scale_downs = 0;
  /// Shards accepting new work when the replay ended (equals the
  /// device-list size when autoscaling is off).
  int serving_shards = 0;

  int total_requests() const;
  /// Batch items completed across all models.
  int total_items() const;
  /// Aggregate host throughput of the replay, requests/second.
  double throughput_rps() const;
  /// Aggregate host throughput in batch items (images)/second.
  double throughput_items_per_s() const;

  /// Per-model table: requests, items, throughput, mean/p50/p95/p99 latency,
  /// simulated GPU time per request.
  std::string table() const;
  /// Per-(dtype × batch) table: requests, items, rejected/expired,
  /// throughput and latency percentiles. Empty string when no groups.
  std::string group_table() const;
  /// Per-shard table: routed/completed counts, latency percentiles,
  /// simulated time and queue counters. Empty string when no shards.
  std::string shard_table() const;
  /// One-line roll-up including cache and queue counters, the router
  /// policy and how many shards served requests.
  std::string summary() const;

  /// Canonical rendering of every schedule-determined field — per-model and
  /// per-group and per-shard request/item/rejected/expired counts,
  /// simulated time and traffic (doubles in hexfloat, so equality means
  /// bit-equality), queue accepted/completed/rejected/expired and router
  /// counts. Deliberately EXCLUDES anything host-timing-dependent: wall_s,
  /// latency histograms/percentiles, blocked, max_depth, coalescing
  /// counters and cache counters. Two replays of the same trace through the
  /// same deterministic schedule (round-robin routing, kBlock admission, no
  /// coalescing) produce equal digests whether time was real or virtual —
  /// the workload simulator's equivalence check.
  std::string deterministic_digest() const;
};

/// The report's stats row for `model`, appended in first-appearance order on
/// first use (replay aggregation shares this between engine and cluster).
ModelServingStats& model_stats(ServingReport& report, const std::string& model);

/// The report's stats row for (dtype, batch), appended on first use.
GroupServingStats& group_stats(ServingReport& report, DType dtype, int batch);

}  // namespace fcm::serving
