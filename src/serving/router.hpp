// Routing policies for the serving cluster: which shard gets the next
// request.
//
// A ServingCluster owns one InferenceEngine per device and consults a Router
// on every submit. The router sees one ShardState per shard — its index, its
// admission-queue load (queued + in-flight, Scheduler::load()) and its
// predicted seconds of work. Policies:
//
//  * kRoundRobin — a rotating cursor; exact fan-out regardless of load. The
//    load-blind baseline the routing tests compare against.
//  * kLeastLoaded — join-shortest-work: the shard with the least predicted
//    seconds of outstanding work (Scheduler::load_seconds() plus the
//    incoming request's own predicted cost where the shard has priced the
//    model) wins; ties — including the no-cost-information case, where
//    every shard's seconds are 0 — fall back to the request-count gauge,
//    then fewest requests routed so far (so an idle cluster still fans out
//    instead of piling onto shard 0), then index. On heterogeneous devices
//    the seconds gauge shifts traffic toward the faster shard before the
//    slow shard's backlog even grows: a batch-8 request weighs 8x a
//    batch-1, and a GTX-priced second is worth less than an RTX one.
//  * kLeastRequests — the legacy count-based join-shortest-queue (load =
//    queued + in-flight requests, ignoring the seconds gauge). Kept as the
//    comparison baseline for the cost-aware policy.
//
// Routers are deliberately pure over ShardState (the cluster feeds loads and
// routed counts in) so policies unit-test without a cluster; the one
// mutable policy — the round-robin cursor — is serialised by the cluster's
// routing lock.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace fcm::serving {

enum class RouterPolicy : std::uint8_t {
  kRoundRobin,    ///< rotating cursor, exact fan-out
  kLeastLoaded,   ///< join-shortest-work on the shards' seconds gauges
  kLeastRequests, ///< legacy count-based join-shortest-queue (baseline)
};

/// CLI/report spelling: "round-robin", "least-loaded", "least-requests".
const char* router_policy_name(RouterPolicy p);

/// Inverse of router_policy_name; nullopt for unknown spellings (the CLI
/// turns that into a usage error instead of silently defaulting).
std::optional<RouterPolicy> router_policy_from_name(const std::string& name);

/// What a Router sees of one shard at the moment of a routing decision. The
/// cluster rebuilds these per request — loads are point-in-time gauges.
struct ShardState {
  /// Shard index in the cluster's device list (the pick() return value).
  std::size_t index = 0;
  /// Scheduler::load() of the shard's engine: queued + in-flight requests.
  std::size_t load = 0;
  /// Scheduler::load_seconds() of the shard's engine: predicted simulated
  /// seconds of work queued + in flight. 0 when nothing is priced — the
  /// seconds comparison then ties everywhere and count decides.
  double load_seconds = 0.0;
  /// Predicted cost of the request being routed *on this shard* (0 when the
  /// shard has not priced the model — see try_predict_cost_s). Added to
  /// load_seconds for the pick so a slow device's higher per-request price
  /// steers marginal traffic to faster shards even at equal backlog.
  double est_cost_s = 0.0;
  /// Requests the cluster has routed to this shard so far — the
  /// least-loaded tie-break (an all-idle cluster fans out instead of
  /// funnelling every pick into shard 0).
  std::int64_t routed = 0;
};

/// Strategy interface. pick() returns the chosen ShardState::index; `shards`
/// is never empty and arrives in index order. The only implementation state
/// is the round-robin cursor — the load-based policies are pure over
/// ShardState — and the cluster serialises pick() under its routing lock,
/// so implementations need no locking of their own.
class Router {
 public:
  virtual ~Router() = default;
  virtual RouterPolicy policy() const = 0;
  virtual std::size_t pick(const std::vector<ShardState>& shards) = 0;
};

std::unique_ptr<Router> make_router(RouterPolicy p);

}  // namespace fcm::serving
