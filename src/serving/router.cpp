#include "serving/router.hpp"

#include "common/error.hpp"

namespace fcm::serving {

const char* router_policy_name(RouterPolicy p) {
  switch (p) {
    case RouterPolicy::kRoundRobin: return "round-robin";
    case RouterPolicy::kLeastLoaded: return "least-loaded";
    case RouterPolicy::kLeastRequests: return "least-requests";
  }
  return "?";
}

std::optional<RouterPolicy> router_policy_from_name(const std::string& name) {
  if (name == "round-robin") return RouterPolicy::kRoundRobin;
  if (name == "least-loaded") return RouterPolicy::kLeastLoaded;
  if (name == "least-requests") return RouterPolicy::kLeastRequests;
  return std::nullopt;
}

namespace {

class RoundRobinRouter final : public Router {
 public:
  RouterPolicy policy() const override { return RouterPolicy::kRoundRobin; }

  std::size_t pick(const std::vector<ShardState>& shards) override {
    return shards[next_++ % shards.size()].index;
  }

 private:
  std::size_t next_ = 0;
};

/// Join-shortest-queue over `shards` by request count, lexicographic
/// (load, routed-so-far, first-seen index): an all-idle cluster fans out
/// round-robin-ish instead of funnelling every request into shard 0. Pure —
/// the cluster supplies both gauges through ShardState.
std::size_t least_requests_pick(const std::vector<ShardState>& shards) {
  const ShardState* best = nullptr;
  for (const ShardState& s : shards) {
    if (best == nullptr || s.load < best->load ||
        (s.load == best->load && s.routed < best->routed)) {
      best = &s;
    }
  }
  return best->index;
}

/// Join-shortest-work: seconds of predicted outstanding work — including
/// what the routed request itself would add on each candidate, so a slower
/// device's higher price counts against it — then the count-based
/// lexicographic order as tie-break. With no cost information every
/// seconds term is 0 and this degrades exactly to least_requests_pick.
std::size_t least_loaded_pick(const std::vector<ShardState>& shards) {
  const ShardState* best = nullptr;
  const auto work = [](const ShardState& s) {
    return s.load_seconds + s.est_cost_s;
  };
  for (const ShardState& s : shards) {
    if (best == nullptr || work(s) < work(*best) ||
        (work(s) == work(*best) &&
         (s.load < best->load ||
          (s.load == best->load && s.routed < best->routed)))) {
      best = &s;
    }
  }
  return best->index;
}

class LeastLoadedRouter final : public Router {
 public:
  RouterPolicy policy() const override { return RouterPolicy::kLeastLoaded; }

  std::size_t pick(const std::vector<ShardState>& shards) override {
    return least_loaded_pick(shards);
  }
};

class LeastRequestsRouter final : public Router {
 public:
  RouterPolicy policy() const override { return RouterPolicy::kLeastRequests; }

  std::size_t pick(const std::vector<ShardState>& shards) override {
    return least_requests_pick(shards);
  }
};

}  // namespace

std::unique_ptr<Router> make_router(RouterPolicy p) {
  switch (p) {
    case RouterPolicy::kRoundRobin:
      return std::make_unique<RoundRobinRouter>();
    case RouterPolicy::kLeastLoaded:
      return std::make_unique<LeastLoadedRouter>();
    case RouterPolicy::kLeastRequests:
      return std::make_unique<LeastRequestsRouter>();
  }
  throw Error("make_router: unknown RouterPolicy");
}

}  // namespace fcm::serving
