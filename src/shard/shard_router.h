#ifndef CCAM_SHARD_SHARD_ROUTER_H_
#define CCAM_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/graph/network.h"

namespace ccam {

/// The shard set one query touches, ascending and deduplicated: its size
/// is the query's fan-out, and a multi-shard plan marks a cross-shard
/// query. Routing itself is the facade session's, read by read.
struct ShardPlan {
  std::vector<uint32_t> shards;
  bool single() const { return shards.size() == 1; }
  bool empty() const { return shards.empty(); }
};

/// Maps node-ids to their owning shard and query node-sets to the minimal
/// shard set they touch. The owner map is the coarse recursive-bisection
/// assignment computed at Create() time; routing is a pure lookup, so two
/// routers built from the same network and shard count answer identically
/// regardless of thread count or call order (see Fingerprint()).
///
/// Thread safety: the owner map is immutable after construction, so every
/// const method is safe from any thread. The optional metrics (fan-out
/// histogram, single/multi counters) are lock-free.
class ShardRouter {
 public:
  static constexpr uint32_t kInvalidShard = UINT32_MAX;

  ShardRouter() = default;
  ShardRouter(uint32_t num_shards, std::unordered_map<NodeId, uint32_t> owner)
      : num_shards_(num_shards), owner_(std::move(owner)) {}

  uint32_t num_shards() const { return num_shards_; }
  size_t NumOwnedNodes() const { return owner_.size(); }

  /// Owning shard of `id`, or kInvalidShard for an unknown node.
  uint32_t ShardOf(NodeId id) const {
    auto it = owner_.find(id);
    return it == owner_.end() ? kInvalidShard : it->second;
  }

  /// Minimal shard set touched by a query over `ids` (a route's node
  /// sequence, an aggregate unit's endpoints, a window result). Unknown
  /// nodes are skipped — the per-shard operator reports them as NotFound.
  /// Records the plan in the router metrics when attached.
  ShardPlan PlanFor(const std::vector<NodeId>& ids) const;

  /// Owned node-ids of shard `s`, ascending (deterministic order).
  std::vector<NodeId> OwnedBy(uint32_t s) const;

  const std::unordered_map<NodeId, uint32_t>& owner_map() const {
    return owner_;
  }

  /// Order-independent hash of the (node, shard) assignment — two routers
  /// with equal fingerprints route every query identically. Determinism
  /// tests compare fingerprints across runs and thread counts.
  uint64_t Fingerprint() const;

  /// Attaches "shard.router.fanout" (histogram of shards per plan) and
  /// "shard.router.{single,multi}" counters. Null detaches.
  void SetMetrics(MetricsRegistry* metrics);

 private:
  uint32_t num_shards_ = 0;
  std::unordered_map<NodeId, uint32_t> owner_;

  mutable MetricHistogram* h_fanout_ = nullptr;
  mutable MetricCounter* m_single_ = nullptr;
  mutable MetricCounter* m_multi_ = nullptr;
};

}  // namespace ccam

#endif  // CCAM_SHARD_SHARD_ROUTER_H_
