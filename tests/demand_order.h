// The demand-order oracle the read-ahead tests share: a wrapper that keeps
// AccessMethod::ReadAhead's no-op default, plus an interleaved route and
// route-unit aggregate workload and a search workload to run through it
// and through the access method under test on one pool.

#ifndef CCAM_TESTS_DEMAND_ORDER_H_
#define CCAM_TESTS_DEMAND_ORDER_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/access_method.h"
#include "src/graph/route.h"
#include "src/query/aggregate.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"

namespace ccam {

/// Forwards every call to `inner` but keeps AccessMethod::ReadAhead's no-op
/// default: the demand-order oracle the read-ahead runs are compared with.
class DemandOrderAccess : public AccessMethod {
 public:
  explicit DemandOrderAccess(AccessMethod* inner) : inner_(inner) {}

  std::string Name() const override { return inner_->Name() + "/demand"; }
  Status Create(const Network& n) override { return inner_->Create(n); }
  Result<NodeRecord> Find(NodeId id) override { return inner_->Find(id); }
  Result<NodeRecord> GetASuccessor(NodeId from, NodeId to) override {
    return inner_->GetASuccessor(from, to);
  }
  Result<std::vector<NodeRecord>> GetSuccessors(NodeId id) override {
    return inner_->GetSuccessors(id);
  }
  Status InsertNode(const NodeRecord& r, ReorgPolicy p) override {
    return inner_->InsertNode(r, p);
  }
  Status DeleteNode(NodeId id, ReorgPolicy p) override {
    return inner_->DeleteNode(id, p);
  }
  Status InsertEdge(NodeId u, NodeId v, float c, ReorgPolicy p) override {
    return inner_->InsertEdge(u, v, c, p);
  }
  Status DeleteEdge(NodeId u, NodeId v, ReorgPolicy p) override {
    return inner_->DeleteEdge(u, v, p);
  }
  IoStats DataIoStats() const override { return inner_->DataIoStats(); }
  void ResetIoStats() override { inner_->ResetIoStats(); }
  const NodePageMap& PageMap() const override { return inner_->PageMap(); }
  BufferPool* buffer_pool() override { return inner_->buffer_pool(); }
  bool LastOpChangedStructure() const override {
    return inner_->LastOpChangedStructure();
  }
  size_t NumDataPages() const override { return inner_->NumDataPages(); }

 private:
  AccessMethod* inner_;
};

/// A read-ahead hint that reads `nodes` with Find, in order.
inline std::vector<ReadHint> FindHints(const std::vector<NodeId>& nodes) {
  std::vector<ReadHint> hints;
  for (NodeId id : nodes) hints.push_back({kInvalidNodeId, id});
  return hints;
}

/// One query's answer and page accesses.
using QueryOutcome = std::pair<double, uint64_t>;

/// Route-units made of the edges of random walks.
inline std::vector<RouteUnit> WalkUnits(const Network& net, int count,
                                        int length, uint64_t seed) {
  std::vector<RouteUnit> units;
  for (const Route& walk : GenerateRandomWalkRoutes(net, count, length, seed)) {
    RouteUnit unit;
    for (size_t i = 0; i + 1 < walk.nodes.size(); ++i) {
      unit.edges.emplace_back(walk.nodes[i], walk.nodes[i + 1]);
    }
    units.push_back(std::move(unit));
  }
  return units;
}

/// Evaluates routes and aggregates alternately on `am`, one shared pool.
inline std::vector<QueryOutcome> RunInterleaved(
    AccessMethod* am, const std::vector<Route>& routes,
    const std::vector<RouteUnit>& units) {
  std::vector<QueryOutcome> out;
  for (size_t i = 0; i < routes.size(); ++i) {
    auto route = EvaluateRoute(am, routes[i]);
    EXPECT_TRUE(route.ok()) << route.status().ToString();
    if (route.ok()) out.emplace_back(route->total_cost, route->page_accesses);
    auto agg = AggregateRouteUnit(am, units[i % units.size()]);
    EXPECT_TRUE(agg.ok()) << agg.status().ToString();
    if (agg.ok()) out.emplace_back(agg->total_edge_cost, agg->page_accesses);
  }
  return out;
}

/// Seeded random node pairs of `net`.
inline std::vector<std::pair<NodeId, NodeId>> RandomPairs(const Network& net,
                                                          int count,
                                                          uint64_t seed) {
  const std::vector<NodeId> ids = net.NodeIds();
  Random rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < count; ++i) {
    NodeId a = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    NodeId b = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    pairs.emplace_back(a, b);
  }
  return pairs;
}

/// Runs every search kind on `am`, one shared pool: A* for each pair,
/// Dijkstra for every third and an exhaustive three-source
/// MultiSourceDistances for every fourth. Each search gives its answer,
/// its expansions and its page accesses.
inline std::vector<QueryOutcome> RunSearches(
    AccessMethod* am, const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::vector<QueryOutcome> out;
  auto add = [&](const Result<SearchResult>& res) {
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (!res.ok()) return;
    out.emplace_back(res->cost, res->page_accesses);
    out.emplace_back(res->nodes_expanded, res->path.size());
  };
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [src, dst] = pairs[i];
    add(ShortestPathAStar(am, src, dst, 0.7));
    if (i % 3 == 0) add(ShortestPathDijkstra(am, dst, src));
    if (i % 4 == 0) {
      auto multi = MultiSourceDistances(
          am, {src, dst, pairs[(i + 1) % pairs.size()].second});
      EXPECT_TRUE(multi.ok()) << multi.status().ToString();
      if (!multi.ok()) continue;
      double sum = 0.0;
      for (const auto& [node, d] : multi->distances) sum += d;
      out.emplace_back(sum, multi->page_accesses);
      out.emplace_back(multi->distances.size(), 0);
    }
  }
  return out;
}

/// True when some search of `outcomes` (RunSearches) missed more pages
/// than `pool_pages`, so its page harvest ran.
inline bool SomeSearchOutgrewPool(const std::vector<QueryOutcome>& outcomes,
                                  size_t pool_pages) {
  for (size_t i = 0; i < outcomes.size(); i += 2) {
    if (outcomes[i].second > pool_pages) return true;
  }
  return false;
}

}  // namespace ccam

#endif  // CCAM_TESTS_DEMAND_ORDER_H_
