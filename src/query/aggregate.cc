#include "src/query/aggregate.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <unordered_map>

#include "src/common/metrics.h"
#include "src/common/request_context.h"
#include "src/query/search.h"

namespace ccam {

Result<RouteUnitAggregate> AggregateRouteUnit(AccessMethod* am,
                                              const RouteUnit& unit) {
  RouteUnitAggregate agg;
  QuerySpan span(am->metrics(), "query.aggregate");
  IoStats before = am->DataIoStats();

  // Retrieve each distinct member node once; edge costs come from the
  // source node's successor-list. Buffered pages make co-clustered
  // route-units cheap.
  std::vector<ReadHint> nodes;
  AppendRouteUnitHints(unit, &nodes);
  ReadAheadCursor ahead(am, nodes);
  std::unordered_map<NodeId, NodeRecord> records;
  RequestContext* ctx = am->request_context();
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    ahead.Before(i);
    NodeRecord rec;
    CCAM_ASSIGN_OR_RETURN(rec, am->Find(nodes[i].node));
    records.emplace(nodes[i].node, std::move(rec));
  }
  agg.num_nodes = nodes.size();
  agg.min_edge_cost = std::numeric_limits<double>::infinity();
  agg.max_edge_cost = -std::numeric_limits<double>::infinity();
  for (const auto& [u, v] : unit.edges) {
    auto cost = records.at(u).SuccessorCost(v);
    if (!cost.ok()) return cost.status();
    agg.total_edge_cost += *cost;
    agg.min_edge_cost = std::min(agg.min_edge_cost, double{*cost});
    agg.max_edge_cost = std::max(agg.max_edge_cost, double{*cost});
    ++agg.num_edges;
  }
  if (agg.num_edges == 0) {
    agg.min_edge_cost = 0.0;
    agg.max_edge_cost = 0.0;
  }

  IoStats after = am->DataIoStats();
  agg.page_accesses = (after - before).DemandAccesses(ahead.loads());
  return agg;
}

void AppendRouteUnitHints(const RouteUnit& unit,
                          std::vector<ReadHint>* hints) {
  const auto first = static_cast<std::ptrdiff_t>(hints->size());
  for (const auto& [u, v] : unit.edges) {
    hints->push_back({kInvalidNodeId, u});
    hints->push_back({kInvalidNodeId, v});
  }
  auto less = [](const ReadHint& a, const ReadHint& b) {
    return a.node < b.node;
  };
  auto same = [](const ReadHint& a, const ReadHint& b) {
    return a.node == b.node;
  };
  std::sort(hints->begin() + first, hints->end(), less);
  hints->erase(std::unique(hints->begin() + first, hints->end(), same),
               hints->end());
}

Result<TourEvalResult> EvaluateTour(AccessMethod* am, const Route& tour) {
  if (tour.nodes.size() < 2) {
    return Status::InvalidArgument("a tour needs at least two nodes");
  }
  // Close the loop if the route does not already return to its origin.
  Route closed = tour;
  if (closed.nodes.front() != closed.nodes.back()) {
    closed.nodes.push_back(closed.nodes.front());
  }
  return EvaluateRoute(am, closed);
}

Result<LocationAllocationResult> EvaluateLocationAllocation(
    AccessMethod* am, const std::vector<NodeId>& facilities,
    const std::vector<NodeId>& demands) {
  LocationAllocationResult result;
  if (facilities.empty()) {
    return Status::InvalidArgument("no facilities");
  }
  MultiSourceResult distances;
  CCAM_ASSIGN_OR_RETURN(distances, MultiSourceDistances(am, facilities));
  std::unordered_map<NodeId, double> dist;
  for (const auto& [node, d] : distances.distances) dist[node] = d;
  for (NodeId demand : demands) {
    auto it = dist.find(demand);
    if (it == dist.end()) {
      ++result.num_unserved;
      continue;
    }
    ++result.num_served;
    result.total_cost += it->second;
    result.max_cost = std::max(result.max_cost, it->second);
  }
  result.page_accesses = distances.page_accesses;
  return result;
}

}  // namespace ccam
