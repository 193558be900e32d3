#include "src/shard/shard_query.h"

namespace ccam {

Result<ShardedRouteResult> EvaluateRouteSharded(ShardedQuerySession* session,
                                                const Route& route) {
  ShardedRouteResult result;
  result.fanout = session->router().PlanFor(route.nodes).shards.size();
  const uint64_t crossings = session->CutCrossings();
  CCAM_ASSIGN_OR_RETURN(result.eval, EvaluateRoute(session, route));
  result.cut_crossings = session->CutCrossings() - crossings;
  return result;
}

Result<RouteUnitAggregate> AggregateRouteUnitSharded(
    ShardedQuerySession* session, const RouteUnit& unit, size_t* fanout) {
  std::vector<NodeId> endpoints;
  endpoints.reserve(unit.edges.size() * 2);
  for (const auto& edge : unit.edges) {
    endpoints.push_back(edge.first);
    endpoints.push_back(edge.second);
  }
  ShardPlan plan = session->router().PlanFor(endpoints);
  if (fanout != nullptr) *fanout = plan.shards.size();
  return AggregateRouteUnit(session, unit);
}

}  // namespace ccam
