#ifndef CCAM_SHARD_SHARD_QUERY_H_
#define CCAM_SHARD_SHARD_QUERY_H_

#include "src/query/aggregate.h"
#include "src/query/route_eval.h"
#include "src/shard/sharded_network_file.h"

namespace ccam {

// Reporting wrappers kept for perfbench's shard_routes workload, which
// reads the shard layer's routing facts from them. Each runs the plain
// operator once on the facade session; new code calls EvaluateRoute /
// AggregateRouteUnit on a ShardedQuerySession directly and takes the
// facts from router().PlanFor(...) and CutCrossings().

/// Outcome of one route evaluation on a sharded file: the plain
/// route-evaluation aggregate plus the routing facts the shard layer adds.
struct ShardedRouteResult {
  RouteEvalResult eval;
  /// Distinct owner shards of the route's nodes.
  size_t fanout = 0;
  /// Route edges whose endpoints live in different shards.
  uint64_t cut_crossings = 0;
};

/// EvaluateRoute on the facade session, plus its fan-out and the cut
/// crossings the facade's Get-A-successor counted during the call.
Result<ShardedRouteResult> EvaluateRouteSharded(ShardedQuerySession* session,
                                                const Route& route);

/// AggregateRouteUnit on the facade session. `fanout`, when given,
/// receives the distinct owner shards of the unit's edge endpoints.
Result<RouteUnitAggregate> AggregateRouteUnitSharded(
    ShardedQuerySession* session, const RouteUnit& unit,
    size_t* fanout = nullptr);

}  // namespace ccam

#endif  // CCAM_SHARD_SHARD_QUERY_H_
