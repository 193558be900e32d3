#ifndef CCAM_QUERY_AGGREGATE_H_
#define CCAM_QUERY_AGGREGATE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/access_method.h"
#include "src/graph/route.h"
#include "src/query/route_eval.h"

namespace ccam {

/// A route-unit (paper Section 1.1): a named collection of arcs with
/// common characteristics — a bus route, a pipeline, a named highway.
/// Aggregate queries over route-units retrieve all member nodes and edges
/// to derive summary properties for decision support.
struct RouteUnit {
  std::string name;
  std::vector<std::pair<NodeId, NodeId>> edges;
};

/// Aggregates over one route-unit.
struct RouteUnitAggregate {
  double total_edge_cost = 0.0;
  double min_edge_cost = 0.0;
  double max_edge_cost = 0.0;
  size_t num_edges = 0;
  size_t num_nodes = 0;  // distinct nodes touched
  uint64_t page_accesses = 0;
};

/// Retrieves every node of the route-unit through the access method and
/// folds the member edge costs. Missing nodes/edges fail with NotFound.
Result<RouteUnitAggregate> AggregateRouteUnit(AccessMethod* am,
                                              const RouteUnit& unit);

/// Appends the Finds AggregateRouteUnit issues for `unit` to `hints`, in
/// order: one per distinct member node, ascending. The operator and the
/// serving layer's admission prefetch both read ahead from this list.
void AppendRouteUnitHints(const RouteUnit& unit,
                          std::vector<ReadHint>* hints);

/// Tour evaluation (paper future work): evaluates a closed route (the last
/// node must equal the first, or the closing edge must exist). Returns the
/// route-evaluation aggregate of the closed tour: EvaluateRoute on the
/// tour with its origin appended when the tour does not already end there.
using TourEvalResult = RouteEvalResult;
Result<TourEvalResult> EvaluateTour(AccessMethod* am, const Route& tour);

/// Location-allocation evaluation (paper future work): given candidate
/// facility nodes, computes for each reachable demand node the distance
/// from its nearest facility (one multi-source Dijkstra over the paged
/// network) and summarizes the allocation cost.
struct LocationAllocationResult {
  double total_cost = 0.0;   // sum of nearest-facility distances
  double max_cost = 0.0;     // worst served demand
  size_t num_served = 0;     // reachable demand nodes
  size_t num_unserved = 0;   // demand nodes unreachable from any facility
  uint64_t page_accesses = 0;
};
Result<LocationAllocationResult> EvaluateLocationAllocation(
    AccessMethod* am, const std::vector<NodeId>& facilities,
    const std::vector<NodeId>& demands);

}  // namespace ccam

#endif  // CCAM_QUERY_AGGREGATE_H_
