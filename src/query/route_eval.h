#ifndef CCAM_QUERY_ROUTE_EVAL_H_
#define CCAM_QUERY_ROUTE_EVAL_H_

#include <vector>

#include "src/common/result.h"
#include "src/core/access_method.h"
#include "src/graph/route.h"

namespace ccam {

/// Outcome of one route-evaluation query.
struct RouteEvalResult {
  /// Sum of the traversed edge costs (e.g. total travel time).
  double total_cost = 0.0;
  /// Number of edges traversed (route length - 1).
  size_t num_edges = 0;
  /// Data-page accesses charged to this query.
  uint64_t page_accesses = 0;
};

/// Evaluates the aggregate property of a route (paper Section 2.3): a
/// Find() on the first node followed by a Get-A-successor() per hop. Edge
/// costs are read from the successor-lists, so a high CRR means most hops
/// cost no I/O. Fails with NotFound when the route uses a missing node or
/// edge.
Result<RouteEvalResult> EvaluateRoute(AccessMethod* am, const Route& route);

/// Appends the reads EvaluateRoute issues for `route` to `hints`, in
/// order: a Find of the first node, then each hop as a Get-A-successor
/// from the node before it. The operator and the serving layer's
/// admission prefetch both read ahead from this list.
void AppendRouteHints(const Route& route, std::vector<ReadHint>* hints);

/// Evaluates a batch of routes and returns the mean page accesses per
/// route — the quantity plotted in the paper's Figure 6.
Result<double> MeanRouteEvalAccesses(AccessMethod* am,
                                     const std::vector<Route>& routes);

}  // namespace ccam

#endif  // CCAM_QUERY_ROUTE_EVAL_H_
