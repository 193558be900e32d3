#include "src/query/route_eval.h"

#include "src/common/metrics.h"
#include "src/common/request_context.h"

namespace ccam {

Result<RouteEvalResult> EvaluateRoute(AccessMethod* am, const Route& route) {
  RouteEvalResult result;
  if (route.nodes.empty()) return result;
  QuerySpan span(am->metrics(), "query.route_eval");

  IoStats before = am->DataIoStats();
  // The whole page sequence is known up front: read it ahead window by
  // window so the misses of each window overlap.
  std::vector<ReadHint> hints;
  AppendRouteHints(route, &hints);
  ReadAheadCursor ahead(am, hints);
  ahead.Before(0);
  NodeRecord current;
  CCAM_ASSIGN_OR_RETURN(current, am->Find(route.nodes[0]));
  RequestContext* ctx = am->request_context();
  for (size_t i = 1; i < route.nodes.size(); ++i) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    ahead.Before(i);
    NodeId next = route.nodes[i];
    float cost;
    {
      auto res = current.SuccessorCost(next);
      if (!res.ok()) return res.status();
      cost = *res;
    }
    CCAM_ASSIGN_OR_RETURN(current, am->GetASuccessor(current.id, next));
    result.total_cost += cost;
    ++result.num_edges;
  }
  IoStats after = am->DataIoStats();
  result.page_accesses = (after - before).DemandAccesses(ahead.loads());
  return result;
}

void AppendRouteHints(const Route& route, std::vector<ReadHint>* hints) {
  for (size_t i = 0; i < route.nodes.size(); ++i) {
    hints->push_back(
        {i > 0 ? route.nodes[i - 1] : kInvalidNodeId, route.nodes[i]});
  }
}

}  // namespace ccam
