#ifndef CCAM_QUERY_HIERARCHY_H_
#define CCAM_QUERY_HIERARCHY_H_

#include "src/common/result.h"
#include "src/core/access_method.h"
#include "src/query/search.h"

namespace ccam {

/// Bidirectional shortest-path search over the contraction-hierarchy
/// overlay: a forward Dijkstra from `src` relaxing upward arcs and a
/// backward Dijkstra from `dst` relaxing downward arcs, meeting at the top
/// of the hierarchy. Returns the same SearchResult contract as
/// ShortestPathDijkstra — the true shortest-path cost, the full node path
/// (shortcuts are unpacked through their middle nodes), `nodes_expanded` =
/// settled nodes across both directions, and `page_accesses` = the query's
/// overlay-page plus data-page accesses (per session where applicable).
///
/// Both searches read only overlay pages; because every query climbs to
/// the top of the hierarchy — packed into the first, hottest overlay pages
/// — long-distance queries touch orders of magnitude fewer pages than A*
/// over the data file. Fails with NotSupported when `am` has no valid
/// overlay (not built, or invalidated by a mutation).
Result<SearchResult> ShortestPathCH(AccessMethod* am, NodeId src, NodeId dst);

}  // namespace ccam

#endif  // CCAM_QUERY_HIERARCHY_H_
