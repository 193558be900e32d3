#ifndef CCAM_QUERY_SEARCH_H_
#define CCAM_QUERY_SEARCH_H_

#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/core/access_method.h"

namespace ccam {

/// Outcome of a shortest-path search over an access method.
struct SearchResult {
  std::vector<NodeId> path;  // src..dst inclusive; empty if unreachable
  double cost = 0.0;
  size_t nodes_expanded = 0;
  uint64_t page_accesses = 0;

  bool Found() const { return !path.empty(); }
};

/// Dijkstra over the paged network. Each reached node's record is read
/// once, with Get-A-successor() from the node that first reaches it (the
/// source and the target with Find()); settling a node relaxes from the
/// successor list kept from that read. Once the search has missed more
/// pages than the buffer pool holds, every miss also reads the records
/// its successor arcs reach inside that page while the page is buffered,
/// so a page is rarely read twice. Every record access goes through the
/// access method, so the returned `page_accesses` reflects the clustering
/// quality.
Result<SearchResult> ShortestPathDijkstra(AccessMethod* am, NodeId src,
                                          NodeId dst);

/// A* with a Euclidean-distance heuristic scaled by `heuristic_weight`
/// (the generators produce edge costs ~ distance * U(1-s, 1+s); a weight
/// of 1-s keeps the heuristic admissible; a negative one is Dijkstra).
Result<SearchResult> ShortestPathAStar(AccessMethod* am, NodeId src,
                                       NodeId dst,
                                       double heuristic_weight = 0.7);

/// Appends the Finds a best-first search issues before its first settle
/// to `hints`, in order: the target (unless kInvalidNodeId), then each
/// source. The search and the serving layer's admission prefetch both
/// read ahead from this list.
void AppendSearchEndpointHints(NodeId target, std::span<const NodeId> sources,
                               std::vector<ReadHint>* hints);

/// Multi-source Dijkstra: shortest distance from any of `sources` to every
/// reachable node. Returns (node, distance) pairs and charges the I/O to
/// `page_accesses`. Used by location-allocation evaluation.
struct MultiSourceResult {
  std::vector<std::pair<NodeId, double>> distances;
  uint64_t page_accesses = 0;
};
Result<MultiSourceResult> MultiSourceDistances(
    AccessMethod* am, const std::vector<NodeId>& sources);

}  // namespace ccam

#endif  // CCAM_QUERY_SEARCH_H_
