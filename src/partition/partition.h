#ifndef CCAM_PARTITION_PARTITION_H_
#define CCAM_PARTITION_PARTITION_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/graph/network.h"
#include "src/storage/page.h"

namespace ccam {

/// Compact undirected weighted graph over a node subset, the input format
/// of the two-way partitioners. Node weights are record sizes in bytes
/// ("sizeof(A) = sum of sizeof(record(i))" in the paper); edge weights are
/// either 1 (uniform CRR) or the access weights w(u,v) (WCRR).
struct PartitionGraph {
  struct Adj {
    int to;         // index into `ids`
    double weight;  // combined weight of the (u,v)/(v,u) directed pair
  };

  std::vector<NodeId> ids;          // index -> node id
  std::vector<size_t> node_sizes;   // index -> size in bytes
  /// CSR adjacency in a single allocation: the neighbors of node i occupy
  /// `adj[adj_start[i] .. adj_start[i+1])`, each per-node range sorted by
  /// `to`. Deterministic layout (no hash-order dependence), cache-friendly
  /// scans, and no per-node vector headers.
  std::vector<int> adj_start;  // size NumNodes() + 1
  std::vector<Adj> adj;

  /// Iterable neighbor range of node i.
  struct AdjSpan {
    const Adj* first;
    const Adj* last;
    const Adj* begin() const { return first; }
    const Adj* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
  };
  AdjSpan Neighbors(int i) const {
    return {adj.data() + adj_start[i], adj.data() + adj_start[i + 1]};
  }

  size_t NumNodes() const { return ids.size(); }
  size_t TotalSize() const;

  /// Builds the partition graph induced by `subset`. Directed edges (u,v)
  /// and (v,u) collapse into one undirected edge whose weight is the sum of
  /// the directed access weights (or the directed edge count if
  /// `use_access_weights` is false). `extra_node_bytes` is added to every
  /// node size (per-record page overhead such as the slot entry).
  static PartitionGraph FromNetwork(const Network& network,
                                    const std::vector<NodeId>& subset,
                                    bool use_access_weights,
                                    size_t extra_node_bytes = 0);

  /// The subgraph induced by the nodes i with keep[i], indexed in this
  /// graph's order. It equals FromNetwork over those ids with this graph's
  /// arguments, without touching the network: node sizes carry over, a kept
  /// edge's merged weight (the sum of at most two directed weights) is the
  /// same in any subset holding both endpoints, and the order-preserving
  /// index map keeps every adjacency range sorted.
  PartitionGraph Induced(const std::vector<bool>& keep) const;
};

/// Result of a two-way partition: side[i] is false for side A, true for
/// side B.
struct Bisection {
  std::vector<bool> side;
  double cut_weight = 0.0;
  size_t size_a = 0;
  size_t size_b = 0;
};

/// The partitioning heuristic to use as the basis of the clustering scheme.
/// The paper uses Cheng & Wei's ratio-cut; "other graph partitioning
/// methods can also be used" — we provide KL and FM for the ablation.
enum class PartitionAlgorithm {
  kRatioCut,
  kFm,
  kKl,
  kRandom,
};

const char* PartitionAlgorithmName(PartitionAlgorithm algo);

/// Weight of edges crossing the bisection.
double CutWeight(const PartitionGraph& graph, const std::vector<bool>& side);

/// Byte sizes of the two sides.
void SideSizes(const PartitionGraph& graph, const std::vector<bool>& side,
               size_t* size_a, size_t* size_b);

/// Dispatches to the chosen two-way partitioner. Both sides are kept at or
/// above `min_side_size` bytes whenever the node granularity permits.
Bisection TwoWayPartition(const PartitionGraph& graph, size_t min_side_size,
                          PartitionAlgorithm algo, uint64_t seed);

/// Node -> data page assignment, the object CRR is measured on.
using NodePageMap = std::unordered_map<NodeId, PageId>;

/// CRR = (# directed edges with Page(u) == Page(v)) / (# directed edges).
/// Nodes missing from `page_of` never count as co-paged.
double ComputeCrr(const Network& network, const NodePageMap& page_of);

/// WCRR = sum of w(u,v) over co-paged edges / total weight.
double ComputeWcrr(const Network& network, const NodePageMap& page_of);

/// A provable upper bound on the CRR achievable by *any* assignment of
/// this network's records to pages of `page_capacity` bytes — a step
/// toward the paper's future work, "developing a formal analysis for
/// achievable CRR under different access methods".
///
/// Argument: a node u can be co-paged with at most k(u) other records,
/// where k(u) greedily packs the smallest records of the network beside
/// u's; hence at most min(out-degree(u), k(u)) of u's outgoing edges can
/// be unsplit. Summing over sources (and, symmetrically, over
/// destinations with in-degrees) bounds the number of unsplit edges.
double CrrUpperBound(const Network& network, size_t page_capacity,
                     size_t per_record_overhead = 4);

}  // namespace ccam

#endif  // CCAM_PARTITION_PARTITION_H_
