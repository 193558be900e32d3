#include "src/partition/partition.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/partition/bisect_internal.h"
#include "src/storage/record.h"

namespace ccam {

size_t PartitionGraph::TotalSize() const {
  return std::accumulate(node_sizes.begin(), node_sizes.end(), size_t{0});
}

PartitionGraph PartitionGraph::FromNetwork(const Network& network,
                                           const std::vector<NodeId>& subset,
                                           bool use_access_weights,
                                           size_t extra_node_bytes) {
  PartitionGraph g;
  std::unordered_map<NodeId, int> index;
  index.reserve(subset.size() * 2);
  g.ids.reserve(subset.size());
  for (NodeId id : subset) {
    if (!network.HasNode(id) || index.count(id)) continue;
    index[id] = static_cast<int>(g.ids.size());
    g.ids.push_back(id);
  }
  const size_t n = g.ids.size();
  g.node_sizes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    g.node_sizes[i] =
        RecordSizeOf(g.ids[i], network.node(g.ids[i])) + extra_node_bytes;
  }

  // Collapse directed pairs into undirected edges. Tuples are sorted and
  // merged (instead of accumulated in a hash map) so both the edge set and
  // the adjacency layout are identical across standard libraries and runs —
  // the seed-BFS of the partitioners walks adjacency in storage order.
  struct Tuple {
    int a;
    int b;
    double w;
  };
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < n; ++i) {
    NodeId u = g.ids[i];
    for (const AdjEntry& e : network.node(u).succ) {
      auto it = index.find(e.node);
      if (it == index.end()) continue;
      int a = static_cast<int>(i), b = it->second;
      if (a > b) std::swap(a, b);
      double w = use_access_weights ? network.EdgeWeight(u, e.node) : 1.0;
      tuples.push_back({a, b, w});
    }
  }
  std::sort(tuples.begin(), tuples.end(), [](const Tuple& x, const Tuple& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  size_t merged = 0;
  for (size_t k = 0; k < tuples.size();) {
    size_t j = k;
    double w = 0.0;
    while (j < tuples.size() && tuples[j].a == tuples[k].a &&
           tuples[j].b == tuples[k].b) {
      w += tuples[j].w;
      ++j;
    }
    // Zero-weight edges do not affect WCRR.
    if (w > 0.0) tuples[merged++] = {tuples[k].a, tuples[k].b, w};
    k = j;
  }
  tuples.resize(merged);

  // Build the CSR layout in one pass: count degrees, prefix-sum, fill.
  g.adj_start.assign(n + 1, 0);
  for (const Tuple& t : tuples) {
    ++g.adj_start[t.a + 1];
    ++g.adj_start[t.b + 1];
  }
  for (size_t i = 0; i < n; ++i) g.adj_start[i + 1] += g.adj_start[i];
  g.adj.resize(2 * tuples.size());
  std::vector<int> cursor(g.adj_start.begin(), g.adj_start.end() - 1);
  for (const Tuple& t : tuples) {
    g.adj[cursor[t.a]++] = {t.b, t.w};
    g.adj[cursor[t.b]++] = {t.a, t.w};
  }
  for (size_t i = 0; i < n; ++i) {
    std::sort(g.adj.begin() + g.adj_start[i], g.adj.begin() + g.adj_start[i + 1],
              [](const Adj& x, const Adj& y) { return x.to < y.to; });
  }
  return g;
}

PartitionGraph PartitionGraph::Induced(const std::vector<bool>& keep) const {
  PartitionGraph g;
  const size_t n = NumNodes();
  std::vector<int> index(n, -1);
  for (size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    index[i] = static_cast<int>(g.ids.size());
    g.ids.push_back(ids[i]);
    g.node_sizes.push_back(node_sizes[i]);
  }
  g.adj_start.reserve(g.ids.size() + 1);
  g.adj_start.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    for (const Adj& e : Neighbors(static_cast<int>(i))) {
      if (keep[e.to]) g.adj.push_back({index[e.to], e.weight});
    }
    g.adj_start.push_back(static_cast<int>(g.adj.size()));
  }
  return g;
}

const char* PartitionAlgorithmName(PartitionAlgorithm algo) {
  switch (algo) {
    case PartitionAlgorithm::kRatioCut:
      return "ratio-cut";
    case PartitionAlgorithm::kFm:
      return "fm";
    case PartitionAlgorithm::kKl:
      return "kl";
    case PartitionAlgorithm::kRandom:
      return "random";
  }
  return "unknown";
}

double CutWeight(const PartitionGraph& graph, const std::vector<bool>& side) {
  double cut = 0.0;
  for (size_t i = 0; i < graph.NumNodes(); ++i) {
    for (const PartitionGraph::Adj& e : graph.Neighbors(static_cast<int>(i))) {
      if (static_cast<size_t>(e.to) > i && side[i] != side[e.to]) {
        cut += e.weight;
      }
    }
  }
  return cut;
}

void SideSizes(const PartitionGraph& graph, const std::vector<bool>& side,
               size_t* size_a, size_t* size_b) {
  *size_a = 0;
  *size_b = 0;
  for (size_t i = 0; i < graph.node_sizes.size(); ++i) {
    (side[i] ? *size_b : *size_a) += graph.node_sizes[i];
  }
}

namespace partition_internal {

std::vector<bool> BfsSeed(const PartitionGraph& graph, size_t target_a,
                          uint64_t seed) {
  const size_t n = graph.NumNodes();
  std::vector<bool> side(n, true);  // true = side B; we grow A
  if (n == 0) return side;
  Random rng(seed);
  std::vector<bool> visited(n, false);
  size_t acc = 0;
  std::vector<int> frontier;
  int start = static_cast<int>(rng.Uniform(static_cast<uint32_t>(n)));
  frontier.push_back(start);
  size_t head = 0;
  int taken = 0;
  while (acc < target_a && taken < static_cast<int>(n)) {
    if (head >= frontier.size()) {
      // Disconnected remainder: continue from the next unvisited node.
      for (size_t i = 0; i < n; ++i) {
        if (!visited[i]) {
          frontier.push_back(static_cast<int>(i));
          break;
        }
      }
      if (head >= frontier.size()) break;
    }
    int cur = frontier[head++];
    if (visited[cur]) continue;
    visited[cur] = true;
    side[cur] = false;
    acc += graph.node_sizes[cur];
    ++taken;
    for (const PartitionGraph::Adj& e : graph.Neighbors(cur)) {
      if (!visited[e.to]) frontier.push_back(e.to);
    }
  }
  return side;
}

double MoveGain(const PartitionGraph& graph, const std::vector<bool>& side,
                int i) {
  double to_other = 0.0, to_own = 0.0;
  for (const PartitionGraph::Adj& e : graph.Neighbors(i)) {
    if (side[e.to] == side[i]) {
      to_own += e.weight;
    } else {
      to_other += e.weight;
    }
  }
  return to_other - to_own;
}

}  // namespace partition_internal

namespace {

Bisection RandomBisection(const PartitionGraph& graph, size_t min_side_size,
                          uint64_t seed) {
  Random rng(seed);
  std::vector<int> order(graph.NumNodes());
  std::iota(order.begin(), order.end(), 0);
  std::vector<int> shuffled;
  shuffled.reserve(order.size());
  {
    std::vector<int> tmp = order;
    rng.Shuffle(&tmp);
    shuffled = std::move(tmp);
  }
  Bisection result;
  result.side.assign(graph.NumNodes(), true);
  size_t total = graph.TotalSize();
  size_t target_a = std::max(min_side_size, total / 2);
  size_t acc = 0;
  for (int idx : shuffled) {
    if (acc >= target_a) break;
    result.side[idx] = false;
    acc += graph.node_sizes[idx];
  }
  SideSizes(graph, result.side, &result.size_a, &result.size_b);
  result.cut_weight = CutWeight(graph, result.side);
  return result;
}

}  // namespace

Bisection TwoWayPartition(const PartitionGraph& graph, size_t min_side_size,
                          PartitionAlgorithm algo, uint64_t seed) {
  switch (algo) {
    case PartitionAlgorithm::kRatioCut:
      return RatioCutBisect(graph, min_side_size, seed);
    case PartitionAlgorithm::kFm:
      return FmBisect(graph, min_side_size, seed);
    case PartitionAlgorithm::kKl:
      return KlBisect(graph, min_side_size, seed);
    case PartitionAlgorithm::kRandom:
      return RandomBisection(graph, min_side_size, seed);
  }
  return RandomBisection(graph, min_side_size, seed);
}

double ComputeCrr(const Network& network, const NodePageMap& page_of) {
  size_t total = 0;
  size_t unsplit = 0;
  for (const auto& e : network.Edges()) {
    ++total;
    auto u = page_of.find(e.from);
    auto v = page_of.find(e.to);
    if (u != page_of.end() && v != page_of.end() && u->second == v->second) {
      ++unsplit;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(unsplit) / total;
}

double CrrUpperBound(const Network& network, size_t page_capacity,
                     size_t per_record_overhead) {
  if (network.NumEdges() == 0) return 1.0;
  std::vector<NodeId> ids = network.NodeIds();
  std::vector<size_t> sizes;
  sizes.reserve(ids.size());
  for (NodeId id : ids) {
    sizes.push_back(RecordSizeOf(id, network.node(id)) +
                    per_record_overhead);
  }
  std::vector<size_t> sorted = sizes;
  std::sort(sorted.begin(), sorted.end());
  // Prefix sums of the smallest records: prefix[k] = bytes of the k
  // smallest records.
  std::vector<size_t> prefix(sorted.size() + 1, 0);
  for (size_t k = 0; k < sorted.size(); ++k) {
    prefix[k + 1] = prefix[k] + sorted[k];
  }
  auto max_coresidents = [&](size_t own_size) -> size_t {
    if (own_size > page_capacity) return 0;
    size_t budget = page_capacity - own_size;
    // Largest k with prefix[k] <= budget. The packing may include the
    // node's own record among the smallest — still a valid upper bound.
    size_t lo = 0, hi = sorted.size();
    while (lo < hi) {
      size_t mid = (lo + hi + 1) / 2;
      if (prefix[mid] <= budget) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };

  double out_bound = 0.0, in_bound = 0.0;
  for (size_t i = 0; i < ids.size(); ++i) {
    size_t k = max_coresidents(sizes[i]);
    const NetworkNode& node = network.node(ids[i]);
    // Distinct successor / predecessor counts (co-residence is what caps
    // unsplit edges, and a neighbor appearing in both lists only needs to
    // be co-paged once).
    out_bound += std::min(node.succ.size(), k);
    in_bound += std::min(node.pred.size(), k);
  }
  double edges = static_cast<double>(network.NumEdges());
  return std::min(1.0, std::min(out_bound, in_bound) / edges);
}

double ComputeWcrr(const Network& network, const NodePageMap& page_of) {
  double total = 0.0;
  double unsplit = 0.0;
  for (const auto& e : network.Edges()) {
    double w = network.EdgeWeight(e.from, e.to);
    total += w;
    auto u = page_of.find(e.from);
    auto v = page_of.find(e.to);
    if (u != page_of.end() && v != page_of.end() && u->second == v->second) {
      unsplit += w;
    }
  }
  return total == 0.0 ? 1.0 : unsplit / total;
}

}  // namespace ccam
