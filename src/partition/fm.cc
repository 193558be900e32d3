#include <utility>
#include <vector>

#include "src/partition/bisect_internal.h"

namespace ccam {

namespace {

using partition_internal::BfsSeed;
using partition_internal::GainHeap;
using partition_internal::MoveGain;

/// One Fiduccia–Mattheyses pass: tentatively moves every node at most once
/// in descending gain order (subject to the minimum side size), then keeps
/// the best prefix. Returns true if the pass improved the cut.
bool FmPass(const PartitionGraph& graph, std::vector<bool>* side,
            size_t* size_a, size_t* size_b, size_t min_side_size) {
  const size_t n = graph.NumNodes();
  std::vector<double> initial(n);
  for (size_t i = 0; i < n; ++i) {
    initial[i] = MoveGain(graph, *side, static_cast<int>(i));
  }
  GainHeap pq(std::move(initial));
  std::vector<bool> locked(n, false);

  std::vector<int> moves;
  moves.reserve(n);
  double cumulative = 0.0;
  double best = 0.0;
  size_t best_len = 0;

  size_t a = *size_a, b = *size_b;
  // Moving i must leave its source side with at least min_side_size bytes
  // (and at least one node implicitly, because sizes are positive).
  auto feasible = [&](int i) {
    size_t source = (*side)[i] ? b : a;
    return source >= graph.node_sizes[i] &&
           source - graph.node_sizes[i] >= min_side_size;
  };
  while (true) {
    const int chosen = pq.BestFeasible(feasible);
    if (chosen < 0) break;
    pq.Remove(chosen);
    locked[chosen] = true;
    // Apply tentatively.
    bool from_b = (*side)[chosen];
    if (from_b) {
      b -= graph.node_sizes[chosen];
      a += graph.node_sizes[chosen];
    } else {
      a -= graph.node_sizes[chosen];
      b += graph.node_sizes[chosen];
    }
    (*side)[chosen] = !from_b;
    cumulative += pq.gain(chosen);
    moves.push_back(chosen);
    if (cumulative > best + 1e-12) {
      best = cumulative;
      best_len = moves.size();
    }
    // Update the gains of unlocked neighbors.
    for (const PartitionGraph::Adj& e : graph.Neighbors(chosen)) {
      if (!locked[e.to]) pq.Update(e.to, MoveGain(graph, *side, e.to));
    }
  }

  // Roll back moves beyond the best prefix.
  for (size_t k = moves.size(); k > best_len; --k) {
    int i = moves[k - 1];
    bool from_b = (*side)[i];
    if (from_b) {
      b -= graph.node_sizes[i];
      a += graph.node_sizes[i];
    } else {
      a -= graph.node_sizes[i];
      b += graph.node_sizes[i];
    }
    (*side)[i] = !from_b;
  }
  *size_a = a;
  *size_b = b;
  return best > 1e-12;
}

}  // namespace

Bisection FmBisect(const PartitionGraph& graph, size_t min_side_size,
                   uint64_t seed) {
  Bisection result;
  const size_t n = graph.NumNodes();
  if (n == 0) return result;
  size_t total = graph.TotalSize();
  result.side = BfsSeed(graph, total / 2, seed);
  SideSizes(graph, result.side, &result.size_a, &result.size_b);

  const int kMaxPasses = 16;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    if (!FmPass(graph, &result.side, &result.size_a, &result.size_b,
                min_side_size)) {
      break;
    }
  }
  result.cut_weight = CutWeight(graph, result.side);
  return result;
}

}  // namespace ccam
