#include <utility>
#include <vector>

#include "src/partition/bisect_internal.h"

namespace ccam {

namespace {

using partition_internal::BfsSeed;
using partition_internal::GainHeap;
using partition_internal::MoveGain;

/// Ratio-cut objective (Cheng & Wei): cut / (|A| * |B|), with side sizes in
/// bytes. Smaller is better; the denominator rewards balanced, natural
/// cluster boundaries without forcing exact bisection — which is why the
/// paper adopts it for packing variable-size records into pages.
double Ratio(double cut, size_t size_a, size_t size_b) {
  if (size_a == 0 || size_b == 0) return 1e300;
  return cut / (static_cast<double>(size_a) * static_cast<double>(size_b));
}

/// One improvement pass in the style of Cheng & Wei's iterative shifting:
/// tentatively move the highest-gain feasible node (each node at most once
/// per pass, both sides kept at or above min_side_size), score every
/// applied prefix by the resulting ratio, keep the best prefix and roll
/// back the rest. Returns true if the ratio improved.
///
/// Each step moves the node of highest (cut gain, index) whose move keeps
/// its source side at or above min_side_size, taken from the GainHeap that
/// FmPass uses too; a neighbor's gain update is one sift. Scoring every
/// candidate by the ratio it would leave costs O(n) per step, O(n^2) per
/// pass, which made the *root* bisection dominate cluster-nodes-into-pages
/// on large networks and put a hard Amdahl ceiling on the task-parallel
/// clustering pipeline. The ratio objective still decides which prefix
/// survives, so balanced natural cuts win as before, at O((n + m) log n)
/// per pass plus the infeasible entries each step walks past.
bool RatioCutPass(const PartitionGraph& graph, std::vector<bool>* side,
                  size_t* size_a, size_t* size_b, size_t min_side_size) {
  const size_t n = graph.NumNodes();
  std::vector<double> initial(n);
  for (size_t i = 0; i < n; ++i) {
    initial[i] = MoveGain(graph, *side, static_cast<int>(i));
  }
  GainHeap pq(std::move(initial));
  std::vector<bool> locked(n, false);
  double cut = CutWeight(graph, *side);
  size_t a = *size_a, b = *size_b;
  const double initial_ratio = Ratio(cut, a, b);
  double best_ratio = initial_ratio;
  size_t best_len = 0;

  std::vector<int> moves;
  moves.reserve(n);

  // Highest-gain move whose source side keeps min_side_size bytes.
  auto feasible = [&](int i) {
    size_t sz = graph.node_sizes[i];
    size_t source = (*side)[i] ? b : a;
    return source >= sz && source - sz >= min_side_size;
  };
  while (true) {
    const int chosen = pq.BestFeasible(feasible);
    if (chosen < 0) break;
    pq.Remove(chosen);

    // Apply tentatively.
    locked[chosen] = true;
    size_t sz = graph.node_sizes[chosen];
    if ((*side)[chosen]) {
      b -= sz;
      a += sz;
    } else {
      a -= sz;
      b += sz;
    }
    (*side)[chosen] = !(*side)[chosen];
    cut -= pq.gain(chosen);
    moves.push_back(chosen);
    double r = Ratio(cut, a, b);
    if (r < best_ratio - 1e-18) {
      best_ratio = r;
      best_len = moves.size();
    }
    // Moving `chosen` flips the sign of its contribution to each neighbor's
    // gain: a same-side edge became cross-side or vice versa.
    for (const PartitionGraph::Adj& e : graph.Neighbors(chosen)) {
      if (!locked[e.to]) pq.Update(e.to, MoveGain(graph, *side, e.to));
    }
  }

  // Roll back past the best prefix.
  for (size_t k = moves.size(); k > best_len; --k) {
    int i = moves[k - 1];
    size_t sz = graph.node_sizes[i];
    if ((*side)[i]) {
      b -= sz;
      a += sz;
    } else {
      a -= sz;
      b += sz;
    }
    (*side)[i] = !(*side)[i];
  }
  *size_a = a;
  *size_b = b;
  return best_ratio < initial_ratio - 1e-18;
}

}  // namespace

Bisection RatioCutBisect(const PartitionGraph& graph, size_t min_side_size,
                         uint64_t seed) {
  Bisection result;
  const size_t n = graph.NumNodes();
  if (n == 0) return result;
  size_t total = graph.TotalSize();
  result.side = BfsSeed(graph, total / 2, seed);
  SideSizes(graph, result.side, &result.size_a, &result.size_b);

  const int kMaxPasses = 16;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    if (!RatioCutPass(graph, &result.side, &result.size_a, &result.size_b,
                      min_side_size)) {
      break;
    }
  }
  result.cut_weight = CutWeight(graph, result.side);
  return result;
}

}  // namespace ccam
