#ifndef CCAM_PARTITION_BISECT_INTERNAL_H_
#define CCAM_PARTITION_BISECT_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/partition/partition.h"

namespace ccam {
namespace partition_internal {

/// Shared helpers for the two-way partitioners and the two recursions that
/// drive them (recursive bisection and nested dissection). Internal to
/// src/partition.

/// Splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Seed for the bisection of `nodes`, derived from the subproblem's node
/// content. A subproblem's node sequence is itself a deterministic function
/// of the recursion's input, so content-derived seeds make the output
/// bit-identical for 1 vs N threads; a shared `seed++` counter would hand
/// out seeds in task-completion order instead.
inline uint64_t SubsetSeed(uint64_t base, const std::vector<NodeId>& nodes) {
  uint64_t h = Mix64(base ^ static_cast<uint64_t>(nodes.size()));
  for (NodeId id : nodes) h = Mix64(h ^ id);
  return h;
}

/// One subproblem of a recursion. The root and the id-sorted fallback
/// halves arrive as node lists and build their graph from the network only
/// if they must be split; every other subproblem arrives as the graph cut
/// from its parent's (PartitionGraph::Induced), whose ids are its node
/// list.
struct Subproblem {
  std::vector<NodeId> nodes;
  std::optional<PartitionGraph> graph;

  /// The node list: the listed one, or the cut graph's ids.
  std::vector<NodeId>& Nodes() { return graph ? graph->ids : nodes; }
};

/// Greedy BFS seed: grows side A from a random start node until it holds
/// roughly `target_a` bytes; produces contiguous (low-cut) initial sides on
/// planar road networks. Falls back to arbitrary fill for disconnected
/// remainders.
std::vector<bool> BfsSeed(const PartitionGraph& graph, size_t target_a,
                          uint64_t seed);

/// Gain of moving node i to the other side: (weight to other side) -
/// (weight to own side). Positive gain reduces the cut.
double MoveGain(const PartitionGraph& graph, const std::vector<bool>& side,
                int i);

/// Indexed binary max-heap over (gain, index) pairs, one entry per node of
/// a pass: the move queue of FmPass and RatioCutPass. The order is strict
/// (indices are unique), so which node is best never depends on the heap's
/// shape, and a gain update is one sift.
class GainHeap {
 public:
  /// Queues every node i with gain `gains[i]`.
  explicit GainHeap(std::vector<double> gains)
      : gain_(std::move(gains)), heap_(gain_.size()), pos_(gain_.size()) {
    for (size_t p = 0; p < heap_.size(); ++p) {
      heap_[p] = static_cast<int>(p);
      pos_[p] = p;
    }
    for (size_t p = heap_.size() / 2; p-- > 0;) SiftDown(p);
  }

  double gain(int i) const { return gain_[i]; }

  /// The highest (gain, index) among queued nodes i with `feasible(i)`, or
  /// -1 when none is. Infeasible entries are skipped and stay queued. Every
  /// child is below its parent, so expanding the highest open position
  /// first visits the entries in exactly descending (gain, index) order,
  /// and the first feasible one is the answer.
  template <typename Feasible>
  int BestFeasible(Feasible feasible) {
    if (heap_.empty()) return -1;
    if (feasible(heap_[0])) return heap_[0];
    auto lower = [this](size_t p, size_t q) {
      return Below(heap_[p], heap_[q]);
    };
    walk_.assign(1, 0);
    while (!walk_.empty()) {
      std::pop_heap(walk_.begin(), walk_.end(), lower);
      const size_t p = walk_.back();
      walk_.pop_back();
      if (feasible(heap_[p])) return heap_[p];
      for (size_t c = 2 * p + 1; c <= 2 * p + 2 && c < heap_.size(); ++c) {
        walk_.push_back(c);
        std::push_heap(walk_.begin(), walk_.end(), lower);
      }
    }
    return -1;
  }

  /// Dequeues queued node i.
  void Remove(int i) {
    const size_t p = pos_[i];
    const int last = heap_.back();
    heap_.pop_back();
    if (last == i) return;
    heap_[p] = last;
    pos_[last] = p;
    Restore(p);
  }

  /// Sets the gain of queued node i.
  void Update(int i, double gain) {
    gain_[i] = gain;
    Restore(pos_[i]);
  }

 private:
  bool Below(int i, int j) const {
    return gain_[i] != gain_[j] ? gain_[i] < gain_[j] : i < j;
  }

  void Restore(size_t p) {
    if (p > 0 && Below(heap_[(p - 1) / 2], heap_[p])) {
      SiftUp(p);
    } else {
      SiftDown(p);
    }
  }

  void SiftUp(size_t p) {
    const int i = heap_[p];
    while (p > 0 && Below(heap_[(p - 1) / 2], i)) {
      heap_[p] = heap_[(p - 1) / 2];
      pos_[heap_[p]] = p;
      p = (p - 1) / 2;
    }
    heap_[p] = i;
    pos_[i] = p;
  }

  void SiftDown(size_t p) {
    const int i = heap_[p];
    for (size_t c = 2 * p + 1; c < heap_.size(); c = 2 * p + 1) {
      if (c + 1 < heap_.size() && Below(heap_[c], heap_[c + 1])) ++c;
      if (!Below(i, heap_[c])) break;
      heap_[p] = heap_[c];
      pos_[heap_[p]] = p;
      p = c;
    }
    heap_[p] = i;
    pos_[i] = p;
  }

  std::vector<double> gain_;  // node -> gain
  std::vector<int> heap_;     // heap position -> node
  std::vector<size_t> pos_;   // node -> heap position, while queued
  std::vector<size_t> walk_;  // BestFeasible's open positions
};

}  // namespace partition_internal

/// Two-way partitioners (definitions in kl.cc / fm.cc / ratio_cut.cc).
Bisection KlBisect(const PartitionGraph& graph, size_t min_side_size,
                   uint64_t seed);
Bisection FmBisect(const PartitionGraph& graph, size_t min_side_size,
                   uint64_t seed);
Bisection RatioCutBisect(const PartitionGraph& graph, size_t min_side_size,
                         uint64_t seed);

}  // namespace ccam

#endif  // CCAM_PARTITION_BISECT_INTERNAL_H_
