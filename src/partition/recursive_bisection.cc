#include "src/partition/recursive_bisection.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/partition/bisect_internal.h"
#include "src/storage/record.h"

namespace ccam {

namespace {

using partition_internal::Mix64;
using partition_internal::SubsetSeed;
using partition_internal::Subproblem;

/// Read-only state shared by every subproblem of one clustering run. The
/// per-node record sizes are computed exactly once here — previously
/// RecordSizeOf was recomputed in the validity check, in every SubsetBytes
/// call and in every capacity check, three O(degree) walks per node per
/// worklist level.
struct ClusterContext {
  const Network* network = nullptr;
  ClusterOptions options;
  size_t capacity = 0;
  size_t min_pg_size = 0;
  std::unordered_map<NodeId, uint32_t> dense;  // node id -> dense index
  std::vector<size_t> bytes;  // dense index -> record size + overhead

  size_t SubsetBytes(const std::vector<NodeId>& nodes) const {
    size_t total = 0;
    for (NodeId id : nodes) total += bytes[dense.find(id)->second];
    return total;
  }
};

/// Node of the subproblem tree. Interior nodes own their two halves;
/// leaves carry a final page. Pages are collected in left-to-right leaf
/// order, so the page sequence is a pure function of the recursion
/// structure, not of task scheduling.
struct SubproblemNode {
  std::vector<NodeId> page;
  std::unique_ptr<SubproblemNode> left;
  std::unique_ptr<SubproblemNode> right;
};

/// One worklist step (paper Figure 2): returns true when the subproblem
/// fits a page (stored into `slot`); otherwise bisects it into `left` /
/// `right`.
bool BisectStep(const ClusterContext& ctx, Subproblem* sub,
                SubproblemNode* slot, Subproblem* left, Subproblem* right) {
  // A listed subproblem is sized, seeded and paged by its own list,
  // duplicates included; a cut one by its graph's ids and sizes.
  std::vector<NodeId>& nodes = sub->Nodes();
  const size_t bytes =
      sub->graph ? sub->graph->TotalSize() : ctx.SubsetBytes(nodes);
  if (nodes.empty() || bytes <= ctx.capacity) {
    slot->page = std::move(nodes);
    return true;
  }
  if (!sub->graph) {
    sub->graph = PartitionGraph::FromNetwork(
        *ctx.network, nodes, ctx.options.use_access_weights,
        ctx.options.per_record_overhead);
  }
  const PartitionGraph& graph = *sub->graph;
  Bisection bisection =
      TwoWayPartition(graph, ctx.min_pg_size, ctx.options.algorithm,
                      SubsetSeed(ctx.options.seed, nodes));
  const size_t in_b =
      std::count(bisection.side.begin(), bisection.side.end(), true);
  if (in_b == 0 || in_b == graph.NumNodes()) {
    // Defensive fallback: a degenerate split (one empty side) would recurse
    // forever, so split by id order instead.
    std::vector<NodeId> sorted = nodes;
    std::sort(sorted.begin(), sorted.end());
    *left = {{sorted.begin(), sorted.begin() + sorted.size() / 2}, {}};
    *right = {{sorted.begin() + sorted.size() / 2, sorted.end()}, {}};
    return false;
  }
  *right = {{}, graph.Induced(bisection.side)};
  bisection.side.flip();
  *left = {{}, graph.Induced(bisection.side)};
  return false;
}

/// Sequential legacy path: an explicit worklist over the same subproblem
/// tree (same seeds, same leaf order) as the parallel solver.
void SolveSequential(const ClusterContext& ctx, Subproblem root_problem,
                     SubproblemNode* root) {
  std::vector<std::pair<Subproblem, SubproblemNode*>> worklist;
  worklist.emplace_back(std::move(root_problem), root);
  Subproblem left, right;
  while (!worklist.empty()) {
    Subproblem current = std::move(worklist.back().first);
    SubproblemNode* slot = worklist.back().second;
    worklist.pop_back();
    if (BisectStep(ctx, &current, slot, &left, &right)) continue;
    slot->left = std::make_unique<SubproblemNode>();
    slot->right = std::make_unique<SubproblemNode>();
    worklist.emplace_back(std::move(right), slot->right.get());
    worklist.emplace_back(std::move(left), slot->left.get());
  }
}

/// Task-parallel path: every worklist subproblem is an independent task.
/// Each task drills down the left spine of its subtree and offloads right
/// children to the pool; seeds and output positions depend only on
/// subproblem content, so the schedule cannot influence the result.
class ParallelSolver {
 public:
  ParallelSolver(const ClusterContext* ctx, ThreadPool* pool)
      : ctx_(ctx), pool_(pool) {}

  void Spawn(Subproblem sub, SubproblemNode* slot) {
    pool_->Submit([this, sub = std::move(sub), slot]() mutable {
      Run(std::move(sub), slot);
    });
  }

 private:
  void Run(Subproblem sub, SubproblemNode* slot) {
    Subproblem left, right;
    while (!BisectStep(*ctx_, &sub, slot, &left, &right)) {
      slot->left = std::make_unique<SubproblemNode>();
      slot->right = std::make_unique<SubproblemNode>();
      Spawn(std::move(right), slot->right.get());
      sub = std::move(left);
      slot = slot->left.get();
    }
  }

  const ClusterContext* ctx_;
  ThreadPool* pool_;
};

/// Appends the leaf pages of `root` in left-to-right order (iteratively —
/// degenerate splits can make the tree deep).
void CollectPages(SubproblemNode* root,
                  std::vector<std::vector<NodeId>>* out) {
  std::vector<SubproblemNode*> stack{root};
  while (!stack.empty()) {
    SubproblemNode* node = stack.back();
    stack.pop_back();
    if (node->left) {
      stack.push_back(node->right.get());
      stack.push_back(node->left.get());
    } else if (!node->page.empty()) {
      out->push_back(std::move(node->page));
    }
  }
}

/// Below this size the pool cannot pay for itself (per-operation
/// reorganization sets are a handful of pages); both paths produce
/// bit-identical pages, so the gate is a pure performance choice.
constexpr size_t kMinParallelPages = 8;

}  // namespace

Result<std::vector<std::vector<NodeId>>> ClusterNodesIntoPages(
    const Network& network, const std::vector<NodeId>& subset,
    const ClusterOptions& options) {
  ClusterContext ctx;
  ctx.network = &network;
  ctx.options = options;
  ctx.capacity = options.page_capacity;
  const double fill = std::clamp(options.min_fill_fraction, 0.0, 0.5);
  ctx.min_pg_size =
      static_cast<size_t>(static_cast<double>(ctx.capacity) * fill + 0.5);

  // Validity check fused with the one-time record-size precomputation:
  // every record must individually fit on a page.
  ctx.dense.reserve(subset.size() * 2);
  ctx.bytes.reserve(subset.size());
  size_t total_bytes = 0;
  for (NodeId id : subset) {
    if (!network.HasNode(id)) {
      return Status::InvalidArgument("subset node " + std::to_string(id) +
                                     " not in network");
    }
    if (!ctx.dense.emplace(id, static_cast<uint32_t>(ctx.bytes.size()))
             .second) {
      continue;  // duplicate subset entry
    }
    size_t sz =
        RecordSizeOf(id, network.node(id)) + options.per_record_overhead;
    if (sz > ctx.capacity) {
      return Status::NoSpace("record of node " + std::to_string(id) + " (" +
                             std::to_string(sz) +
                             " bytes) exceeds page capacity");
    }
    ctx.bytes.push_back(sz);
    total_bytes += sz;
  }

  SubproblemNode root;
  const int threads = ThreadPool::ResolveThreadCount(options.num_threads);
  if (threads > 1 && total_bytes > kMinParallelPages * ctx.capacity) {
    ThreadPool pool(threads);
    ParallelSolver solver(&ctx, &pool);
    solver.Spawn({subset, {}}, &root);
    pool.WaitIdle();
  } else {
    SolveSequential(ctx, {subset, {}}, &root);
  }

  std::vector<std::vector<NodeId>> pages;
  CollectPages(&root, &pages);
  return pages;
}

int RefinePagesPairwise(const Network& network,
                        std::vector<std::vector<NodeId>>* pages,
                        const ClusterOptions& options, int rounds) {
  const size_t capacity = options.page_capacity;
  const size_t min_pg_size = static_cast<size_t>(
      static_cast<double>(capacity) *
          std::clamp(options.min_fill_fraction, 0.0, 0.5) +
      0.5);
  const uint64_t seed_base = Mix64(options.seed ^ 0x9e3779b97f4a7c15ULL);

  // One-time dense node index, record sizes and CSR successor lists; the
  // per-round work is flat array scans from here on.
  const std::vector<NodeId> ids = network.NodeIds();
  const size_t n = ids.size();
  std::unordered_map<NodeId, uint32_t> dense;
  dense.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) dense.emplace(ids[i], static_cast<uint32_t>(i));
  std::vector<size_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] =
        RecordSizeOf(ids[i], network.node(ids[i])) + options.per_record_overhead;
  }
  std::vector<uint32_t> succ_start(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (const AdjEntry& e : network.node(ids[i]).succ) {
      if (dense.count(e.node)) ++succ_start[i + 1];
    }
  }
  for (size_t i = 0; i < n; ++i) succ_start[i + 1] += succ_start[i];
  std::vector<uint32_t> succ_to(succ_start[n]);
  {
    std::vector<uint32_t> cursor(succ_start.begin(), succ_start.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      for (const AdjEntry& e : network.node(ids[i]).succ) {
        auto it = dense.find(e.node);
        if (it != dense.end()) succ_to[cursor[i]++] = it->second;
      }
    }
  }

  // Incrementally maintained node -> page assignment, replacing the hash
  // map that used to be rebuilt from scratch every round.
  std::vector<int32_t> page_of(n, -1);
  for (size_t p = 0; p < pages->size(); ++p) {
    for (NodeId id : (*pages)[p]) {
      auto it = dense.find(id);
      if (it != dense.end()) page_of[it->second] = static_cast<int32_t>(p);
    }
  }

  // Split edges between two node sets, counted on the pair's own successor
  // lists only (previously an induced pair subnetwork was materialized and
  // *all* network edges scanned per candidate pair).
  auto count_split = [&](const std::vector<NodeId>& sa,
                         const std::vector<NodeId>& sb) -> size_t {
    std::unordered_map<uint32_t, char> side;
    side.reserve((sa.size() + sb.size()) * 2);
    for (NodeId id : sa) side.emplace(dense.find(id)->second, 0);
    for (NodeId id : sb) side.emplace(dense.find(id)->second, 1);
    size_t split = 0;
    for (const auto& [u, s] : side) {
      for (uint32_t k = succ_start[u]; k < succ_start[u + 1]; ++k) {
        auto it = side.find(succ_to[k]);
        if (it != side.end() && it->second != s) ++split;
      }
    }
    return split;
  };

  // Re-partitions the union of pages a and b; returns true (and installs
  // the new halves) when the split-edge count strictly improves. Touches
  // only pages[a], pages[b] and the page_of entries of their nodes, so
  // pair-disjoint refinements are independent.
  auto refine_pair = [&](int a, int b) -> bool {
    const std::vector<NodeId>& pa = (*pages)[a];
    const std::vector<NodeId>& pb = (*pages)[b];
    std::vector<NodeId> merged;
    merged.reserve(pa.size() + pb.size());
    merged.insert(merged.end(), pa.begin(), pa.end());
    merged.insert(merged.end(), pb.begin(), pb.end());

    const size_t before_split = count_split(pa, pb);
    PartitionGraph graph = PartitionGraph::FromNetwork(
        network, merged, options.use_access_weights,
        options.per_record_overhead);
    Bisection bisection = TwoWayPartition(graph, min_pg_size,
                                          options.algorithm,
                                          SubsetSeed(seed_base, merged));
    std::vector<NodeId> side_a, side_b;
    for (size_t i = 0; i < graph.NumNodes(); ++i) {
      (bisection.side[i] ? side_b : side_a).push_back(graph.ids[i]);
    }
    if (side_a.empty() || side_b.empty()) return false;
    // Respect page capacity.
    auto subset_bytes = [&](const std::vector<NodeId>& nodes) {
      size_t total = 0;
      for (NodeId id : nodes) total += bytes[dense.find(id)->second];
      return total;
    };
    if (subset_bytes(side_a) > capacity || subset_bytes(side_b) > capacity) {
      return false;
    }
    if (count_split(side_a, side_b) >= before_split) return false;
    for (NodeId id : side_a) page_of[dense.find(id)->second] = a;
    for (NodeId id : side_b) page_of[dense.find(id)->second] = b;
    (*pages)[a] = std::move(side_a);
    (*pages)[b] = std::move(side_b);
    return true;
  };

  const int threads = ThreadPool::ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> pool;  // created on the first parallel batch

  int improved_total = 0;
  for (int round = 0; round < rounds; ++round) {
    // Connected page pairs, collected into a sorted vector: refinement
    // order no longer depends on std::unordered_set hash iteration.
    std::vector<uint64_t> pairs;
    for (uint32_t u = 0; u < n; ++u) {
      const int32_t a = page_of[u];
      if (a < 0) continue;
      for (uint32_t k = succ_start[u]; k < succ_start[u + 1]; ++k) {
        const int32_t b = page_of[succ_to[k]];
        if (b < 0 || b == a) continue;
        const uint64_t lo = static_cast<uint64_t>(std::min(a, b));
        const uint64_t hi = static_cast<uint64_t>(std::max(a, b));
        pairs.push_back((lo << 32) | hi);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

    // Peel maximal pair-disjoint matchings off the sorted pair list; the
    // pairs of one batch share no page, so their refinements commute and
    // can run concurrently without changing the result.
    int improved = 0;
    std::vector<uint64_t> remaining = std::move(pairs);
    std::vector<char> used(pages->size(), 0);
    while (!remaining.empty()) {
      std::fill(used.begin(), used.end(), 0);
      std::vector<std::pair<int, int>> batch;
      std::vector<uint64_t> deferred;
      for (uint64_t key : remaining) {
        const int a = static_cast<int>(key >> 32);
        const int b = static_cast<int>(key & 0xffffffffu);
        if (used[a] || used[b]) {
          deferred.push_back(key);
          continue;
        }
        used[a] = used[b] = 1;
        batch.emplace_back(a, b);
      }
      remaining = std::move(deferred);

      std::vector<char> batch_improved(batch.size(), 0);
      if (threads > 1 && batch.size() > 1) {
        if (!pool) pool = std::make_unique<ThreadPool>(threads);
        for (size_t i = 0; i < batch.size(); ++i) {
          pool->Submit([&, i] {
            batch_improved[i] = refine_pair(batch[i].first, batch[i].second);
          });
        }
        pool->WaitIdle();
      } else {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch_improved[i] = refine_pair(batch[i].first, batch[i].second);
        }
      }
      for (char c : batch_improved) improved += c;
    }
    improved_total += improved;
    if (improved == 0) break;
  }
  return improved_total;
}

}  // namespace ccam
