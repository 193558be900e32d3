#include "src/partition/nested_dissection.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/partition/bisect_internal.h"

namespace ccam {

namespace {

using partition_internal::SubsetSeed;
using partition_internal::Subproblem;

struct DissectContext {
  const Network* network = nullptr;
  NestedDissectionOptions options;
};

/// Node of the dissection tree. Interior nodes own their two halves and the
/// separator between them; leaves carry a terminal subset ordered by id.
/// The order is collected left half, right half, separator — a pure
/// function of the recursion structure, not of task scheduling.
struct DissectNode {
  std::vector<NodeId> leaf;
  std::vector<NodeId> separator;
  std::unique_ptr<DissectNode> left;
  std::unique_ptr<DissectNode> right;
};

/// One dissection step: returns true when the subproblem terminates as a
/// leaf (stored into `slot`); otherwise fills `slot->separator` and the two
/// separator-free halves `left` / `right`.
bool DissectStep(const DissectContext& ctx, Subproblem* sub,
                 DissectNode* slot, Subproblem* left, Subproblem* right) {
  std::vector<NodeId>& nodes = sub->Nodes();
  if (nodes.size() <= ctx.options.leaf_size) {
    slot->leaf = std::move(nodes);
    std::sort(slot->leaf.begin(), slot->leaf.end());
    return true;
  }
  if (!sub->graph) {
    sub->graph = PartitionGraph::FromNetwork(*ctx.network, nodes,
                                             /*use_access_weights=*/false);
  }
  const PartitionGraph& graph = *sub->graph;
  Bisection bisection = TwoWayPartition(
      graph, graph.TotalSize() / 4, ctx.options.algorithm,
      SubsetSeed(ctx.options.seed, nodes));
  slot->separator.clear();
  const size_t in_b =
      std::count(bisection.side.begin(), bisection.side.end(), true);
  if (in_b == 0 || in_b == bisection.side.size()) {
    // Degenerate split (one empty side) would recurse forever: fall back to
    // an id-ordered halving with no separator.
    std::vector<NodeId> sorted = nodes;
    std::sort(sorted.begin(), sorted.end());
    *left = {{sorted.begin(), sorted.begin() + sorted.size() / 2}, {}};
    *right = {{sorted.begin() + sorted.size() / 2, sorted.end()}, {}};
    return false;
  }
  // Vertex separator: the side-B endpoints of cut edges. Removing it
  // disconnects the halves, so no shortcut ever needs to cross between
  // them below the separator's ranks.
  std::vector<bool> keep_right(graph.NumNodes(), false);
  for (size_t i = 0; i < graph.NumNodes(); ++i) {
    if (!bisection.side[i]) continue;
    bool boundary = false;
    for (const PartitionGraph::Adj& a : graph.Neighbors(static_cast<int>(i))) {
      if (!bisection.side[a.to]) {
        boundary = true;
        break;
      }
    }
    if (boundary) {
      slot->separator.push_back(graph.ids[i]);
    } else {
      keep_right[i] = true;
    }
  }
  std::sort(slot->separator.begin(), slot->separator.end());
  *right = {{}, graph.Induced(keep_right)};
  bisection.side.flip();
  *left = {{}, graph.Induced(bisection.side)};
  return false;
}

/// Sequential path: an explicit worklist over the same dissection tree
/// (same seeds, same collection order) as the parallel solver.
void SolveSequential(const DissectContext& ctx, Subproblem root_problem,
                     DissectNode* root) {
  std::vector<std::pair<Subproblem, DissectNode*>> worklist;
  worklist.emplace_back(std::move(root_problem), root);
  Subproblem left, right;
  while (!worklist.empty()) {
    Subproblem current = std::move(worklist.back().first);
    DissectNode* slot = worklist.back().second;
    worklist.pop_back();
    if (DissectStep(ctx, &current, slot, &left, &right)) continue;
    slot->left = std::make_unique<DissectNode>();
    slot->right = std::make_unique<DissectNode>();
    worklist.emplace_back(std::move(right), slot->right.get());
    worklist.emplace_back(std::move(left), slot->left.get());
  }
}

/// Task-parallel path: each task drills down the left spine of its subtree
/// and offloads right children to the pool. Seeds and output positions
/// depend only on subproblem content, so the schedule cannot influence the
/// resulting order.
class ParallelSolver {
 public:
  ParallelSolver(const DissectContext* ctx, ThreadPool* pool)
      : ctx_(ctx), pool_(pool) {}

  void Spawn(Subproblem sub, DissectNode* slot) {
    pool_->Submit([this, sub = std::move(sub), slot]() mutable {
      Run(std::move(sub), slot);
    });
  }

 private:
  void Run(Subproblem sub, DissectNode* slot) {
    Subproblem left, right;
    while (!DissectStep(*ctx_, &sub, slot, &left, &right)) {
      slot->left = std::make_unique<DissectNode>();
      slot->right = std::make_unique<DissectNode>();
      Spawn(std::move(right), slot->right.get());
      sub = std::move(left);
      slot = slot->left.get();
    }
  }

  const DissectContext* ctx_;
  ThreadPool* pool_;
};

/// Appends the order of `root` iteratively: left subtree, right subtree,
/// separator (post-order, so every separator outranks both halves).
void CollectOrder(DissectNode* root, std::vector<NodeId>* out) {
  struct Frame {
    DissectNode* node;
    bool expanded;
  };
  std::vector<Frame> stack{{root, false}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    DissectNode* node = frame.node;
    if (!node->left) {
      out->insert(out->end(), node->leaf.begin(), node->leaf.end());
      continue;
    }
    if (frame.expanded) {
      out->insert(out->end(), node->separator.begin(), node->separator.end());
      continue;
    }
    stack.push_back({node, true});
    stack.push_back({node->right.get(), false});
    stack.push_back({node->left.get(), false});
  }
}

/// Below this size the pool cannot pay for itself; both paths produce the
/// identical order, so the gate is a pure performance choice.
constexpr size_t kMinParallelNodes = 512;

}  // namespace

Result<std::vector<NodeId>> NestedDissectionOrder(
    const Network& network, const std::vector<NodeId>& subset,
    const NestedDissectionOptions& options) {
  std::vector<NodeId> nodes;
  nodes.reserve(subset.size());
  for (NodeId id : subset) {
    if (!network.HasNode(id)) {
      return Status::InvalidArgument("subset node " + std::to_string(id) +
                                     " not in network");
    }
    nodes.push_back(id);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  DissectContext ctx;
  ctx.network = &network;
  ctx.options = options;
  if (ctx.options.leaf_size == 0) ctx.options.leaf_size = 1;

  DissectNode root;
  const size_t n = nodes.size();
  const int threads = ThreadPool::ResolveThreadCount(options.num_threads);
  if (threads > 1 && n >= kMinParallelNodes) {
    ThreadPool pool(threads);
    ParallelSolver solver(&ctx, &pool);
    solver.Spawn({std::move(nodes), {}}, &root);
    pool.WaitIdle();
  } else {
    SolveSequential(ctx, {std::move(nodes), {}}, &root);
  }

  std::vector<NodeId> order;
  order.reserve(n);
  CollectOrder(&root, &order);
  return order;
}

}  // namespace ccam
