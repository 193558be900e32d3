#include "src/query/hierarchy.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/request_context.h"
#include "src/storage/hierarchy_record.h"

namespace ccam {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct HeapEntry {
  double dist;
  NodeId node;
  bool operator>(const HeapEntry& o) const {
    // Deterministic pop order under cost ties.
    return dist != o.dist ? dist > o.dist : node > o.node;
  }
};

using MinQueue = std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                                     std::greater<HeapEntry>>;

/// Per-direction search state. CH searches settle few nodes (the upward
/// cones of src and dst), so hash maps with lazy-deletion queues suffice.
struct Direction {
  MinQueue open;
  std::unordered_map<NodeId, double> dist;
  /// dist-optimal predecessor arc: the neighbor the node was reached from
  /// and the shortcut's middle node (kInvalidNodeId for an original edge).
  struct ParentArc {
    NodeId from = kInvalidNodeId;
    NodeId via = kInvalidNodeId;
  };
  std::unordered_map<NodeId, ParentArc> parent;
  std::unordered_map<NodeId, bool> settled;
};

/// One query's view of the overlay: records fetched at most once, so the
/// charged page accesses reflect distinct record touches, not relaxations.
class RecordCache {
 public:
  explicit RecordCache(AccessMethod* am) : am_(am) {}

  Result<const HierarchyNodeRecord*> Get(NodeId id) {
    auto it = cache_.find(id);
    if (it == cache_.end()) {
      HierarchyNodeRecord rec;
      CCAM_ASSIGN_OR_RETURN(rec, am_->HierarchyNode(id));
      it = cache_.emplace(id, std::move(rec)).first;
    }
    return &it->second;
  }

 private:
  AccessMethod* am_;
  std::unordered_map<NodeId, HierarchyNodeRecord> cache_;
};

/// Expands one shortcut path segment into the original-edge node sequence.
/// Arcs always connect through a *lower*-ranked middle node, so the
/// recursion (made explicit to survive deep hierarchies) terminates.
/// Emits the nodes strictly after `u`, up to and including `v`.
Status UnpackArc(RecordCache* cache, NodeId u, NodeId v, NodeId via,
                 std::vector<NodeId>* out) {
  struct Seg {
    NodeId u, v, via;
  };
  std::vector<Seg> stack{{u, v, via}};
  while (!stack.empty()) {
    Seg seg = stack.back();
    stack.pop_back();
    if (seg.via == kInvalidNodeId) {
      out->push_back(seg.v);
      continue;
    }
    // The shortcut u->v bypasses `via`: its halves are the incoming arc
    // u->via and the outgoing arc via->v, both stored on via's record.
    const HierarchyNodeRecord* mid;
    CCAM_ASSIGN_OR_RETURN(mid, cache->Get(seg.via));
    HierarchyArc first, second;
    CCAM_ASSIGN_OR_RETURN(first, mid->DownArcFrom(seg.u));
    CCAM_ASSIGN_OR_RETURN(second, mid->UpArcTo(seg.v));
    // LIFO: push the right half first so the left half unpacks first.
    stack.push_back({seg.via, seg.v, second.via});
    stack.push_back({seg.u, seg.via, first.via});
  }
  return Status::OK();
}

}  // namespace

Result<SearchResult> ShortestPathCH(AccessMethod* am, NodeId src,
                                    NodeId dst) {
  if (!am->HasHierarchy()) {
    return Status::NotSupported("access method has no hierarchy overlay");
  }
  SearchResult result;
  QuerySpan span(am->metrics(), "query.hierarchy");
  MetricCounter* m_settled = nullptr;
  MetricCounter* m_relaxed = nullptr;
  if (MetricsRegistry* reg = am->metrics(); reg != nullptr) {
    m_settled = reg->GetCounter("query.hierarchy.settled");
    m_relaxed = reg->GetCounter("query.hierarchy.relaxed");
  }
  uint64_t relaxed = 0;
  IoStats data_before = am->DataIoStats();
  IoStats hier_before = am->HierarchyIoStats();
  RecordCache cache(am);

  // Validates both endpoints exist (and warms the cache with them).
  CCAM_RETURN_NOT_OK(cache.Get(src).status());
  CCAM_RETURN_NOT_OK(cache.Get(dst).status());

  auto finish = [&](Result<SearchResult> r) {
    if (m_settled != nullptr && result.nodes_expanded > 0) {
      m_settled->Inc(result.nodes_expanded);
    }
    if (m_relaxed != nullptr && relaxed > 0) m_relaxed->Inc(relaxed);
    if (r.ok()) {
      r->page_accesses = (am->DataIoStats() - data_before).Accesses() +
                         (am->HierarchyIoStats() - hier_before).Accesses();
    }
    return r;
  };

  if (src == dst) {
    result.path = {src};
    return finish(result);
  }

  Direction fwd, bwd;
  fwd.dist[src] = 0.0;
  fwd.open.push({0.0, src});
  bwd.dist[dst] = 0.0;
  bwd.open.push({0.0, dst});

  double best = kInf;
  NodeId meet = kInvalidNodeId;

  // Alternate directions; a direction stops once its queue minimum cannot
  // improve the best meeting found so far, and the search ends when both
  // have stopped (the standard CH termination — NOT Dijkstra's, because
  // the meeting node need not be settled by either side).
  bool forward_turn = true;
  RequestContext* ctx = am->request_context();
  while (!fwd.open.empty() || !bwd.open.empty()) {
    if (ctx != nullptr) {
      Status lifecycle = ctx->Check();
      if (!lifecycle.ok()) return finish(std::move(lifecycle));
    }
    Direction* dir = forward_turn ? &fwd : &bwd;
    Direction* other = forward_turn ? &bwd : &fwd;
    if (dir->open.empty() || dir->open.top().dist >= best) {
      if (other->open.empty() || other->open.top().dist >= best) break;
      forward_turn = !forward_turn;
      continue;
    }
    HeapEntry top = dir->open.top();
    dir->open.pop();
    if (dir->settled[top.node]) continue;  // lazy deletion
    dir->settled[top.node] = true;
    ++result.nodes_expanded;

    auto o = other->dist.find(top.node);
    if (o != other->dist.end() && top.dist + o->second < best) {
      best = top.dist + o->second;
      meet = top.node;
    }

    const HierarchyNodeRecord* rec;
    {
      auto r = cache.Get(top.node);
      if (!r.ok()) return finish(r.status());
      rec = *r;
    }
    const std::vector<HierarchyArc>& arcs =
        forward_turn ? rec->up : rec->down;
    for (const HierarchyArc& arc : arcs) {
      ++relaxed;
      double nd = top.dist + arc.cost;
      auto it = dir->dist.find(arc.node);
      if (it == dir->dist.end() || nd < it->second) {
        dir->dist[arc.node] = nd;
        dir->parent[arc.node] = {top.node, arc.via};
        dir->open.push({nd, arc.node});
      }
    }
    forward_turn = !forward_turn;
  }

  if (meet == kInvalidNodeId) return finish(result);  // unreachable

  // Walk the parent chains off the meeting node, then unpack each shortcut
  // into original edges so the returned path matches Dijkstra's exactly.
  std::vector<std::pair<NodeId, NodeId>> up_arcs;  // (from, via), src..meet
  for (NodeId cur = meet; cur != src;) {
    const Direction::ParentArc& pa = fwd.parent.at(cur);
    up_arcs.emplace_back(cur, pa.via);
    cur = pa.from;
  }
  std::reverse(up_arcs.begin(), up_arcs.end());

  result.cost = best;
  result.path.push_back(src);
  NodeId prev = src;
  for (const auto& [node, via] : up_arcs) {
    Status s = UnpackArc(&cache, prev, node, via, &result.path);
    if (!s.ok()) return finish(std::move(s));
    prev = node;
  }
  for (NodeId cur = meet; cur != dst;) {
    const Direction::ParentArc& pa = bwd.parent.at(cur);
    // Backward arcs run cur -> pa.from in the original direction.
    Status s = UnpackArc(&cache, cur, pa.from, pa.via, &result.path);
    if (!s.ok()) return finish(std::move(s));
    cur = pa.from;
  }
  return finish(result);
}

}  // namespace ccam
