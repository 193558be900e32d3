#include "src/query/search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/metrics.h"
#include "src/common/request_context.h"

namespace ccam {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Search working set: one dense slot per reached node (g, parent, closed
/// flag) indexed by an open-addressing table, plus a 4-ary heap with
/// decrease-key over the slots. Replaces the former lazy-deletion
/// std::priority_queue and its three per-node unordered_maps: one hash
/// probe per touched node instead of three, no duplicate heap entries, and
/// a shallower, cache-friendlier heap (4-ary beats binary here because
/// sift-down dominates and reads four children from one cache line).
/// Ties on priority settle by ascending node id, so the expansion order —
/// and hence the page-access count — is a pure function of the graph.
class SearchCore {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    NodeId id = kInvalidNodeId;
    uint32_t parent = kNil;    // slot index of the best predecessor
    double g = kInf;
    double priority = kInf;    // g (Dijkstra) or g + h (A*)
    uint32_t heap_pos = kNil;  // kNil when not in the open heap
    bool closed = false;
  };

  /// `expected` sizes the table for the whole node set up front (the
  /// paper-scale searches reach most of it), so searches never rehash.
  explicit SearchCore(size_t expected) {
    size_t cap = 64;
    while (cap < expected * 2) cap <<= 1;
    index_.assign(cap, kNil);
    mask_ = cap - 1;
    slots_.reserve(expected);
    heap_.reserve(expected);
  }

  /// Finds or creates the slot of `id`.
  uint32_t Intern(NodeId id) {
    size_t h = Hash(id);
    while (true) {
      uint32_t s = index_[h];
      if (s == kNil) {
        if ((slots_.size() + 1) * 10 > index_.size() * 7) {
          Grow();
          return Intern(id);
        }
        uint32_t idx = static_cast<uint32_t>(slots_.size());
        slots_.push_back(Slot{});
        slots_.back().id = id;
        index_[h] = idx;
        return idx;
      }
      if (slots_[s].id == id) return s;
      h = (h + 1) & mask_;
    }
  }

  /// The slot of `id`, or kNil when it has none.
  uint32_t Lookup(NodeId id) const {
    for (size_t h = Hash(id);; h = (h + 1) & mask_) {
      uint32_t s = index_[h];
      if (s == kNil || slots_[s].id == id) return s;
    }
  }

  Slot& slot(uint32_t s) { return slots_[s]; }

  bool HeapEmpty() const { return heap_.empty(); }

  /// Inserts `s` or restores heap order after its priority decreased.
  void HeapPushOrDecrease(uint32_t s) {
    if (slots_[s].heap_pos == kNil) {
      slots_[s].heap_pos = static_cast<uint32_t>(heap_.size());
      heap_.push_back(s);
    }
    SiftUp(slots_[s].heap_pos);
  }

  uint32_t HeapPop() {
    uint32_t top = heap_[0];
    slots_[top].heap_pos = kNil;
    uint32_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      slots_[last].heap_pos = 0;
      SiftDown(0);
    }
    return top;
  }

  /// Parent-chain walk from the slot of `dst` back to a root slot.
  std::vector<NodeId> ReconstructPath(uint32_t dst_slot) const {
    std::vector<NodeId> path;
    for (uint32_t s = dst_slot; s != kNil; s = slots_[s].parent) {
      path.push_back(slots_[s].id);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

 private:
  bool Less(uint32_t a, uint32_t b) const {
    const Slot& x = slots_[a];
    const Slot& y = slots_[b];
    return x.priority != y.priority ? x.priority < y.priority : x.id < y.id;
  }

  void SiftUp(size_t pos) {
    uint32_t s = heap_[pos];
    while (pos > 0) {
      size_t up = (pos - 1) / 4;
      if (!Less(s, heap_[up])) break;
      heap_[pos] = heap_[up];
      slots_[heap_[pos]].heap_pos = static_cast<uint32_t>(pos);
      pos = up;
    }
    heap_[pos] = s;
    slots_[s].heap_pos = static_cast<uint32_t>(pos);
  }

  void SiftDown(size_t pos) {
    uint32_t s = heap_[pos];
    size_t n = heap_.size();
    while (true) {
      size_t first = pos * 4 + 1;
      if (first >= n) break;
      size_t best = first;
      size_t last = std::min(first + 4, n);
      for (size_t c = first + 1; c < last; ++c) {
        if (Less(heap_[c], heap_[best])) best = c;
      }
      if (!Less(heap_[best], s)) break;
      heap_[pos] = heap_[best];
      slots_[heap_[pos]].heap_pos = static_cast<uint32_t>(pos);
      pos = best;
    }
    heap_[pos] = s;
    slots_[s].heap_pos = static_cast<uint32_t>(pos);
  }

  size_t Hash(NodeId id) const {
    uint64_t x = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(x >> 32) & mask_;
  }

  void Grow() {
    std::vector<uint32_t> old = std::move(index_);
    index_.assign(old.size() * 2, kNil);
    mask_ = index_.size() - 1;
    for (uint32_t s = 0; s < slots_.size(); ++s) {
      size_t h = Hash(slots_[s].id);
      while (index_[h] != kNil) h = (h + 1) & mask_;
      index_[h] = s;
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> index_;  // open addressing, linear probing
  std::vector<uint32_t> heap_;   // 4-ary min-heap of slot indices
  size_t mask_ = 0;
};

/// Resolves the settled/relaxed counters ("query.search.settled" /
/// "query.search.relaxed") once per search; null registry = both null and
/// every site is one pointer test (the zero-overhead contract).
struct SearchCounters {
  explicit SearchCounters(MetricsRegistry* reg) {
    if (reg != nullptr) {
      settled = reg->GetCounter("query.search.settled");
      relaxed = reg->GetCounter("query.search.relaxed");
    }
  }
  ~SearchCounters() {
    if (settled != nullptr && n_settled > 0) settled->Inc(n_settled);
    if (relaxed != nullptr && n_relaxed > 0) relaxed->Inc(n_relaxed);
  }
  MetricCounter* settled = nullptr;
  MetricCounter* relaxed = nullptr;
  uint64_t n_settled = 0;
  uint64_t n_relaxed = 0;
};

/// The flat best-first search behind Dijkstra, A* and multi-source
/// Dijkstra. Settles nodes in ascending (priority, node-id) order from
/// `sources` (g = 0), calling `on_settle(slot)` for each, and stops once
/// `target` settles (kInvalidNodeId: when the heap drains). A target is
/// read first, as the heuristic's anchor; `heuristic_weight` < 0 disables
/// the heuristic. Returns the data-page accesses of the whole search.
///
/// Reads each node's record at most once, and a slot exists exactly when
/// its record was read: the target and the sources through Find(), every
/// other node through Get-A-successor() from the node that first reaches
/// it. Its successor list and heuristic are kept from that read, so
/// settling a node reads nothing and closed neighbors are never re-fetched.
///
/// Page harvest: once the search has missed more pages than the pool
/// holds, it can evict its own pages before reaching the other records on
/// them. From then on every read that misses is followed by reading the
/// just-read node's successors that PageMap() places on the same page,
/// transitively, while that page is still buffered; a later first reach
/// of a harvested node reads nothing. A harvest read that fails is
/// dropped (a Cancelled or DeadlineExceeded one also ends the harvest, and
/// the loop's next poll reports it), and one that itself misses ends the
/// harvest: on the sharded facade a halo copy's page is not the page the
/// composed PageMap() names. The harvest changes reads, never the
/// expansion order or the result.
///
/// Read-ahead: the search hints the reads it already knows it will make,
/// so their misses overlap. The target and source Finds go as one hint,
/// and at each settle the unread successors go as one hint before the
/// first of them is read. A hint names only reads the search will make,
/// in the order it makes them, and a run stops before a node that shares
/// its PageMap() page with an earlier node of the run: a harvest after
/// that earlier read may read it first, from another copy. So the pool
/// sees demand order's window, and page accesses equal demand order's.
/// The harvest and the returned count both count misses in demand order:
/// a read whose page any hint loaded (the search's own, or another
/// session's such as the serving layer's admission prefetch) counts that
/// load as its miss (IoStats::ahead_misses), and the search's own loads
/// are not counted again (IoStats::DemandAccesses).
template <typename OnSettle>
Result<uint64_t> BestFirst(AccessMethod* am, const std::vector<NodeId>& sources,
                           NodeId target, double heuristic_weight,
                           SearchCore* core, OnSettle on_settle) {
  QuerySpan span(am->metrics(), "query.search");
  SearchCounters counters(am->metrics());
  const IoStats before = am->DataIoStats();

  // Per slot s (slots are created in read order): its heuristic h[s] and
  // its successor list arcs[first_arc[s], first_arc[s + 1]).
  double tx = 0.0, ty = 0.0;
  std::vector<double> h;
  std::vector<AdjEntry> arcs;
  std::vector<uint32_t> first_arc{0};
  auto keep = [&](const NodeRecord& rec) {
    h.push_back(heuristic_weight < 0.0
                    ? 0.0
                    : heuristic_weight * std::hypot(rec.x - tx, rec.y - ty));
    arcs.insert(arcs.end(), rec.succ.begin(), rec.succ.end());
    first_arc.push_back(static_cast<uint32_t>(arcs.size()));
  };

  const uint64_t pool_pages = am->buffer_pool()->capacity();
  const NodePageMap& page_of = am->PageMap();
  uint64_t loads = 0;  // pages the search's own hints loaded
  uint64_t misses = 0;  // demand-order misses at the last poll
  auto missed = [&] {  // did the reads since the last poll miss the pool?
    const IoStats d = am->DataIoStats() - before;
    const uint64_t fetched = d.reads + d.ahead_misses;
    const uint64_t now = fetched > loads ? fetched - loads : 0;
    bool miss = now != misses;
    misses = now;
    return miss;
  };
  // Hints the reads of the unread nodes among node_at(i..n), each as read
  // from `from`, as one run (see above; at most a pool of distinct pages).
  // Returns the index of the first read the hint does not cover.
  std::vector<ReadHint> run;
  std::vector<size_t> run_at;  // index of each run entry
  std::vector<PageId> run_pages;
  auto read_ahead = [&](NodeId from, size_t i, size_t n, auto node_at) {
    run.clear();
    run_at.clear();
    run_pages.clear();
    size_t j = i;
    for (; j < n; ++j) {
      NodeId w = node_at(j);
      uint32_t s = core->Lookup(w);
      if (s != SearchCore::kNil && s != h.size()) continue;  // already read
      auto page = page_of.find(w);
      if (page != page_of.end()) {
        if (run_pages.size() == pool_pages ||
            std::find(run_pages.begin(), run_pages.end(), page->second) !=
                run_pages.end()) {
          break;
        }
        run_pages.push_back(page->second);
      }
      run.push_back({from, w});
      run_at.push_back(j);
    }
    if (run.size() < 2) return j;  // one read overlaps nothing
    const uint64_t reads = am->DataIoStats().reads;
    const size_t covered = am->ReadAhead(run.data(), run.size());
    loads += am->DataIoStats().reads - reads;
    return covered < run.size() ? run_at[covered] : j;
  };
  auto harvest = [&](uint32_t s) {
    auto page = page_of.find(core->slot(s).id);
    if (page == page_of.end()) return;
    std::vector<uint32_t> todo{s};
    while (!todo.empty()) {
      uint32_t x = todo.back();
      todo.pop_back();
      NodeId from = core->slot(x).id;
      for (uint32_t a = first_arc[x]; a < first_arc[x + 1]; ++a) {
        NodeId w = arcs[a].node;  // by index: keep() may grow `arcs`
        if (core->Lookup(w) != SearchCore::kNil) continue;
        auto wp = page_of.find(w);
        if (wp == page_of.end() || wp->second != page->second) continue;
        Result<NodeRecord> rec = am->GetASuccessor(from, w);
        bool miss = missed();
        if (rec.ok()) {
          todo.push_back(core->Intern(w));
          keep(*rec);
        } else if (rec.status().IsCancelled() ||
                   rec.status().IsDeadlineExceeded()) {
          return;
        }
        if (miss) return;
      }
    }
  };
  // Call after reading the record of the newest slot `s`. A read misses
  // at most one page, so the misses cannot pass the pool's capacity in
  // the next `unpolled` reads and those skip the poll. When a poll first
  // finds them past it, the polled read was itself a miss.
  uint64_t unpolled = pool_pages;
  auto after_read = [&](uint32_t s) {
    if (unpolled > 0) {
      --unpolled;
      return;
    }
    bool miss = missed();
    if (misses <= pool_pages) {
      unpolled = pool_pages - misses;
    } else if (miss) {
      harvest(s);
    }
  };

  std::vector<ReadHint> finds;  // the target first, then the sources
  AppendSearchEndpointHints(target, sources, &finds);
  auto find_at = [&](size_t j) { return finds[j].node; };
  size_t ahead = 0;  // first entry of `finds` no hint covers
  if (target != kInvalidNodeId) {
    ahead = read_ahead(kInvalidNodeId, 0, finds.size(), find_at);
    NodeRecord rec;
    CCAM_ASSIGN_OR_RETURN(rec, am->Find(target));
    tx = rec.x;
    ty = rec.y;
    uint32_t s = core->Intern(target);
    keep(rec);
    after_read(s);
  }
  for (size_t j = finds.size() - sources.size(); j < finds.size(); ++j) {
    NodeId src = finds[j].node;
    uint32_t s = core->Intern(src);
    if (s == h.size()) {
      if (j >= ahead) {
        ahead = read_ahead(kInvalidNodeId, j, finds.size(), find_at);
      }
      NodeRecord rec;
      CCAM_ASSIGN_OR_RETURN(rec, am->Find(src));
      keep(rec);
      after_read(s);
    }
    core->slot(s).g = 0.0;
    core->slot(s).priority = h[s];
    core->HeapPushOrDecrease(s);  // no-op for a duplicate source
  }

  RequestContext* ctx = am->request_context();
  while (!core->HeapEmpty()) {
    if (ctx != nullptr) CCAM_RETURN_NOT_OK(ctx->Check());
    uint32_t cur = core->HeapPop();
    core->slot(cur).closed = true;
    ++counters.n_settled;
    on_settle(cur);
    NodeId node = core->slot(cur).id;
    if (node == target) break;
    double g = core->slot(cur).g;
    const uint32_t last_arc = first_arc[cur + 1];
    auto succ_at = [&](size_t a) { return arcs[a].node; };
    size_t settle_ahead = first_arc[cur];  // first arc no hint covers
    for (uint32_t a = first_arc[cur]; a < last_arc; ++a) {
      AdjEntry arc = arcs[a];  // by value: keep() may grow `arcs`
      uint32_t t = core->Intern(arc.node);
      if (core->slot(t).closed) continue;
      if (t == h.size()) {  // first reach of an unread node
        if (a >= settle_ahead) {
          settle_ahead = read_ahead(node, a, last_arc, succ_at);
        }
        NodeRecord rec;
        CCAM_ASSIGN_OR_RETURN(rec, am->GetASuccessor(node, arc.node));
        keep(rec);
        after_read(t);
      }
      ++counters.n_relaxed;
      // A successor list holds one entry per successor, so the entry's
      // cost is the expanded record's SuccessorCost(arc.node).
      double ng = g + arc.cost;
      SearchCore::Slot& ts = core->slot(t);
      if (ng < ts.g) {
        ts.g = ng;
        ts.parent = cur;
        ts.priority = ng + h[t];
        core->HeapPushOrDecrease(t);
      }
    }
  }

  return (am->DataIoStats() - before).DemandAccesses(loads);
}

}  // namespace

void AppendSearchEndpointHints(NodeId target, std::span<const NodeId> sources,
                               std::vector<ReadHint>* hints) {
  if (target != kInvalidNodeId) hints->push_back({kInvalidNodeId, target});
  for (NodeId src : sources) hints->push_back({kInvalidNodeId, src});
}

Result<SearchResult> ShortestPathDijkstra(AccessMethod* am, NodeId src,
                                          NodeId dst) {
  return ShortestPathAStar(am, src, dst, -1.0);  // no heuristic: Dijkstra
}

Result<SearchResult> ShortestPathAStar(AccessMethod* am, NodeId src,
                                       NodeId dst, double heuristic_weight) {
  SearchResult result;
  SearchCore core(am->NumLiveNodes());
  CCAM_ASSIGN_OR_RETURN(
      result.page_accesses,
      BestFirst(am, {src}, dst, heuristic_weight, &core, [&](uint32_t s) {
        ++result.nodes_expanded;
        if (core.slot(s).id != dst) return;
        result.cost = core.slot(s).g;
        result.path = core.ReconstructPath(s);
      }));
  return result;
}

Result<MultiSourceResult> MultiSourceDistances(
    AccessMethod* am, const std::vector<NodeId>& sources) {
  MultiSourceResult result;
  SearchCore core(am->NumLiveNodes());
  CCAM_ASSIGN_OR_RETURN(
      result.page_accesses,
      BestFirst(am, sources, kInvalidNodeId, -1.0, &core, [&](uint32_t s) {
        result.distances.emplace_back(core.slot(s).id, core.slot(s).g);
      }));
  return result;
}

}  // namespace ccam
