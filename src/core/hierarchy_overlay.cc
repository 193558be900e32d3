#include "src/core/hierarchy_overlay.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/partition/nested_dissection.h"
#include "src/storage/page.h"

namespace ccam {

namespace {

/// One arc of the in-memory contraction core: the other endpoint (dense
/// index), the shortcut's middle node (or kInvalidNodeId for an original
/// edge), and the current best cost. 16 bytes: the witness searches stream
/// through these.
struct CoreArc {
  uint32_t to;
  NodeId via;
  double cost;
};

/// Witness searches settle at most this many nodes. Exceeding the cap is
/// conservative: the contraction assumes no witness and keeps the
/// shortcut — correct, just a few extra arcs.
constexpr size_t kWitnessSettleLimit = 128;

/// Overlay pages double until the widest record fits; wider than this is a
/// structural bug, not a tuning problem.
constexpr size_t kMaxOverlayPageSize = size_t{1} << 20;

/// The targets of one contraction step's witness searches: target j is
/// the contracted node's successor succs[j]. Shared read-only by every
/// search of the step.
struct WitnessTargets {
  static constexpr uint32_t kNone = UINT32_MAX;
  uint32_t excluded = 0;          // the node being contracted
  std::vector<uint32_t> by_cost;  // target indices, costliest first
  std::vector<uint32_t> slot;     // dense id -> target index, or kNone
};

/// One search's reusable state: the open set as an indexed 4-ary min-heap
/// on (distance, dense id), whose entries hold the tentative distances, and
/// per dense core id its heap position, valid only where `stamp` equals
/// `generation` (the node was reached by this search). A shorter path to an
/// open node moves its one entry up (decrease-key), so the heap never holds
/// stale entries and pops each reached node once.
struct WitnessScratch {
  static constexpr uint32_t kClosed = UINT32_MAX;
  struct Open {
    double dist;
    uint32_t id;
    bool operator<(const Open& o) const {
      return dist != o.dist ? dist < o.dist : id < o.id;
    }
  };

  explicit WitnessScratch(size_t n) : stamp(n, 0), heap_pos(n) {}
  std::vector<uint32_t> stamp;
  uint32_t generation = 0;
  std::vector<Open> heap;
  std::vector<uint32_t> heap_pos;  // dense id -> heap position, or kClosed

  /// Opens node u at distance d.
  void Push(uint32_t u, double d) {
    heap.push_back({d, u});
    SiftUp(heap.size() - 1);
  }

  /// Lowers open node u's distance to d.
  void DecreaseKey(uint32_t u, double d) {
    heap[heap_pos[u]].dist = d;
    SiftUp(heap_pos[u]);
  }

  /// Removes and returns the open node of least (distance, id).
  Open PopMin() {
    const Open top = heap[0];
    heap_pos[top.id] = kClosed;
    const Open last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      heap[0] = last;
      SiftDown(0);
    }
    return top;
  }

 private:
  void Place(size_t p, const Open& e) {
    heap[p] = e;
    heap_pos[e.id] = static_cast<uint32_t>(p);
  }

  void SiftUp(size_t p) {
    const Open e = heap[p];
    while (p > 0 && e < heap[(p - 1) / 4]) {
      Place(p, heap[(p - 1) / 4]);
      p = (p - 1) / 4;
    }
    Place(p, e);
  }

  void SiftDown(size_t p) {
    const Open e = heap[p];
    for (size_t first = 4 * p + 1; first < heap.size(); first = 4 * p + 1) {
      size_t best = first;
      const size_t end = std::min(first + 4, heap.size());
      for (size_t c = first + 1; c < end; ++c) {
        if (heap[c] < heap[best]) best = c;
      }
      if (!(heap[best] < e)) break;
      Place(p, heap[best]);
      p = best;
    }
    Place(p, e);
  }
};

/// Bounded Dijkstra from `source` in the current core, never entering the
/// contracted node, that writes each target's settled distance to
/// `found[j]` (infinity when it does not settle). Deterministic: the heap
/// orders by (distance, dense index), so equal-distance settle order —
/// which matters under the settle cap — is a pure function of the core.
///
/// It stops once every target has settled, or once the frontier passes
/// the largest need `pred_cost + c(v, w)` of a target still unsettled, and
/// drops relaxations beyond that bound. Neither changes an answer: settled
/// distances are final, and a target that would settle beyond its need is
/// no witness. Every node within the bound still settles in the same
/// order, so the settle cap cuts exactly where a search to the largest
/// need of all targets would cut.
void WitnessSearch(const std::vector<std::vector<CoreArc>>& out,
                   const std::vector<CoreArc>& succs,
                   const WitnessTargets& targets, uint32_t source,
                   double pred_cost, WitnessScratch* s, double* found) {
  std::fill(found, found + succs.size(),
            std::numeric_limits<double>::infinity());
  if (++s->generation == 0) {
    std::fill(s->stamp.begin(), s->stamp.end(), 0);
    s->generation = 1;
  }
  size_t unsettled = succs.size();
  size_t costliest = 0;  // position in by_cost of the costliest unsettled
  double bound = pred_cost + succs[targets.by_cost[0]].cost;
  s->heap.clear();
  s->stamp[source] = s->generation;
  s->Push(source, 0.0);
  size_t settled = 0;
  while (!s->heap.empty()) {
    const auto [d, u] = s->PopMin();
    if (d > bound) break;
    ++settled;
    if (const uint32_t j = targets.slot[u]; j != WitnessTargets::kNone) {
      found[j] = d;
      if (--unsettled == 0) break;
      while (found[targets.by_cost[costliest]] !=
             std::numeric_limits<double>::infinity()) {
        ++costliest;
      }
      bound = pred_cost + succs[targets.by_cost[costliest]].cost;
    }
    if (settled >= kWitnessSettleLimit) break;
    for (const CoreArc& arc : out[u]) {
      if (arc.to == targets.excluded) continue;
      const double nd = d + arc.cost;
      if (nd > bound) continue;
      if (s->stamp[arc.to] != s->generation) {
        s->stamp[arc.to] = s->generation;
        s->Push(arc.to, nd);
      } else if (const uint32_t p = s->heap_pos[arc.to];
                 p != WitnessScratch::kClosed && nd < s->heap[p].dist) {
        s->DecreaseKey(arc.to, nd);
      }
    }
  }
}

/// Finds the arc to `to` in `arcs`, or nullptr.
CoreArc* FindArc(std::vector<CoreArc>* arcs, uint32_t to) {
  for (CoreArc& arc : *arcs) {
    if (arc.to == to) return &arc;
  }
  return nullptr;
}

void EraseArc(std::vector<CoreArc>* arcs, uint32_t to) {
  for (size_t i = 0; i < arcs->size(); ++i) {
    if ((*arcs)[i].to == to) {
      arcs->erase(arcs->begin() + i);
      return;
    }
  }
}

std::vector<HierarchyArc> ToRecordArcs(const std::vector<CoreArc>& arcs,
                                       const std::vector<NodeId>& ids) {
  std::vector<HierarchyArc> result;
  result.reserve(arcs.size());
  for (const CoreArc& arc : arcs) {
    result.push_back({ids[arc.to], arc.cost, arc.via});
  }
  std::sort(result.begin(), result.end(),
            [](const HierarchyArc& a, const HierarchyArc& b) {
              return a.node < b.node;
            });
  return result;
}

/// Contracts `network` in nested-dissection order. Produces one record per
/// node (indexed by rank) and the shortcut count. Witness searches of one
/// contraction step are independent read-only probes of the core, so they
/// run on the pool; shortcut application stays sequential — the result is
/// bit-identical for any thread count.
Status Contract(const Network& network, const AccessMethodOptions& options,
                std::vector<HierarchyNodeRecord>* records,
                size_t* num_shortcuts) {
  const std::vector<NodeId> ids = network.NodeIds();
  const size_t n = ids.size();
  std::unordered_map<NodeId, uint32_t> dense;
  dense.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) dense.emplace(ids[i], static_cast<uint32_t>(i));

  NestedDissectionOptions nd;
  nd.algorithm = options.partitioner;
  nd.num_threads = options.num_threads;
  nd.seed = options.seed;
  std::vector<NodeId> order;
  CCAM_ASSIGN_OR_RETURN(order, NestedDissectionOrder(network, ids, nd));
  if (order.size() != n) {
    return Status::InvalidArgument("nested dissection order lost nodes");
  }

  // The mutable core: per-node out/in arc lists over dense indices,
  // deduplicated keeping the cheapest parallel edge.
  std::vector<std::vector<CoreArc>> out(n), in(n);
  for (size_t i = 0; i < n; ++i) {
    for (const AdjEntry& e : network.node(ids[i]).succ) {
      auto it = dense.find(e.node);
      if (it == dense.end() || it->second == i) continue;
      out[i].push_back(
          {it->second, kInvalidNodeId, static_cast<double>(e.cost)});
    }
    std::sort(out[i].begin(), out[i].end(),
              [](const CoreArc& a, const CoreArc& b) {
                return a.to != b.to ? a.to < b.to : a.cost < b.cost;
              });
    out[i].erase(std::unique(out[i].begin(), out[i].end(),
                             [](const CoreArc& a, const CoreArc& b) {
                               return a.to == b.to;
                             }),
                 out[i].end());
  }
  for (size_t i = 0; i < n; ++i) {
    for (const CoreArc& arc : out[i]) {
      in[arc.to].push_back({static_cast<uint32_t>(i), arc.via, arc.cost});
    }
  }

  const int threads = ThreadPool::ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && n >= 256) pool = std::make_unique<ThreadPool>(threads);
  // One scratch per concurrent search; the searches of one step are dealt
  // out to them round-robin.
  std::vector<WitnessScratch> scratch(pool ? threads : 1, WitnessScratch(n));

  records->assign(n, HierarchyNodeRecord{});
  *num_shortcuts = 0;
  WitnessTargets targets;
  targets.slot.assign(n, WitnessTargets::kNone);
  std::vector<double> witness;  // witness[i * |succs| + j]: pred i, target j
  for (size_t pos = 0; pos < n; ++pos) {
    const uint32_t v = dense.find(order[pos])->second;
    const std::vector<CoreArc> preds = std::move(in[v]);
    const std::vector<CoreArc> succs = std::move(out[v]);

    HierarchyNodeRecord& rec = (*records)[pos];
    rec.id = order[pos];
    rec.rank = static_cast<uint32_t>(pos);
    rec.up = ToRecordArcs(succs, ids);
    rec.down = ToRecordArcs(preds, ids);
    if (rec.up.size() > UINT16_MAX || rec.down.size() > UINT16_MAX) {
      return Status::InvalidArgument("hierarchy node degree exceeds record format");
    }

    // One witness search per predecessor, pruning shortcuts that a path
    // avoiding v already covers. Read-only on the core, so they run
    // concurrently into per-predecessor rows of `witness`.
    const size_t k = succs.size();
    witness.resize(preds.size() * k);
    if (k > 0) {
      targets.excluded = v;
      targets.by_cost.resize(k);
      for (uint32_t j = 0; j < k; ++j) {
        targets.by_cost[j] = j;
        targets.slot[succs[j].to] = j;
      }
      std::sort(targets.by_cost.begin(), targets.by_cost.end(),
                [&](uint32_t a, uint32_t b) {
                  return succs[a].cost > succs[b].cost;
                });
      auto search_all = [&](size_t first, size_t stride, WitnessScratch* s) {
        for (size_t i = first; i < preds.size(); i += stride) {
          WitnessSearch(out, succs, targets, preds[i].to, preds[i].cost, s,
                        &witness[i * k]);
        }
      };
      if (pool && preds.size() >= 2) {
        const size_t tasks = std::min(scratch.size(), preds.size());
        for (size_t t = 0; t < tasks; ++t) {
          pool->Submit([&, t] { search_all(t, tasks, &scratch[t]); });
        }
        pool->WaitIdle();
      } else {
        search_all(0, 1, &scratch[0]);
      }
      for (const CoreArc& w : succs) targets.slot[w.to] = WitnessTargets::kNone;
    }

    for (size_t i = 0; i < preds.size(); ++i) {
      const uint32_t su = preds[i].to;
      for (size_t j = 0; j < k; ++j) {
        const CoreArc& w = succs[j];
        if (w.to == su) continue;
        const double need = preds[i].cost + w.cost;
        if (witness[i * k + j] <= need) continue;
        if (CoreArc* existing = FindArc(&out[su], w.to)) {
          if (need < existing->cost) {
            existing->cost = need;
            existing->via = order[pos];
            CoreArc* mirror = FindArc(&in[w.to], su);
            mirror->cost = need;
            mirror->via = order[pos];
          }
        } else {
          out[su].push_back({w.to, order[pos], need});
          in[w.to].push_back({su, order[pos], need});
        }
      }
    }

    // Detach v: all its remaining arcs point at higher-ranked nodes, and
    // they are exactly the up/down lists just recorded. Its own lists were
    // moved out above.
    for (const CoreArc& w : succs) EraseArc(&in[w.to], v);
    for (const CoreArc& u : preds) EraseArc(&out[u.to], v);
  }
  // Count shortcuts over the final records, not at creation: a keep-min
  // merge can later turn an original arc into a shortcut (set its via), so
  // only the recorded arcs carry the authoritative count.
  for (const HierarchyNodeRecord& rec : *records) {
    for (const HierarchyArc& arc : rec.up) {
      *num_shortcuts += arc.via != kInvalidNodeId;
    }
    for (const HierarchyArc& arc : rec.down) {
      *num_shortcuts += arc.via != kInvalidNodeId;
    }
  }
  return Status::OK();
}

/// Validation shared by LoadImage and CheckInvariants.
Status ValidateRecords(const std::vector<HierarchyNodeRecord>& records,
                       const HierarchyMeta& meta) {
  const size_t n = records.size();
  if (meta.num_nodes != n) {
    return Status::Corruption(
        "hierarchy metadata claims " + std::to_string(meta.num_nodes) +
        " nodes, found " + std::to_string(n));
  }
  std::unordered_map<NodeId, uint32_t> rank_of;
  rank_of.reserve(n * 2);
  std::vector<char> rank_seen(n, 0);
  for (const HierarchyNodeRecord& rec : records) {
    if (rec.rank >= n || rank_seen[rec.rank]) {
      return Status::Corruption("hierarchy ranks are not a permutation");
    }
    rank_seen[rec.rank] = 1;
    if (!rank_of.emplace(rec.id, rec.rank).second) {
      return Status::Corruption("duplicate hierarchy record for node " +
                                std::to_string(rec.id));
    }
  }
  std::unordered_map<NodeId, const HierarchyNodeRecord*> by_id;
  by_id.reserve(n * 2);
  for (const HierarchyNodeRecord& rec : records) by_id.emplace(rec.id, &rec);

  // Every arc lives on its lower-ranked endpoint and points up the
  // hierarchy; every shortcut's middle node was contracted before that
  // endpoint and its record resolves the shortcut's two halves exactly
  // (the unpacking invariant the CH search relies on).
  auto check_arc = [&](const HierarchyNodeRecord& rec, NodeId from, NodeId to,
                       const HierarchyArc& arc) -> Status {
    auto it = rank_of.find(arc.node);
    if (it == rank_of.end() || it->second <= rec.rank) {
      return Status::Corruption("arc of node " + std::to_string(rec.id) +
                                " does not climb the hierarchy");
    }
    if (arc.via == kInvalidNodeId) return Status::OK();
    auto mid = rank_of.find(arc.via);
    if (mid == rank_of.end() || mid->second >= rec.rank) {
      return Status::Corruption("shortcut middle node of " +
                                std::to_string(rec.id) +
                                " is not a lower-ranked node");
    }
    const HierarchyNodeRecord* via_rec = by_id.at(arc.via);
    auto first = via_rec->DownArcFrom(from);
    auto second = via_rec->UpArcTo(to);
    if (!first.ok() || !second.ok() ||
        first->cost + second->cost != arc.cost) {
      return Status::Corruption(
          "shortcut " + std::to_string(from) + " -> " + std::to_string(to) +
          " does not unpack through node " + std::to_string(arc.via));
    }
    return Status::OK();
  };
  size_t shortcuts = 0;
  for (const HierarchyNodeRecord& rec : records) {
    for (const HierarchyArc& arc : rec.up) {
      CCAM_RETURN_NOT_OK(check_arc(rec, rec.id, arc.node, arc));
      shortcuts += arc.via != kInvalidNodeId;
    }
    for (const HierarchyArc& arc : rec.down) {
      CCAM_RETURN_NOT_OK(check_arc(rec, arc.node, rec.id, arc));
      shortcuts += arc.via != kInvalidNodeId;
    }
  }
  if (shortcuts != meta.num_shortcuts) {
    return Status::Corruption("hierarchy metadata shortcut count mismatch");
  }
  return Status::OK();
}

}  // namespace

HierarchyOverlay::HierarchyOverlay(const AccessMethodOptions& options)
    : options_(options) {}

HierarchyOverlay::~HierarchyOverlay() = default;

void HierarchyOverlay::SetFaultInjector(FaultInjector* faults) {
  faults_ = faults;
  if (disk_) disk_->SetFaultInjector(faults);
}

void HierarchyOverlay::SetMetrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (disk_) disk_->SetMetrics(metrics);
}

void HierarchyOverlay::CreateDevices(size_t page_size) {
  pool_.reset();
  disk_ = std::make_unique<DiskManager>(page_size);
  disk_->SetFailpointPrefix("hier");
  // The overlay pool mirrors the data pool's shape; it stays unobserved by
  // the metrics registry so its fetches never mix into the data pool's
  // "buffer_pool.*" series (the "hier.*" disk counters carry the signal).
  pool_ = std::make_unique<BufferPool>(disk_.get(), options_.buffer_pool_pages,
                                       options_.replacement,
                                       options_.buffer_pool_shards);
  disk_->SetFaultInjector(faults_);
  disk_->SetMetrics(metrics_);
}

void HierarchyOverlay::ResetState() {
  pool_.reset();
  disk_.reset();
  page_of_.clear();
  valid_ = false;
  info_ = BuildInfo{};
}

Status HierarchyOverlay::Build(const Network& network) {
  ResetState();

  std::vector<HierarchyNodeRecord> records;
  size_t num_shortcuts = 0;
  CCAM_RETURN_NOT_OK(Contract(network, options_, &records, &num_shortcuts));

  // Encode once; pack in descending rank order so the top of the hierarchy
  // — the nodes every bidirectional search funnels through — occupies the
  // first, hottest pages.
  const size_t n = records.size();
  std::vector<std::string> encoded(n);
  std::vector<NodeId> pack_ids(n);
  size_t max_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const HierarchyNodeRecord& rec = records[n - 1 - i];
    rec.EncodeTo(&encoded[i]);
    pack_ids[i] = rec.id;
    max_bytes = std::max(max_bytes, encoded[i].size());
  }
  size_t page_size = options_.page_size;
  while (SlottedPage::MaxRecordSize(page_size) < max_bytes) {
    page_size *= 2;
    if (page_size > kMaxOverlayPageSize) {
      return Status::NoSpace("hierarchy record too large for any page");
    }
  }

  CreateDevices(page_size);
  Status s = WriteRecords(encoded, pack_ids, num_shortcuts);
  if (!s.ok()) {
    page_of_.clear();
    valid_ = false;
    return s;
  }
  disk_->ResetStats();
  pool_->ResetCounters();
  info_.nodes = n;
  info_.shortcuts = num_shortcuts;
  info_.pages = disk_->NumAllocatedPages();
  info_.page_size = page_size;
  info_.max_record_bytes = max_bytes;
  valid_ = true;
  return Status::OK();
}

Status HierarchyOverlay::WriteRecords(const std::vector<std::string>& encoded,
                                      const std::vector<NodeId>& ids,
                                      size_t num_shortcuts) {
  const size_t page_size = disk_->page_size();
  // Page 0 is reserved for the metadata record, which is written and
  // flushed last, after every record page: the commit rule LoadImage reads
  // back. A torn build leaves page 0 empty or failing its seal.
  PageId meta_page = kInvalidPageId;
  char* meta_data = nullptr;
  CCAM_RETURN_NOT_OK(pool_->NewPage(&meta_page, &meta_data));
  SlottedPage::Initialize(meta_data, page_size);
  CCAM_RETURN_NOT_OK(pool_->UnpinPage(meta_page, true));

  PageId cur = kInvalidPageId;
  char* data = nullptr;
  auto open_new = [&]() -> Status {
    if (cur != kInvalidPageId) CCAM_RETURN_NOT_OK(pool_->UnpinPage(cur, true));
    cur = kInvalidPageId;
    CCAM_RETURN_NOT_OK(pool_->NewPage(&cur, &data));
    SlottedPage::Initialize(data, page_size);
    return Status::OK();
  };
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (cur == kInvalidPageId) CCAM_RETURN_NOT_OK(open_new());
    SlottedPage view(data, page_size);
    if (view.InsertRecord(encoded[i]) < 0) {
      CCAM_RETURN_NOT_OK(open_new());
      SlottedPage fresh(data, page_size);
      if (fresh.InsertRecord(encoded[i]) < 0) {
        return Status::InvalidArgument("hierarchy record does not fit a fresh page");
      }
    }
    page_of_[ids[i]] = cur;
  }
  if (cur != kInvalidPageId) CCAM_RETURN_NOT_OK(pool_->UnpinPage(cur, true));
  CCAM_RETURN_NOT_OK(pool_->FlushAll());

  HierarchyMeta meta;
  meta.num_nodes = encoded.size();
  meta.num_shortcuts = num_shortcuts;
  std::string meta_bytes;
  meta.EncodeTo(&meta_bytes);
  {
    PageGuard guard(pool_.get(), meta_page);
    if (!guard.ok()) return guard.status();
    SlottedPage view(guard.data(), page_size);
    if (view.InsertRecord(meta_bytes) < 0) {
      return Status::InvalidArgument("hierarchy metadata does not fit its page");
    }
    guard.MarkDirty();
  }
  return pool_->FlushPage(meta_page);
}

Result<HierarchyNodeRecord> HierarchyOverlay::ReadNode(NodeId id,
                                                       IoStats* io) {
  if (!valid_) {
    return Status::InvalidArgument("hierarchy overlay not built");
  }
  auto it = page_of_.find(id);
  if (it == page_of_.end()) {
    return Status::NotFound("node " + std::to_string(id) +
                            " not in hierarchy overlay");
  }
  PageGuard guard(pool_.get(), it->second, io);
  if (!guard.ok()) return guard.status();
  SlottedPage view(guard.data(), disk_->page_size());
  for (int slot : view.LiveSlots()) {
    std::string_view bytes = view.GetRecord(slot);
    if (HierarchyNodeRecord::PeekId(bytes) == id) {
      return HierarchyNodeRecord::Decode(bytes);
    }
  }
  return Status::InvalidArgument("hierarchy record of node " + std::to_string(id) +
                          " missing from its page");
}

IoStats HierarchyOverlay::Stats() const {
  return disk_ ? disk_->stats() : IoStats{};
}

void HierarchyOverlay::ResetStats() {
  if (disk_) disk_->ResetStats();
  if (pool_) pool_->ResetCounters();
}

Status HierarchyOverlay::SaveImage(const std::string& path) const {
  if (disk_ == nullptr) {
    return Status::InvalidArgument("hierarchy overlay has no disk");
  }
  return disk_->SaveToFile(path);
}

Result<bool> HierarchyOverlay::ReadMeta(HierarchyMeta* meta) {
  // Unallocated, torn (its seal names the last complete write) or still
  // the empty page the build starts with: the build never reached its
  // final write, so the platter claims no overlay.
  if (!disk_->IsAllocated(0) || !disk_->VerifyPage(0).ok()) return false;
  PageGuard guard(pool_.get(), 0);
  if (!guard.ok()) return guard.status();
  SlottedPage view(guard.data(), disk_->page_size());
  if (view.NumSlots() == 0) return false;
  CCAM_RETURN_NOT_OK(view.Validate());
  const std::vector<int> slots = view.LiveSlots();
  if (slots.size() != 1) {
    return Status::Corruption("hierarchy metadata page must hold one record");
  }
  CCAM_ASSIGN_OR_RETURN(*meta, HierarchyMeta::Decode(view.GetRecord(slots[0])));
  return true;
}

Result<std::vector<HierarchyNodeRecord>> HierarchyOverlay::ScanRecords() {
  const size_t page_size = disk_->page_size();
  page_of_.clear();
  std::vector<HierarchyNodeRecord> records;
  for (PageId page : disk_->AllocatedPageIds()) {
    if (page == 0) continue;
    CCAM_RETURN_NOT_OK(disk_->VerifyPage(page));
    PageGuard guard(pool_.get(), page);
    if (!guard.ok()) return guard.status();
    SlottedPage view(guard.data(), page_size);
    CCAM_RETURN_NOT_OK(view.Validate());
    for (int slot : view.LiveSlots()) {
      HierarchyNodeRecord rec;
      CCAM_ASSIGN_OR_RETURN(
          rec, HierarchyNodeRecord::Decode(view.GetRecord(slot)));
      page_of_[rec.id] = page;
      records.push_back(std::move(rec));
    }
  }
  return records;
}

Result<bool> HierarchyOverlay::LoadImage(const std::string& path) {
  ResetState();
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe.good()) return false;  // no overlay image beside the file
  }
  size_t page_size = 0;
  CCAM_ASSIGN_OR_RETURN(page_size, DiskManager::PeekPageSize(path));
  CreateDevices(page_size);
  CCAM_RETURN_NOT_OK(disk_->LoadFromFile(path));
  HierarchyMeta meta;
  bool claimed = false;
  CCAM_ASSIGN_OR_RETURN(claimed, ReadMeta(&meta));
  if (!claimed) {
    ResetState();
    return false;
  }
  std::vector<HierarchyNodeRecord> records;
  CCAM_ASSIGN_OR_RETURN(records, ScanRecords());
  CCAM_RETURN_NOT_OK(ValidateRecords(records, meta));
  info_.nodes = records.size();
  info_.shortcuts = meta.num_shortcuts;
  info_.pages = disk_->NumAllocatedPages();
  info_.page_size = page_size;
  disk_->ResetStats();
  pool_->ResetCounters();
  valid_ = true;
  return true;
}

Status HierarchyOverlay::CheckInvariants() {
  if (!valid_ || disk_ == nullptr) {
    return Status::InvalidArgument("hierarchy overlay not built");
  }
  const IoStats snapshot = disk_->stats();
  HierarchyMeta meta;
  bool claimed = false;
  CCAM_ASSIGN_OR_RETURN(claimed, ReadMeta(&meta));
  if (!claimed) {
    return Status::Corruption("hierarchy overlay lost its metadata record");
  }
  std::vector<HierarchyNodeRecord> records;
  CCAM_ASSIGN_OR_RETURN(records, ScanRecords());
  disk_->RestoreStats(snapshot);
  return ValidateRecords(records, meta);
}

}  // namespace ccam
