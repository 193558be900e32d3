#include "src/core/network_file.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <unordered_set>

#include "src/partition/recursive_bisection.h"

namespace ccam {

const char* ReorgPolicyName(ReorgPolicy policy) {
  switch (policy) {
    case ReorgPolicy::kFirstOrder:
      return "first-order";
    case ReorgPolicy::kSecondOrder:
      return "second-order";
    case ReorgPolicy::kHigherOrder:
      return "higher-order";
  }
  return "unknown";
}

NetworkFile::NetworkFile(const AccessMethodOptions& options)
    : options_(options),
      disk_(options.page_size),
      pool_(&disk_, options.buffer_pool_pages, options.replacement,
            options.buffer_pool_shards),
      reorg_seed_(options.seed ^ 0x5bf03635ULL) {
  pool_.SetQuarantine(&quarantine_);
  if (options_.maintain_bptree_index) {
    index_disk_ = std::make_unique<DiskManager>(options_.page_size);
    index_disk_->SetFailpointPrefix("index");
    index_pool_ = std::make_unique<BufferPool>(
        index_disk_.get(), std::max<size_t>(4, options_.index_pool_pages));
    index_ = std::make_unique<BPlusTree>(index_disk_.get(), index_pool_.get());
  }
}

Status NetworkFile::ScrubQuarantined(size_t* repaired, size_t* remaining) {
  size_t fixed = 0;
  for (const auto& [page, reason] : quarantine_.Entries()) {
    (void)reason;
    // VerifyPage re-reads the platter and checks the stored seal without
    // charging data I/O; injected faults still apply, so a scrub during a
    // fault burst honestly reports the page as still bad.
    if (disk_.VerifyPage(page).ok()) {
      quarantine_.Clear(page);
      ++fixed;
    }
  }
  if (repaired != nullptr) *repaired = fixed;
  if (remaining != nullptr) *remaining = quarantine_.size();
  return Status::OK();
}

std::optional<IoStats> NetworkFile::IndexIoStats() const {
  if (!index_disk_) return std::nullopt;
  return index_disk_->stats();
}

double NetworkFile::AvgBlockingFactor() const {
  size_t pages = disk_.NumAllocatedPages();
  if (pages == 0) return 0.0;
  return static_cast<double>(page_of_.size()) / static_cast<double>(pages);
}

void NetworkFile::NoteFreeSpace(PageId page, const SlottedPage& view) {
  free_space_[page] = view.FreeSpaceForRecord();
}

Status NetworkFile::IndexSet(NodeId id, PageId page) {
  page_of_[id] = page;
  if (index_) return index_->Put(id, page);
  return Status::OK();
}

Status NetworkFile::IndexErase(NodeId id) {
  page_of_.erase(id);
  if (index_) return index_->Delete(id);
  return Status::OK();
}

Result<PageId> NetworkFile::NewDataPage() {
  PageId id;
  char* data = nullptr;
  CCAM_RETURN_NOT_OK(pool_.NewPage(&id, &data));
  SlottedPage::Initialize(data, options_.page_size);
  NoteFreeSpace(id, SlottedPage(data, options_.page_size));
  CCAM_RETURN_NOT_OK(pool_.UnpinPage(id, true));
  return id;
}

Status NetworkFile::DropDataPage(PageId page) {
  pool_.Discard(page);
  free_space_.erase(page);
  return disk_.FreePage(page);
}

Status NetworkFile::BuildFromAssignment(
    const Network& network, const std::vector<std::vector<NodeId>>& pages) {
  InvalidateHierarchyOverlay();
  if (!page_of_.empty()) {
    return Status::InvalidArgument("file already created");
  }
  std::vector<std::pair<uint64_t, uint64_t>> index_entries;
  for (const std::vector<NodeId>& subset : pages) {
    if (subset.empty()) continue;
    PageId page;
    CCAM_ASSIGN_OR_RETURN(page, NewDataPage());
    auto res = pool_.FetchPage(page);
    if (!res.ok()) return res.status();
    SlottedPage view(*res, options_.page_size);
    for (NodeId id : subset) {
      if (!network.HasNode(id)) {
        (void)pool_.UnpinPage(page, true);
        return Status::InvalidArgument("assignment references missing node");
      }
      NodeRecord rec = NodeRecord::FromNetworkNode(id, network.node(id));
      if (view.InsertRecord(rec.Encode()) < 0) {
        (void)pool_.UnpinPage(page, true);
        return Status::NoSpace("page assignment overflows page");
      }
      page_of_[id] = page;
      index_entries.emplace_back(id, page);
    }
    NoteFreeSpace(page, view);
    CCAM_RETURN_NOT_OK(pool_.UnpinPage(page, true));
  }
  CCAM_RETURN_NOT_OK(pool_.FlushAll());
  if (index_) {
    std::sort(index_entries.begin(), index_entries.end());
    CCAM_RETURN_NOT_OK(index_->BulkLoad(index_entries));
  }
  // Creation I/O is not part of any operation measurement.
  disk_.ResetStats();
  if (index_disk_) index_disk_->ResetStats();
  if (options_.hierarchy_overlay) {
    // The logical network is still in hand: contract it directly instead
    // of rescanning the pages just written.
    CCAM_RETURN_NOT_OK(BuildHierarchyOverlayFromNetwork(network));
  }
  return Status::OK();
}

Result<NodeRecord> NetworkFile::ReadRecord(NodeId id, IoStats* io) {
  auto it = page_of_.find(id);
  if (it == page_of_.end()) {
    return Status::NotFound("node " + std::to_string(id));
  }
  PageGuard guard(&pool_, it->second, io);
  if (!guard.ok()) return guard.status();
  SlottedPage view(guard.data(), options_.page_size);
  for (int slot : view.LiveSlots()) {
    std::string_view bytes = view.GetRecord(slot);
    if (NodeRecord::PeekId(bytes) == id) {
      return NodeRecord::Decode(bytes);
    }
  }
  return Status::Corruption("node " + std::to_string(id) +
                            " missing from its page");
}

Status NetworkFile::WriteRecord(const NodeRecord& record) {
  auto it = page_of_.find(record.id);
  if (it == page_of_.end()) {
    return Status::NotFound("node " + std::to_string(record.id));
  }
  PageId page = it->second;
  PageGuard guard(&pool_, page);
  if (!guard.ok()) return guard.status();
  SlottedPage view(guard.data(), options_.page_size);
  for (int slot : view.LiveSlots()) {
    if (NodeRecord::PeekId(view.GetRecord(slot)) != record.id) continue;
    Status s = view.UpdateRecord(slot, record.Encode());
    if (s.ok()) {
      NoteFreeSpace(page, view);
      NoteUpdate(page);
      guard.MarkDirty();
      return Status::OK();
    }
    if (!s.IsNoSpace()) return s;
    // Overflow: split the page with the grown record included.
    std::vector<NodeRecord> pending;
    for (int other : view.LiveSlots()) {
      auto rec = NodeRecord::Decode(view.GetRecord(other));
      if (!rec.ok()) return rec.status();
      if (rec->id == record.id) {
        pending.push_back(record);
      } else {
        pending.push_back(std::move(*rec));
      }
    }
    guard.Release();
    last_op_structural_ = true;
    return SplitPage(page, std::move(pending));
  }
  return Status::Corruption("record to update missing from its page");
}

Status NetworkFile::AddRecordToPage(PageId page, const NodeRecord& record) {
  PageGuard guard(&pool_, page);
  if (!guard.ok()) return guard.status();
  SlottedPage view(guard.data(), options_.page_size);
  if (view.InsertRecord(record.Encode()) < 0) {
    return Status::NoSpace("page " + std::to_string(page) + " full");
  }
  NoteFreeSpace(page, view);
  NoteUpdate(page);
  guard.MarkDirty();
  return IndexSet(record.id, page);
}

Status NetworkFile::RemoveRecordFromPage(NodeId id) {
  auto it = page_of_.find(id);
  if (it == page_of_.end()) {
    return Status::NotFound("node " + std::to_string(id));
  }
  PageId page = it->second;
  PageGuard guard(&pool_, page);
  if (!guard.ok()) return guard.status();
  SlottedPage view(guard.data(), options_.page_size);
  for (int slot : view.LiveSlots()) {
    if (NodeRecord::PeekId(view.GetRecord(slot)) == id) {
      CCAM_RETURN_NOT_OK(view.DeleteRecord(slot));
      NoteFreeSpace(page, view);
      NoteUpdate(page);
      guard.MarkDirty();
      return IndexErase(id);
    }
  }
  return Status::Corruption("record to delete missing from its page");
}

std::vector<PageId> NetworkFile::PagesOfNeighbors(
    const NodeRecord& record) const {
  std::set<PageId> pages;
  for (NodeId nbr : record.Neighbors()) {
    auto it = page_of_.find(nbr);
    if (it != page_of_.end()) pages.insert(it->second);
  }
  return {pages.begin(), pages.end()};
}

Result<std::vector<NodeId>> NetworkFile::NodesOnPage(PageId page) {
  PageGuard guard(&pool_, page);
  if (!guard.ok()) return guard.status();
  SlottedPage view(guard.data(), options_.page_size);
  std::vector<NodeId> out;
  for (int slot : view.LiveSlots()) {
    out.push_back(NodeRecord::PeekId(view.GetRecord(slot)));
  }
  return out;
}

Result<std::vector<NodeRecord>> NetworkFile::RecordsOnPage(PageId page) {
  PageGuard guard(&pool_, page);
  if (!guard.ok()) return guard.status();
  SlottedPage view(guard.data(), options_.page_size);
  std::vector<NodeRecord> out;
  for (int slot : view.LiveSlots()) {
    auto rec = NodeRecord::Decode(view.GetRecord(slot));
    if (!rec.ok()) return rec.status();
    out.push_back(std::move(*rec));
  }
  return out;
}

Result<std::vector<PageId>> NetworkFile::NbrPages(PageId page) {
  std::vector<NodeRecord> records;
  CCAM_ASSIGN_OR_RETURN(records, RecordsOnPage(page));
  std::set<PageId> out;
  for (const NodeRecord& rec : records) {
    for (NodeId nbr : rec.Neighbors()) {
      auto it = page_of_.find(nbr);
      if (it != page_of_.end() && it->second != page) out.insert(it->second);
    }
  }
  return std::vector<PageId>(out.begin(), out.end());
}

Network NetworkFile::NetworkFromRecords(
    const std::vector<NodeRecord>& records) {
  Network net;
  std::unordered_set<NodeId> present;
  for (const NodeRecord& rec : records) present.insert(rec.id);
  for (const NodeRecord& rec : records) {
    // The temporary node keeps only edges to co-reorganized nodes, but the
    // partitioner must see the *actual* on-page record size — records may
    // reference nodes outside this set (e.g. during incremental create).
    // Pad the payload so RecordSizeOf(temp node) == rec.EncodedSize().
    size_t kept_succ = 0, kept_pred = 0;
    for (const AdjEntry& e : rec.succ) kept_succ += present.count(e.node);
    for (const AdjEntry& e : rec.pred) kept_pred += present.count(e.node);
    size_t padded_payload =
        rec.EncodedSize() - kNodeRecordFixedBytes -
        kNodeRecordAdjEntryBytes * (kept_succ + kept_pred);
    (void)net.AddNode(rec.id, rec.x, rec.y,
                      std::string(padded_payload, '\0'));
  }
  for (const NodeRecord& rec : records) {
    for (const AdjEntry& e : rec.succ) {
      if (present.count(e.node)) (void)net.AddEdge(rec.id, e.node, e.cost);
    }
  }
  return net;
}

Status NetworkFile::RewritePages(
    const std::vector<PageId>& reuse,
    const std::vector<std::vector<NodeId>>& subsets,
    const std::unordered_map<NodeId, NodeRecord>& records) {
  std::vector<PageId> targets;
  for (size_t i = 0; i < subsets.size(); ++i) {
    if (i < reuse.size()) {
      targets.push_back(reuse[i]);
    } else {
      PageId page;
      CCAM_ASSIGN_OR_RETURN(page, NewDataPage());
      targets.push_back(page);
    }
  }
  for (size_t i = 0; i < subsets.size(); ++i) {
    PageId page = targets[i];
    PageGuard guard(&pool_, page);
    if (!guard.ok()) return guard.status();
    SlottedPage::Initialize(guard.data(), options_.page_size);
    SlottedPage view(guard.data(), options_.page_size);
    for (NodeId id : subsets[i]) {
      auto it = records.find(id);
      if (it == records.end()) {
        return Status::Corruption("rewrite subset references unknown node");
      }
      if (view.InsertRecord(it->second.Encode()) < 0) {
        return Status::NoSpace("reclustered subset overflows page");
      }
      CCAM_RETURN_NOT_OK(IndexSet(id, page));
    }
    NoteFreeSpace(page, view);
    update_counts_.erase(page);  // freshly clustered
    guard.MarkDirty();
  }
  // Free reusable pages that are no longer needed.
  for (size_t i = subsets.size(); i < reuse.size(); ++i) {
    CCAM_RETURN_NOT_OK(DropDataPage(reuse[i]));
  }
  return Status::OK();
}

Status NetworkFile::SplitPage(PageId page, std::vector<NodeRecord> pending) {
  Network net = NetworkFromRecords(pending);
  ClusterOptions copts;
  copts.page_capacity = PageCapacity();
  copts.per_record_overhead = SlottedPage::kSlotOverhead;
  copts.algorithm = options_.partitioner;
  copts.use_access_weights = false;
  copts.seed = reorg_seed_++;
  copts.num_threads = options_.num_threads;
  std::vector<std::vector<NodeId>> subsets;
  CCAM_ASSIGN_OR_RETURN(subsets,
                        ClusterNodesIntoPages(net, net.NodeIds(), copts));
  std::unordered_map<NodeId, NodeRecord> by_id;
  for (NodeRecord& rec : pending) by_id.emplace(rec.id, std::move(rec));
  last_op_structural_ = true;
  return RewritePages({page}, subsets, by_id);
}

PageId NetworkFile::ChoosePageForInsert(const NodeRecord& record) {
  // Rank candidate pages by the number of neighbors of the new node they
  // hold; pick the best one that still has room (paper Figure 3).
  std::map<PageId, int> neighbor_count;
  for (NodeId nbr : record.Neighbors()) {
    auto it = page_of_.find(nbr);
    if (it != page_of_.end()) neighbor_count[it->second]++;
  }
  size_t need = record.EncodedSize();
  PageId best = kInvalidPageId;
  int best_count = 0;
  for (const auto& [page, count] : neighbor_count) {
    auto fs = free_space_.find(page);
    if (fs == free_space_.end() || fs->second < need) continue;
    if (count > best_count) {
      best_count = count;
      best = page;
    }
  }
  return best;
}

Status NetworkFile::Reorganize(std::vector<PageId> pages) {
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  if (pages.empty()) return Status::OK();

  std::vector<NodeRecord> all;
  for (PageId page : pages) {
    std::vector<NodeRecord> records;
    CCAM_ASSIGN_OR_RETURN(records, RecordsOnPage(page));
    for (NodeRecord& rec : records) all.push_back(std::move(rec));
  }
  Network net = NetworkFromRecords(all);
  ClusterOptions copts;
  copts.page_capacity = PageCapacity();
  copts.per_record_overhead = SlottedPage::kSlotOverhead;
  copts.algorithm = options_.partitioner;
  copts.use_access_weights = false;
  copts.seed = reorg_seed_++;
  copts.num_threads = options_.num_threads;
  std::vector<std::vector<NodeId>> subsets;
  CCAM_ASSIGN_OR_RETURN(subsets,
                        ClusterNodesIntoPages(net, net.NodeIds(), copts));
  std::unordered_map<NodeId, NodeRecord> by_id;
  for (NodeRecord& rec : all) by_id.emplace(rec.id, std::move(rec));
  return RewritePages(pages, subsets, by_id);
}

Status NetworkFile::ReorganizeForPolicy(ReorgPolicy policy,
                                        std::vector<PageId> touched) {
  if (policy == ReorgPolicy::kFirstOrder) return Status::OK();
  return Reorganize(std::move(touched));
}

Status NetworkFile::ReorganizeAll() {
  InvalidateHierarchyOverlay();
  last_op_structural_ = true;
  std::vector<PageId> pages = disk_.AllocatedPageIds();
  CCAM_RETURN_NOT_OK(Reorganize(std::move(pages)));
  return FlushDirty();
}

Status NetworkFile::ScanDataPagesOffTheBooks(
    const std::function<Status(PageId)>& visit) {
  IoStats before = disk_.stats();
  Status scan = Status::OK();
  for (PageId page : disk_.AllocatedPageIds()) {
    scan = visit(page);
    if (!scan.ok()) break;
  }
  disk_.RestoreStats(before);
  return scan;
}

Result<std::vector<NetworkFile::PageOccupancy>>
NetworkFile::ScanPageOccupancy() {
  std::vector<PageOccupancy> out;
  CCAM_RETURN_NOT_OK(ScanDataPagesOffTheBooks([&](PageId page) {
    PageGuard guard(&pool_, page);
    if (!guard.ok()) return guard.status();
    SlottedPage view(guard.data(), options_.page_size);
    out.push_back({page, view.NumRecords(), view.UsedBytes()});
    return Status::OK();
  }));
  return out;
}

void NetworkFile::EnableLazyReorganization(int threshold) {
  lazy_threshold_ = threshold > 0 ? threshold : 0;
  update_counts_.clear();
}

void NetworkFile::NoteUpdate(PageId page) {
  if (lazy_threshold_ > 0 && !in_reorg_) {
    ++update_counts_[page];
  }
}

Status NetworkFile::FinishUpdate() {
  if (lazy_threshold_ > 0 && !in_reorg_) {
    // Collect pages whose update counters crossed the threshold.
    std::vector<PageId> due;
    for (const auto& [page, count] : update_counts_) {
      if (count >= lazy_threshold_ && disk_.IsAllocated(page)) {
        due.push_back(page);
      }
    }
    in_reorg_ = true;
    for (PageId page : due) {
      if (!disk_.IsAllocated(page)) continue;  // merged away meanwhile
      std::vector<PageId> touched;
      auto nbrs = NbrPages(page);
      if (nbrs.ok()) touched = std::move(*nbrs);
      touched.push_back(page);
      Status s = Reorganize(touched);
      if (!s.ok()) {
        in_reorg_ = false;
        return s;
      }
      ++lazy_reorgs_;
      for (PageId p : touched) update_counts_.erase(p);
    }
    in_reorg_ = false;
  }
  return FlushDirty();
}

Status NetworkFile::SaveImage(const std::string& path) {
  CCAM_RETURN_NOT_OK(pool_.FlushAll());
  CCAM_RETURN_NOT_OK(disk_.SaveToFile(path));
  if (HasHierarchy()) {
    // The overlay persists as a sidecar image; a file saved without one
    // simply reopens without CH support until the next build.
    CCAM_RETURN_NOT_OK(hierarchy_->SaveImage(path + ".hier"));
  }
  return Status::OK();
}

Status NetworkFile::OpenImage(const std::string& path) {
  if (!page_of_.empty()) {
    return Status::InvalidArgument("file already created");
  }
  CCAM_RETURN_NOT_OK(disk_.LoadFromFile(path));
  CCAM_RETURN_NOT_OK(pool_.Reset());
  // Rebuild the node -> page map and the free-space map by scanning. The
  // image is untrusted (it may be a crash capture): every page is
  // bounds-validated and every record fully decoded before anything is
  // believed, so a torn page surfaces as a typed Corruption, never as an
  // out-of-bounds access.
  std::vector<std::pair<uint64_t, uint64_t>> index_entries;
  for (PageId page : disk_.AllocatedPageIds()) {
    PageGuard guard(&pool_, page);
    if (!guard.ok()) return guard.status();
    // A page allocated by a crashed run but never written back is still
    // all zeroes (no slotted-page header). It holds no records; format it
    // so the free-space map and later writes see a valid empty page.
    std::string_view raw(guard.data(), options_.page_size);
    if (raw.find_first_not_of('\0') == std::string_view::npos) {
      SlottedPage::Initialize(guard.data(), options_.page_size);
      guard.MarkDirty();
      NoteFreeSpace(page, SlottedPage(guard.data(), options_.page_size));
      continue;
    }
    SlottedPage view(guard.data(), options_.page_size);
    Status valid = view.Validate();
    if (!valid.ok()) {
      return Status::Corruption("page " + std::to_string(page) + ": " +
                                valid.message());
    }
    for (int slot : view.LiveSlots()) {
      auto rec = NodeRecord::Decode(view.GetRecord(slot));
      if (!rec.ok() || rec->id == kInvalidNodeId) {
        return Status::Corruption("undecodable record on page " +
                                  std::to_string(page));
      }
      NodeId id = rec->id;
      if (!page_of_.emplace(id, page).second) {
        return Status::Corruption("duplicate node " + std::to_string(id) +
                                  " in image");
      }
      index_entries.emplace_back(id, page);
    }
    NoteFreeSpace(page, view);
  }
  if (index_) {
    std::sort(index_entries.begin(), index_entries.end());
    CCAM_RETURN_NOT_OK(index_->BulkLoad(index_entries));
  }
  if (options_.hierarchy_overlay) {
    // Reattach the overlay sidecar, if one was saved beside the image. A
    // missing sidecar, or one whose build never finished, just means no
    // overlay (e.g. the image was saved after a mutation invalidated it);
    // a finished overlay that fails validation is Corruption, propagated.
    auto overlay = std::make_unique<HierarchyOverlay>(options_);
    overlay->SetFaultInjector(faults_);
    overlay->SetMetrics(metrics_);
    Result<bool> loaded = overlay->LoadImage(path + ".hier");
    if (!loaded.ok()) return loaded.status();
    if (*loaded) hierarchy_ = std::move(overlay);
  }
  disk_.ResetStats();
  if (index_disk_) index_disk_->ResetStats();
  return Status::OK();
}

Status NetworkFile::HandleUnderflow(PageId home,
                                    const std::vector<PageId>& nbr_pages) {
  std::vector<NodeRecord> remaining;
  CCAM_ASSIGN_OR_RETURN(remaining, RecordsOnPage(home));
  if (remaining.empty()) {
    last_op_structural_ = true;
    return DropDataPage(home);
  }
  size_t used = 0;
  for (const NodeRecord& r : remaining) {
    used += r.EncodedSize() + SlottedPage::kSlotOverhead;
  }
  if (used < PageCapacity() / 2) {
    for (PageId q : nbr_pages) {
      if (q != home && disk_.IsAllocated(q)) {
        return MergePages(home, q);
      }
    }
  }
  return Status::OK();
}

Status NetworkFile::MergePages(PageId p, PageId q) {
  last_op_structural_ = true;
  std::vector<NodeRecord> p_records, q_records;
  CCAM_ASSIGN_OR_RETURN(p_records, RecordsOnPage(p));
  CCAM_ASSIGN_OR_RETURN(q_records, RecordsOnPage(q));
  size_t bytes = 0;
  for (const NodeRecord& r : p_records) {
    bytes += r.EncodedSize() + SlottedPage::kSlotOverhead;
  }
  for (const NodeRecord& r : q_records) {
    bytes += r.EncodedSize() + SlottedPage::kSlotOverhead;
  }
  if (bytes <= PageCapacity()) {
    // Everything fits on one page: move p's records into q, free p.
    for (const NodeRecord& rec : p_records) {
      CCAM_RETURN_NOT_OK(AddRecordToPage(q, rec));
    }
    return DropDataPage(p);
  }
  // Recluster the pair into two balanced pages.
  return Reorganize({p, q});
}

Result<NodeRecord> NetworkFile::Find(NodeId id) { return ReadRecord(id); }

Result<NodeRecord> NetworkFile::FindViaIndex(NodeId id) {
  if (!index_) {
    return Status::NotSupported("B+ tree index not maintained");
  }
  PageId page;
  {
    auto res = index_->Find(id);
    if (!res.ok()) return res.status();
    page = static_cast<PageId>(*res);
  }
  PageGuard guard(&pool_, page);
  if (!guard.ok()) return guard.status();
  SlottedPage view(guard.data(), options_.page_size);
  for (int slot : view.LiveSlots()) {
    std::string_view bytes = view.GetRecord(slot);
    if (NodeRecord::PeekId(bytes) == id) {
      return NodeRecord::Decode(bytes);
    }
  }
  return Status::Corruption("index points at a page without the record");
}

Status NetworkFile::BulkInsert(const std::vector<NodeRecord>& records,
                               ReorgPolicy policy) {
  InvalidateHierarchyOverlay();
  std::set<PageId> touched;
  for (const NodeRecord& record : records) {
    CCAM_RETURN_NOT_OK(InsertNode(record, ReorgPolicy::kFirstOrder));
    auto it = page_of_.find(record.id);
    if (it != page_of_.end()) {
      touched.insert(it->second);
      auto rec_now = ReadRecord(record.id);
      if (rec_now.ok()) {
        for (PageId p : PagesOfNeighbors(*rec_now)) touched.insert(p);
      }
    }
  }
  if (policy != ReorgPolicy::kFirstOrder) {
    std::vector<PageId> pages;
    for (PageId p : touched) {
      if (!disk_.IsAllocated(p)) continue;
      if (policy == ReorgPolicy::kHigherOrder) {
        auto extra = NbrPages(p);
        if (extra.ok()) {
          for (PageId q : *extra) {
            if (disk_.IsAllocated(q)) pages.push_back(q);
          }
        }
      }
      pages.push_back(p);
    }
    CCAM_RETURN_NOT_OK(Reorganize(std::move(pages)));
  }
  return FinishUpdate();
}

Result<NodeRecord> NetworkFile::GetASuccessor(NodeId from, NodeId to) {
  // The buffered data page containing `from` (and anything else buffered)
  // is searched first by construction: fetching a buffered page performs
  // no disk I/O. A miss degenerates to Find(to), per the paper.
  (void)from;
  return ReadRecord(to);
}

Result<std::vector<NodeRecord>> NetworkFile::GetSuccessors(NodeId id) {
  return GetSuccessorsTracked(id, nullptr);
}

Result<std::vector<NodeRecord>> NetworkFile::GetSuccessorsTracked(
    NodeId id, IoStats* io) {
  NodeRecord rec;
  CCAM_ASSIGN_OR_RETURN(rec, ReadRecord(id, io));
  std::vector<NodeRecord> out(rec.succ.size());
  // Successors co-paged with `id` — or on any page brought into the
  // buffers by earlier fetches — are extracted without further I/O
  // ("checking all pages brought into main memory buffers", Section 2.3).
  // Fetch in page-grouped order so a tiny buffer pool never re-reads a
  // page it just evicted; results return in successor-list order.
  std::vector<size_t> order(rec.succ.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    auto pa = page_of_.find(rec.succ[a].node);
    auto pb = page_of_.find(rec.succ[b].node);
    PageId page_a = pa == page_of_.end() ? kInvalidPageId : pa->second;
    PageId page_b = pb == page_of_.end() ? kInvalidPageId : pb->second;
    return page_a < page_b;
  });
  for (size_t i : order) {
    NodeRecord succ;
    CCAM_ASSIGN_OR_RETURN(succ, ReadRecord(rec.succ[i].node, io));
    out[i] = std::move(succ);
  }
  return out;
}

Result<NodeRecord> NetworkFile::SharedFind(NodeId id, IoStats* io) {
  return ReadRecord(id, io);
}

Result<NodeRecord> NetworkFile::SharedGetASuccessor(NodeId from, NodeId to,
                                                    IoStats* io) {
  // Same degenerate form as GetASuccessor(): the buffered page holding
  // `from` is searched for free by construction.
  (void)from;
  return ReadRecord(to, io);
}

Result<std::vector<NodeRecord>> NetworkFile::SharedGetSuccessors(NodeId id,
                                                                 IoStats* io) {
  return GetSuccessorsTracked(id, io);
}

size_t NetworkFile::SharedReadAhead(
    const ReadHint* hints, size_t n, IoStats* io,
    const std::function<bool(NodeId)>& shadowed) {
  BufferPool::ReadAheadWindow window(pool_);
  size_t covered = 0;
  for (; covered < n; ++covered) {
    const NodeId id = hints[covered].node;
    PageId page = kInvalidPageId;
    if (!shadowed || !shadowed(id)) {
      auto it = page_of_.find(id);
      if (it != page_of_.end()) page = it->second;
    }
    if (!window.Admit(page)) break;
  }
  pool_.ReadAhead(window, io);
  return covered;
}

std::unique_ptr<QuerySession> NetworkFile::OpenSession() {
  return std::make_unique<QuerySession>(this);
}

std::unique_ptr<ReadSession> NetworkFile::OpenReadSession() {
  return OpenSession();
}

Result<HierarchyNodeRecord> NetworkFile::SharedHierarchyNode(NodeId id,
                                                             IoStats* io) {
  if (!HasHierarchy()) {
    return Status::NotSupported("no hierarchy overlay");
  }
  return hierarchy_->ReadNode(id, io);
}

Status NetworkFile::BuildHierarchyOverlayFromNetwork(const Network& network) {
  auto overlay = std::make_unique<HierarchyOverlay>(options_);
  overlay->SetFaultInjector(faults_);
  overlay->SetMetrics(metrics_);
  CCAM_RETURN_NOT_OK(overlay->Build(network));
  hierarchy_ = std::move(overlay);
  return Status::OK();
}

Status NetworkFile::BuildHierarchyOverlay() {
  Network network;
  CCAM_ASSIGN_OR_RETURN(network, ExportNetwork());
  return BuildHierarchyOverlayFromNetwork(network);
}

Result<Network> NetworkFile::ExportNetwork() {
  std::vector<NodeRecord> all;
  CCAM_RETURN_NOT_OK(ScanDataPagesOffTheBooks([&](PageId page) {
    std::vector<NodeRecord> records;
    CCAM_ASSIGN_OR_RETURN(records, RecordsOnPage(page));
    for (NodeRecord& rec : records) all.push_back(std::move(rec));
    return Status::OK();
  }));
  Network net;
  for (const NodeRecord& rec : all) {
    Status st = net.AddNode(rec.id, rec.x, rec.y, rec.payload);
    if (!st.ok()) {
      return Status::Corruption("export: duplicate node " +
                                std::to_string(rec.id));
    }
  }
  for (const NodeRecord& rec : all) {
    for (const AdjEntry& e : rec.succ) {
      Status st = net.AddEdge(rec.id, e.node, e.cost);
      if (!st.ok()) {
        return Status::Corruption("export: bad edge " + std::to_string(rec.id) +
                                  "->" + std::to_string(e.node) + ": " +
                                  st.ToString());
      }
    }
  }
  return net;
}

Status NetworkFile::InsertNode(const NodeRecord& record, ReorgPolicy policy) {
  InvalidateHierarchyOverlay();
  last_op_structural_ = false;
  if (page_of_.count(record.id) > 0) {
    return Status::AlreadyExists("node " + std::to_string(record.id));
  }
  // Keep only adjacency entries whose endpoint is present; absent nodes
  // patch this record back when they are inserted later.
  NodeRecord rec = record;
  auto present = [&](const AdjEntry& e) {
    return page_of_.count(e.node) > 0;
  };
  rec.succ.erase(
      std::remove_if(rec.succ.begin(), rec.succ.end(),
                     [&](const AdjEntry& e) { return !present(e); }),
      rec.succ.end());
  rec.pred.erase(
      std::remove_if(rec.pred.begin(), rec.pred.end(),
                     [&](const AdjEntry& e) { return !present(e); }),
      rec.pred.end());
  if (rec.EncodedSize() + SlottedPage::kSlotOverhead > PageCapacity()) {
    return Status::NoSpace("record larger than a page");
  }

  // Update the succ-list and pred-list of the neighbors (paper Figure 3):
  // an edge (u, x) adds x to u's successor-list; an edge (x, v) adds x to
  // v's predecessor-list. Each neighbor page is read and written once.
  std::map<NodeId, float> succ_add;  // nbr gains x in its succ-list
  std::map<NodeId, float> pred_add;  // nbr gains x in its pred-list
  for (const AdjEntry& e : rec.pred) succ_add[e.node] = e.cost;
  for (const AdjEntry& e : rec.succ) pred_add[e.node] = e.cost;
  std::set<NodeId> nbrs;
  for (const auto& [nbr_id, cost] : succ_add) nbrs.insert(nbr_id);
  for (const auto& [nbr_id, cost] : pred_add) nbrs.insert(nbr_id);
  std::vector<NodeId> patched;
  auto unpatch = [&]() {
    // Undo neighbor patches so a failed insert is all-or-nothing.
    for (NodeId nbr : patched) {
      auto nrec = ReadRecord(nbr);
      if (!nrec.ok()) continue;
      NodeId x = rec.id;
      auto drop = [x](std::vector<AdjEntry>* list) {
        list->erase(std::remove_if(
                        list->begin(), list->end(),
                        [x](const AdjEntry& e) { return e.node == x; }),
                    list->end());
      };
      drop(&nrec->succ);
      drop(&nrec->pred);
      (void)WriteRecord(*nrec);
    }
    (void)FlushDirty();
  };
  for (NodeId nbr : nbrs) {
    auto nrec = ReadRecord(nbr);
    if (!nrec.ok()) {
      unpatch();
      return nrec.status();
    }
    auto sit = succ_add.find(nbr);
    if (sit != succ_add.end() && !nrec->HasSuccessor(rec.id)) {
      nrec->succ.push_back({rec.id, sit->second});
    }
    auto pit = pred_add.find(nbr);
    if (pit != pred_add.end() && !nrec->HasPredecessor(rec.id)) {
      nrec->pred.push_back({rec.id, pit->second});
    }
    Status ws = WriteRecord(*nrec);
    if (!ws.ok()) {
      unpatch();
      return ws;
    }
    patched.push_back(nbr);
  }

  // Select the page to hold the new record.
  PageId target = ChoosePageForInsert(rec);
  if (target == kInvalidPageId) {
    CCAM_ASSIGN_OR_RETURN(target, NewDataPage());
  }
  CCAM_RETURN_NOT_OK(AddRecordToPage(target, rec));
  OnRecordPlaced(rec.id, target);

  if (policy != ReorgPolicy::kFirstOrder) {
    std::vector<PageId> touched = PagesOfNeighbors(rec);
    touched.push_back(page_of_.at(rec.id));
    if (policy == ReorgPolicy::kHigherOrder) {
      std::vector<PageId> extra;
      CCAM_ASSIGN_OR_RETURN(extra, NbrPages(page_of_.at(rec.id)));
      touched.insert(touched.end(), extra.begin(), extra.end());
    }
    CCAM_RETURN_NOT_OK(ReorganizeForPolicy(policy, std::move(touched)));
  }
  return FinishUpdate();
}

Status NetworkFile::DeleteNode(NodeId id, ReorgPolicy policy) {
  InvalidateHierarchyOverlay();
  last_op_structural_ = false;
  NodeRecord rec;
  CCAM_ASSIGN_OR_RETURN(rec, ReadRecord(id));
  PageId home = page_of_.at(id);
  std::vector<PageId> nbr_pages = PagesOfNeighbors(rec);

  // Patch the neighbors' lists.
  for (NodeId nbr : rec.Neighbors()) {
    if (page_of_.count(nbr) == 0) continue;
    NodeRecord nrec;
    CCAM_ASSIGN_OR_RETURN(nrec, ReadRecord(nbr));
    auto drop = [id](std::vector<AdjEntry>* list) {
      list->erase(std::remove_if(
                      list->begin(), list->end(),
                      [id](const AdjEntry& e) { return e.node == id; }),
                  list->end());
    };
    drop(&nrec.succ);
    drop(&nrec.pred);
    CCAM_RETURN_NOT_OK(WriteRecord(nrec));
  }

  CCAM_RETURN_NOT_OK(RemoveRecordFromPage(id));

  if (policy == ReorgPolicy::kFirstOrder) {
    CCAM_RETURN_NOT_OK(HandleUnderflow(home, nbr_pages));
  } else {
    std::vector<PageId> touched = nbr_pages;
    touched.push_back(home);
    if (policy == ReorgPolicy::kHigherOrder && disk_.IsAllocated(home)) {
      auto remaining = NodesOnPage(home);
      if (remaining.ok() && !remaining->empty()) {
        std::vector<PageId> extra;
        CCAM_ASSIGN_OR_RETURN(extra, NbrPages(home));
        touched.insert(touched.end(), extra.begin(), extra.end());
      }
    }
    // Drop pages that became empty before reorganizing.
    std::vector<PageId> live;
    for (PageId p : touched) {
      if (!disk_.IsAllocated(p)) continue;
      auto nodes = NodesOnPage(p);
      if (nodes.ok() && nodes->empty()) {
        CCAM_RETURN_NOT_OK(DropDataPage(p));
      } else {
        live.push_back(p);
      }
    }
    CCAM_RETURN_NOT_OK(ReorganizeForPolicy(policy, std::move(live)));
  }
  return FinishUpdate();
}

Status NetworkFile::InsertEdge(NodeId u, NodeId v, float cost,
                               ReorgPolicy policy) {
  InvalidateHierarchyOverlay();
  last_op_structural_ = false;
  if (u == v) return Status::InvalidArgument("self-loop");
  NodeRecord ru, rv;
  CCAM_ASSIGN_OR_RETURN(ru, ReadRecord(u));
  if (ru.HasSuccessor(v)) {
    return Status::AlreadyExists("edge already present");
  }
  if (page_of_.count(v) == 0) {
    return Status::NotFound("node " + std::to_string(v));
  }
  ru.succ.push_back({v, cost});
  CCAM_RETURN_NOT_OK(WriteRecord(ru));
  CCAM_ASSIGN_OR_RETURN(rv, ReadRecord(v));
  rv.pred.push_back({u, cost});
  Status sv = WriteRecord(rv);
  if (!sv.ok()) {
    // Roll back u's successor entry so the edge is all-or-nothing.
    auto ru_now = ReadRecord(u);
    if (ru_now.ok()) {
      ru_now->succ.erase(
          std::remove_if(ru_now->succ.begin(), ru_now->succ.end(),
                         [v](const AdjEntry& e) { return e.node == v; }),
          ru_now->succ.end());
      (void)WriteRecord(*ru_now);
    }
    (void)FlushDirty();
    return sv;
  }

  if (policy != ReorgPolicy::kFirstOrder) {
    std::vector<PageId> touched{page_of_.at(u), page_of_.at(v)};
    if (policy == ReorgPolicy::kHigherOrder) {
      for (PageId p : {page_of_.at(u), page_of_.at(v)}) {
        std::vector<PageId> extra;
        CCAM_ASSIGN_OR_RETURN(extra, NbrPages(p));
        touched.insert(touched.end(), extra.begin(), extra.end());
      }
    }
    CCAM_RETURN_NOT_OK(ReorganizeForPolicy(policy, std::move(touched)));
  }
  return FinishUpdate();
}

Status NetworkFile::DeleteEdge(NodeId u, NodeId v, ReorgPolicy policy) {
  InvalidateHierarchyOverlay();
  last_op_structural_ = false;
  NodeRecord ru, rv;
  CCAM_ASSIGN_OR_RETURN(ru, ReadRecord(u));
  if (!ru.HasSuccessor(v)) {
    return Status::NotFound("edge not present");
  }
  ru.succ.erase(std::remove_if(ru.succ.begin(), ru.succ.end(),
                               [v](const AdjEntry& e) { return e.node == v; }),
                ru.succ.end());
  CCAM_RETURN_NOT_OK(WriteRecord(ru));
  CCAM_ASSIGN_OR_RETURN(rv, ReadRecord(v));
  rv.pred.erase(std::remove_if(rv.pred.begin(), rv.pred.end(),
                               [u](const AdjEntry& e) { return e.node == u; }),
                rv.pred.end());
  CCAM_RETURN_NOT_OK(WriteRecord(rv));

  if (policy != ReorgPolicy::kFirstOrder) {
    std::vector<PageId> touched{page_of_.at(u), page_of_.at(v)};
    if (policy == ReorgPolicy::kHigherOrder) {
      for (PageId p : {page_of_.at(u), page_of_.at(v)}) {
        std::vector<PageId> extra;
        CCAM_ASSIGN_OR_RETURN(extra, NbrPages(p));
        touched.insert(touched.end(), extra.begin(), extra.end());
      }
    }
    CCAM_RETURN_NOT_OK(ReorganizeForPolicy(policy, std::move(touched)));
  }
  return FinishUpdate();
}

Status NetworkFile::CheckFileInvariants() {
  // Every mapped node must be present exactly once on its page.
  std::unordered_map<NodeId, int> seen;
  for (PageId page : disk_.AllocatedPageIds()) {
    std::vector<NodeRecord> records;
    CCAM_ASSIGN_OR_RETURN(records, RecordsOnPage(page));
    for (const NodeRecord& rec : records) {
      auto it = page_of_.find(rec.id);
      if (it == page_of_.end()) {
        return Status::Corruption("orphan record " + std::to_string(rec.id));
      }
      if (it->second != page) {
        return Status::Corruption("record " + std::to_string(rec.id) +
                                  " on wrong page");
      }
      if (++seen[rec.id] > 1) {
        return Status::Corruption("duplicate record " +
                                  std::to_string(rec.id));
      }
    }
  }
  if (seen.size() != page_of_.size()) {
    return Status::Corruption("page map size mismatch");
  }
  if (index_) {
    CCAM_RETURN_NOT_OK(index_->CheckInvariants());
    if (index_->NumEntries() != page_of_.size()) {
      return Status::Corruption("index entry count mismatch");
    }
    for (const auto& [id, page] : page_of_) {
      auto res = index_->Find(id);
      if (!res.ok()) return res.status();
      if (*res != page) {
        return Status::Corruption("index disagrees for node " +
                                  std::to_string(id));
      }
    }
  }
  return Status::OK();
}

Status NetworkFile::CheckGraphInvariants() {
  // Load every stored record, then check that adjacency forms a closed,
  // symmetric graph: no edge endpoint may dangle, and each directed edge
  // (u, v, cost) must appear both in u's successor-list and in v's
  // predecessor-list with the same cost.
  std::unordered_map<NodeId, NodeRecord> nodes;
  for (PageId page : disk_.AllocatedPageIds()) {
    std::vector<NodeRecord> records;
    CCAM_ASSIGN_OR_RETURN(records, RecordsOnPage(page));
    for (NodeRecord& rec : records) {
      NodeId id = rec.id;
      if (!nodes.emplace(id, std::move(rec)).second) {
        return Status::Corruption("duplicate node " + std::to_string(id));
      }
    }
  }
  for (const auto& [id, rec] : nodes) {
    for (const AdjEntry& e : rec.succ) {
      auto it = nodes.find(e.node);
      if (it == nodes.end()) {
        return Status::Corruption("successor edge " + std::to_string(id) +
                                  " -> " + std::to_string(e.node) +
                                  " dangles");
      }
      if (!it->second.HasPredecessor(id)) {
        return Status::Corruption("edge " + std::to_string(id) + " -> " +
                                  std::to_string(e.node) +
                                  " missing from predecessor-list");
      }
    }
    for (const AdjEntry& e : rec.pred) {
      auto it = nodes.find(e.node);
      if (it == nodes.end()) {
        return Status::Corruption("predecessor edge " + std::to_string(e.node) +
                                  " -> " + std::to_string(id) + " dangles");
      }
      auto cost = it->second.SuccessorCost(id);
      if (!cost.ok()) {
        return Status::Corruption("edge " + std::to_string(e.node) + " -> " +
                                  std::to_string(id) +
                                  " missing from successor-list");
      }
      if (*cost != e.cost) {
        return Status::Corruption("edge " + std::to_string(e.node) + " -> " +
                                  std::to_string(id) + " cost mismatch");
      }
    }
  }
  return Status::OK();
}

}  // namespace ccam
