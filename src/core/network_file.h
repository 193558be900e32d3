#ifndef CCAM_CORE_NETWORK_FILE_H_
#define CCAM_CORE_NETWORK_FILE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/access_method.h"
#include "src/core/hierarchy_overlay.h"
#include "src/core/read_session.h"
#include "src/index/bptree.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"
#include "src/storage/page.h"
#include "src/storage/page_quarantine.h"

namespace ccam {

class QuerySession;

/// Shared mechanics of all paged network access methods: a data file of
/// slotted pages holding variable-length node records, a data buffer pool,
/// the in-memory node->page map (standing in for the buffered secondary
/// index, per the paper's cost-model convention), the optional real paged
/// B+ tree index, and the Find / Get-A-successor / Get-successors /
/// Insert / Delete machinery.
///
/// Subclasses define the *placement policy*: how Create() assigns nodes to
/// pages, which page receives an inserted node, how an overflowing page is
/// split, and what reorganization (if any) maintenance operations perform.
class NetworkFile : public AccessMethod, public ReadStore {
 public:
  explicit NetworkFile(const AccessMethodOptions& options);
  ~NetworkFile() override = default;

  Result<NodeRecord> Find(NodeId id) override;

  /// Find() routed through the paged B+ tree: the index descent is charged
  /// to the index disk's counters (IndexIoStats()), then one data-page
  /// fetch retrieves the record. Models the paper's future-work item
  /// "access cost for secondary indexes should be modeled and evaluated".
  /// Fails with NotSupported when the index is not maintained.
  Result<NodeRecord> FindViaIndex(NodeId id);

  /// Inserts a batch of new nodes, deferring the reorganization of the
  /// touched pages to a single pass at the end (instead of one per
  /// insert). Far cheaper than repeated InsertNode() under the second- and
  /// higher-order policies while reaching a comparable CRR.
  Status BulkInsert(const std::vector<NodeRecord>& records,
                    ReorgPolicy policy);
  Result<NodeRecord> GetASuccessor(NodeId from, NodeId to) override;
  Result<std::vector<NodeRecord>> GetSuccessors(NodeId id) override;
  size_t ReadAhead(const ReadHint* hints, size_t n) override {
    return SharedReadAhead(hints, n, nullptr);
  }
  Status InsertNode(const NodeRecord& record, ReorgPolicy policy) override;
  Status DeleteNode(NodeId id, ReorgPolicy policy) override;
  Status InsertEdge(NodeId u, NodeId v, float cost,
                    ReorgPolicy policy) override;
  Status DeleteEdge(NodeId u, NodeId v, ReorgPolicy policy) override;

  /// The disk's counters, with the pool's first fetches of read-ahead
  /// loads as `ahead_misses`.
  IoStats DataIoStats() const override {
    IoStats stats = disk_.stats();
    stats.ahead_misses = pool_.GetCounters().ahead_misses;
    return stats;
  }
  void ResetIoStats() override { disk_.ResetStats(); }
  const NodePageMap& PageMap() const override { return page_of_; }
  BufferPool* buffer_pool() override { return &pool_; }
  bool LastOpChangedStructure() const override {
    return last_op_structural_;
  }
  size_t NumDataPages() const override { return disk_.NumAllocatedPages(); }

  const AccessMethodOptions& options() const { return options_; }

  /// Usable record bytes per page (page size minus the slotted-page
  /// header; each record additionally pays the slot overhead).
  size_t PageCapacity() const {
    return options_.page_size - SlottedPage::kHeaderSize;
  }

  /// I/O counters of the secondary index (B+ tree), when maintained.
  std::optional<IoStats> IndexIoStats() const;

  /// The B+ tree index, when maintained (for tests / inspection).
  const BPlusTree* bptree_index() const { return index_.get(); }

  /// Average number of live records per page (gamma in the cost model).
  double AvgBlockingFactor() const;

  /// Physical occupancy of one data page.
  struct PageOccupancy {
    PageId page;
    int records;
    size_t used_bytes;  // live record bytes, excluding slot overhead
  };

  /// Reads every data page once and reports its occupancy. The scan's
  /// page reads are excluded from the data I/O counters, also when a read
  /// fails.
  Result<std::vector<PageOccupancy>> ScanPageOccupancy();

  /// Reconstructs the logical network from the stored records: every node
  /// with its true coordinates and payload, every successor edge with its
  /// cost (predecessor lists rebuild implicitly; edge access weights are
  /// not persisted and come back uniform). Like ScanPageOccupancy, the
  /// scan's page reads are excluded from the data I/O counters. Snapshot
  /// recovery uses this to rebuild the authoritative network from a
  /// published image before replaying the delta log onto it.
  Result<Network> ExportNetwork();

  /// Verifies file-structure invariants (every mapped node present exactly
  /// once on its page, records decode, index agrees). For tests.
  Status CheckFileInvariants();

  /// Verifies graph-level invariants over the stored records: every
  /// successor/predecessor endpoint is a present node, and adjacency is
  /// symmetric (u lists v as successor with cost c iff v lists u as
  /// predecessor with cost c). The crash-recovery harness runs this after
  /// OpenImage: a crash mid-maintenance leaves either a consistent file or
  /// a typed Corruption here — never a silently half-patched graph.
  /// Virtual: shard files store halo copies whose adjacency deliberately
  /// references nodes owned by other shards, so their override relaxes the
  /// every-endpoint-present check (see src/shard/sharded_network_file.h).
  virtual Status CheckGraphInvariants();

  /// Attaches a fault injector to every simulated device of this file
  /// (nullptr detaches): the data disk ("disk.*" failpoints), the index
  /// disk when maintained ("index.*"), and the hierarchy overlay's disk
  /// when present ("hier.*"). The distinct prefixes let one fault schedule
  /// target any device without touching the others.
  void SetFaultInjector(FaultInjector* faults) {
    faults_ = faults;
    disk_.SetFaultInjector(faults);
    if (index_disk_) index_disk_->SetFaultInjector(faults);
    if (hierarchy_) hierarchy_->SetFaultInjector(faults);
  }

  /// Attaches (or detaches) a metrics registry to every simulated device
  /// of this file: the data disk ("disk.*" counters and latency
  /// histograms), the data buffer pool ("buffer_pool.*"), the index disk
  /// when maintained ("index.*" — the index pool stays unobserved so its
  /// traffic never mixes into the buffer_pool.* series). Query sessions
  /// opened from this file inherit the registry for their "query.*"
  /// spans. The hierarchy overlay's disk reports under "hier.*". Attach
  /// while the file is quiescent.
  void SetMetrics(MetricsRegistry* metrics) {
    metrics_ = metrics;
    disk_.SetMetrics(metrics);
    pool_.SetMetrics(metrics);
    quarantine_.SetMetrics(metrics);
    if (index_disk_) index_disk_->SetMetrics(metrics);
    if (hierarchy_) hierarchy_->SetMetrics(metrics);
  }
  MetricsRegistry* metrics() const override { return metrics_; }

  /// Complete reorganization: reclusters the entire data file (Table 1's
  /// "all pages in data file" option — the expensive global pass the
  /// incremental policies exist to avoid). Restores near-create CRR after
  /// heavy churn. All existing pages are rewritten.
  Status ReorganizeAll();

  /// --- Lazy (delayed) reorganization ------------------------------------
  /// The paper's Table 1 sketch: "a lazy or delayed reorganization policy
  /// may reorganize NbrPages(P) after a certain number of updates to page
  /// P". When enabled, every update operation tracks per-page update
  /// counts; once a page accumulates `threshold` updates, {P} ∪
  /// NbrPages(P) is reclustered and the counts reset. Composes with the
  /// per-operation policy (typically used with kFirstOrder).
  void EnableLazyReorganization(int threshold);
  void DisableLazyReorganization() { lazy_threshold_ = 0; }
  /// Number of lazy reorganizations triggered so far.
  uint64_t LazyReorgCount() const { return lazy_reorgs_; }

  /// --- Persistence -------------------------------------------------------
  /// Flushes and writes the data-file disk image to a real file.
  Status SaveImage(const std::string& path);

  /// Loads a previously saved image into this (freshly constructed, not
  /// yet Create()d) file and rebuilds the in-memory maps and the B+ tree
  /// index by scanning the pages. The options' page size must match the
  /// image. Placement structures of spatial subclasses are not restored;
  /// see GridAm.
  virtual Status OpenImage(const std::string& path);

  /// --- Concurrent read path ----------------------------------------------
  /// Thread-safe read operations against the shared pool. Many threads may
  /// call these concurrently with each other (but not with any mutation:
  /// the file keeps its single-writer discipline). When `io` is given, it
  /// receives the calling stream's data-page reads — a fetch is charged iff
  /// it missed the shared pool, so the per-stream counters sum exactly to
  /// the global disk counters.
  Result<NodeRecord> SharedFind(NodeId id, IoStats* io);
  Result<NodeRecord> SharedGetASuccessor(NodeId from, NodeId to, IoStats* io);
  Result<std::vector<NodeRecord>> SharedGetSuccessors(NodeId id, IoStats* io);
  /// ReadAhead for both the file and its sessions: maps the hinted nodes
  /// to their pages (unknown nodes have none) until the pool's window is
  /// full and reads that window ahead, charging its loads to `io`.
  /// `shadowed`, when given, names nodes whose reads fetch no page.
  size_t SharedReadAhead(
      const ReadHint* hints, size_t n, IoStats* io,
      const std::function<bool(NodeId)>& shadowed = nullptr);

  /// --- Contraction-hierarchy overlay --------------------------------------
  /// (Re)builds the overlay from the stored records: reconstructs the
  /// network with ExportNetwork (whose page reads are excluded from the
  /// data I/O counters), contracts it, and persists the shortcut graph
  /// beside the file. Create() does this automatically when
  /// options.hierarchy_overlay is set; call it explicitly after OpenImage
  /// or a mutation batch to re-enable CH queries.
  Status BuildHierarchyOverlay();

  bool HasHierarchy() const override {
    return hierarchy_ != nullptr && hierarchy_->valid();
  }
  Result<HierarchyNodeRecord> HierarchyNode(NodeId id) override {
    return SharedHierarchyNode(id, nullptr);
  }
  IoStats HierarchyIoStats() const override {
    return hierarchy_ ? hierarchy_->Stats() : IoStats{};
  }

  /// Thread-safe overlay read for concurrent query sessions; a pool miss
  /// charges one read to `io`.
  Result<HierarchyNodeRecord> SharedHierarchyNode(NodeId id, IoStats* io);

  /// The overlay itself (tests, benches); null until built.
  HierarchyOverlay* hierarchy() { return hierarchy_.get(); }

  /// Drops the overlay. Every mutation does this implicitly: a shortcut
  /// graph over stale records must never answer queries.
  void InvalidateHierarchyOverlay() { hierarchy_.reset(); }

  /// Opens a read-only query session: an AccessMethod view over this file
  /// with its own per-session IoStats. One session per thread; sessions
  /// share this file's buffer pool.
  std::unique_ptr<QuerySession> OpenSession();

  /// ReadStore: a QuerySession, and whether the page map holds `id`.
  std::unique_ptr<ReadSession> OpenReadSession() override;
  bool Contains(NodeId id) override { return page_of_.count(id) > 0; }

  /// The simulated data disk (throughput experiments configure its
  /// simulated read latency).
  DiskManager* disk() { return &disk_; }

  /// Corruption-containment set of the data pool: pages whose reads kept
  /// failing the pool's bounded re-reads fail fast with a typed
  /// Quarantined status until scrubbed. Always attached; empty costs one
  /// atomic load per pool miss.
  PageQuarantine* quarantine() { return &quarantine_; }

  /// Scrub/repair pass over the quarantine: verifies each quarantined
  /// page's stored checksum (no data I/O is charged) and clears the entry
  /// when the page verifies — e.g. after a transient fault burst or an
  /// out-of-band restore. `repaired`/`remaining` (optional) receive the
  /// pass's tally; pages that still fail verification stay quarantined.
  Status ScrubQuarantined(size_t* repaired = nullptr,
                          size_t* remaining = nullptr);

 protected:
  /// Materializes `pages` (node sets) into data pages and builds the
  /// indexes. Used by subclasses' Create().
  Status BuildFromAssignment(const Network& network,
                             const std::vector<std::vector<NodeId>>& pages);

  /// Contracts `network` into a fresh overlay (the no-rescan path used by
  /// create operations that still hold the logical network).
  Status BuildHierarchyOverlayFromNetwork(const Network& network);

  /// Reads and decodes the record of `id` through the buffer pool. When
  /// `io` is given, a pool miss charges one read to it (per-session
  /// accounting).
  Result<NodeRecord> ReadRecord(NodeId id, IoStats* io = nullptr);

  /// GetSuccessors with per-stream accounting; the public override
  /// delegates here with `io` = nullptr.
  Result<std::vector<NodeRecord>> GetSuccessorsTracked(NodeId id,
                                                       IoStats* io);

  /// Rewrites `record` in place on its page. If it no longer fits, splits
  /// the page (sets the structural-change flag).
  Status WriteRecord(const NodeRecord& record);

  /// Inserts `record` into page `page`. Fails with NoSpace when full.
  Status AddRecordToPage(PageId page, const NodeRecord& record);

  /// Removes the record of `id` from its page (does not touch neighbors).
  Status RemoveRecordFromPage(NodeId id);

  /// Pages holding the (present) neighbors of `record`, deduplicated.
  std::vector<PageId> PagesOfNeighbors(const NodeRecord& record) const;

  /// Pages adjacent to `page` in the page access graph: pages holding any
  /// neighbor of any node stored on `page`. Reads `page` (usually already
  /// buffered); the neighbor lookup itself uses the in-memory map.
  Result<std::vector<PageId>> NbrPages(PageId page);

  /// All node-ids currently stored on `page`.
  Result<std::vector<NodeId>> NodesOnPage(PageId page);

  /// Reads all records stored on `page`.
  Result<std::vector<NodeRecord>> RecordsOnPage(PageId page);

  /// Splits an overflowing page. `pending` holds the page's logical
  /// contents (including any grown record that triggered the overflow).
  /// The default splits by connectivity reclustering; subclasses override
  /// (order-based and spatial splits for the baselines).
  virtual Status SplitPage(PageId page, std::vector<NodeRecord> pending);

  /// Chooses the page for a new node. Default (CCAM, paper Figure 3):
  /// the page holding the most neighbors of the node that still has room.
  /// Returns kInvalidPageId when no suitable page exists (caller
  /// allocates). Subclasses override for append/spatial placement.
  virtual PageId ChoosePageForInsert(const NodeRecord& record);

  /// Notification that a new node's record landed on `page` (after
  /// ChoosePageForInsert / fresh-page allocation). Lets subclasses keep
  /// their placement structures (append cursor, spatial buckets) in sync.
  virtual void OnRecordPlaced(NodeId id, PageId page) {
    (void)id;
    (void)page;
  }

  /// Reorganizes `pages`: reads their records, reclusters the induced
  /// subnetwork with cluster-nodes-into-pages, and rewrites the pages
  /// (reusing ids, allocating or freeing as needed).
  Status Reorganize(std::vector<PageId> pages);

  /// Hook run by maintenance operations after the first-order work, when
  /// the policy asks for reorganization. `touched` is the page set from
  /// Table 1 for the given argument. Default: recluster them. Baselines
  /// that do not recluster may override to a no-op.
  virtual Status ReorganizeForPolicy(ReorgPolicy policy,
                                     std::vector<PageId> touched);

  /// Writes every dirty buffered page out (end-of-operation flush, so that
  /// write I/O is attributed to the operation that dirtied the pages).
  Status FlushDirty() { return pool_.FlushAll(); }

  /// End-of-update hook: runs any due lazy reorganizations, then flushes.
  /// Every public maintenance operation ends with this.
  Status FinishUpdate();

  /// Bumps the lazy-reorganization update counter of `page`.
  void NoteUpdate(PageId page);

  /// Merges underflowing page `p` into / with a neighbor page `q`.
  Status MergePages(PageId p, PageId q);

  /// First-order underflow handling after a node deletion: drops `home`
  /// when empty, merges it with a neighbor page when under half full
  /// (paper Figure 4). GridFile-AM overrides to keep sparse buckets.
  virtual Status HandleUnderflow(PageId home,
                                 const std::vector<PageId>& nbr_pages);

  /// Allocates an empty formatted data page.
  Result<PageId> NewDataPage();

  /// Frees `page` (must be empty) and drops its buffer frame.
  Status DropDataPage(PageId page);

  /// Updates both indexes for a (re)placed node.
  Status IndexSet(NodeId id, PageId page);
  Status IndexErase(NodeId id);

  /// Rewrites `subsets` of records into data pages, reusing the ids in
  /// `reuse` first, allocating extras, and freeing leftovers. Updates the
  /// indexes and the free-space cache.
  Status RewritePages(const std::vector<PageId>& reuse,
                      const std::vector<std::vector<NodeId>>& subsets,
                      const std::unordered_map<NodeId, NodeRecord>& records);

  /// Reads every data page in ascending id order through the buffer pool,
  /// calling `visit` on each, and stops at the first error. A scan is
  /// maintenance, not workload: its page reads are excluded from the data
  /// I/O counters whether it succeeds or fails.
  Status ScanDataPagesOffTheBooks(const std::function<Status(PageId)>& visit);

  /// Builds the subnetwork induced by `records` (edges among them only),
  /// the input to reclustering.
  static Network NetworkFromRecords(const std::vector<NodeRecord>& records);

  /// Remembers the free space of `page` (an in-memory free-space map, so
  /// placement decisions do not charge data-page I/O).
  void NoteFreeSpace(PageId page, const SlottedPage& view);

  AccessMethodOptions options_;
  DiskManager disk_;
  BufferPool pool_;
  /// Containment set for persistently unreadable data pages; the
  /// constructor attaches it to pool_.
  PageQuarantine quarantine_;
  NodePageMap page_of_;
  /// In-memory free-space map: bytes available for one more record.
  std::unordered_map<PageId, size_t> free_space_;

  // Optional real secondary index on its own simulated disk, so its I/O
  // never mixes into the data-page counters.
  std::unique_ptr<DiskManager> index_disk_;
  std::unique_ptr<BufferPool> index_pool_;
  std::unique_ptr<BPlusTree> index_;

  /// Contraction-hierarchy overlay; non-null iff built and still valid.
  std::unique_ptr<HierarchyOverlay> hierarchy_;
  /// Remembered so a later overlay build inherits the injector.
  FaultInjector* faults_ = nullptr;

  bool last_op_structural_ = false;
  uint64_t reorg_seed_ = 0;

  /// Attached registry (null = observability off); see SetMetrics.
  MetricsRegistry* metrics_ = nullptr;

  // Lazy reorganization state.
  int lazy_threshold_ = 0;  // 0 = disabled
  std::unordered_map<PageId, int> update_counts_;
  bool in_reorg_ = false;
  uint64_t lazy_reorgs_ = 0;
};

}  // namespace ccam

// OpenSession() hands out QuerySessions: every caller gets the full type.
#include "src/core/query_session.h"

#endif  // CCAM_CORE_NETWORK_FILE_H_
