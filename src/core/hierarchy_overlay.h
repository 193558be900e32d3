#ifndef CCAM_CORE_HIERARCHY_OVERLAY_H_
#define CCAM_CORE_HIERARCHY_OVERLAY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/metrics.h"
#include "src/core/access_method.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"
#include "src/storage/hierarchy_record.h"

namespace ccam {

/// A contraction-hierarchy overlay persisted as a paged structure beside
/// the data file: its own simulated disk (failpoint/metric prefix "hier")
/// and its own buffer pool, so overlay I/O is accounted exactly like
/// data-page I/O but never mixes into the paper's data counters.
///
/// Build() derives a nested-dissection elimination order from the
/// recursive-bisection partitioner, contracts nodes in that order with
/// witness-search shortcut pruning (witness searches of one contraction
/// step run on the ThreadPool; the result is bit-identical for any thread
/// count), and packs one HierarchyNodeRecord per node into slotted pages
/// in descending rank order — the top of the hierarchy, which every query
/// touches, occupies the fewest, hottest pages.
///
/// The overlay is derived data — a pure function of the records — so it
/// keeps no log. Its one commit rule: every record page is flushed, then
/// the metadata record is written and flushed alone on page 0. A platter
/// whose page 0 is missing, fails its seal, or holds no record claims no
/// overlay, whatever the other pages hold; a crash at any point of the
/// build therefore reads back as no overlay or the complete one, and the
/// caller rebuilds when in doubt.
///
/// The overlay's page size is the file's page size, doubled as needed so
/// the widest record (a top separator's shortcut clique) fits one page.
class HierarchyOverlay {
 public:
  /// Build summary, for benches and tests.
  struct BuildInfo {
    size_t nodes = 0;
    size_t shortcuts = 0;  // added arcs beyond the original edges
    size_t pages = 0;      // including the metadata page
    size_t page_size = 0;
    size_t max_record_bytes = 0;
  };

  explicit HierarchyOverlay(const AccessMethodOptions& options);
  ~HierarchyOverlay();

  HierarchyOverlay(const HierarchyOverlay&) = delete;
  HierarchyOverlay& operator=(const HierarchyOverlay&) = delete;

  /// Attaches the fault injector / metrics registry; both apply to the
  /// overlay disk as it is created ("hier.*").
  void SetFaultInjector(FaultInjector* faults);
  void SetMetrics(MetricsRegistry* metrics);

  /// Contracts `network` and persists the shortcut graph. Fails (leaving
  /// the overlay invalid) on injected faults; a platter captured after such
  /// a failure loads as no overlay or the complete one.
  Status Build(const Network& network);

  /// True once Build() or LoadImage() succeeded.
  bool valid() const { return valid_; }

  /// Reads one node's hierarchy record through the overlay pool. When `io`
  /// is given, a pool miss charges one read to it (per-session
  /// accounting). Thread-safe for concurrent readers.
  Result<HierarchyNodeRecord> ReadNode(NodeId id, IoStats* io);

  /// Overlay-disk I/O counters (the overlay analogue of DataIoStats).
  IoStats Stats() const;
  void ResetStats();

  const BuildInfo& build_info() const { return info_; }
  size_t NumNodes() const { return page_of_.size(); }
  size_t NumPages() const { return disk_ ? disk_->NumAllocatedPages() : 0; }
  size_t page_size() const { return disk_ ? disk_->page_size() : 0; }

  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }

  /// Writes the overlay disk image (works even on a halted device — the
  /// crash harness's platter capture).
  Status SaveImage(const std::string& path) const;

  /// Restores an overlay from an image. Page 0 alone decides whether the
  /// image claims an overlay: false when the file is missing or page 0 is
  /// unallocated, fails its seal, or holds no record (a build that never
  /// finished). Only then are the record pages read; true when the
  /// complete overlay was restored, Corruption when a claimed overlay
  /// fails validation.
  Result<bool> LoadImage(const std::string& path);

  /// Full structural validation of the persisted overlay: the metadata
  /// record agrees with the stored records, ranks form a permutation,
  /// every arc points to a present, higher-ranked endpoint, every
  /// shortcut's middle node is a present, lower-ranked node, and every
  /// shortcut unpacks exactly through its middle node's down/up arcs.
  /// Reads every page once; the scan's reads are excluded from the I/O
  /// counters.
  Status CheckInvariants();

 private:
  Status WriteRecords(const std::vector<std::string>& encoded,
                      const std::vector<NodeId>& ids, size_t num_shortcuts);
  /// Reads page 0: false when it claims no overlay (see LoadImage), true
  /// with `meta` filled when it holds the metadata record.
  Result<bool> ReadMeta(HierarchyMeta* meta);
  /// Reads, seal-checks and decodes every node record on pages 1.., and
  /// rebuilds page_of_ as it goes.
  Result<std::vector<HierarchyNodeRecord>> ScanRecords();
  void CreateDevices(size_t page_size);
  void ResetState();

  AccessMethodOptions options_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unordered_map<NodeId, PageId> page_of_;
  bool valid_ = false;
  BuildInfo info_;
  FaultInjector* faults_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace ccam

#endif  // CCAM_CORE_HIERARCHY_OVERLAY_H_
