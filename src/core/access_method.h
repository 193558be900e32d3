#ifndef CCAM_CORE_ACCESS_METHOD_H_
#define CCAM_CORE_ACCESS_METHOD_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/graph/network.h"
#include "src/partition/partition.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/hierarchy_record.h"
#include "src/storage/io_stats.h"
#include "src/storage/record.h"

namespace ccam {

class MetricsRegistry;
class RequestContext;

/// Reorganization policies for maintenance operations (paper Table 1).
/// The policy order is the order of overhead incurred during an update:
/// higher order policies reorganize more pages and can achieve higher CRR.
enum class ReorgPolicy {
  /// No reorganization; only underflow/overflow handling.
  kFirstOrder,
  /// Reorganize the pages that must be updated anyhow:
  /// {Page(x)} ∪ PagesOfNbrs(x) for node arguments,
  /// {Page(u), Page(v)} for edge arguments.
  kSecondOrder,
  /// Additionally reorganize the neighbor pages in the page access graph.
  kHigherOrder,
};

const char* ReorgPolicyName(ReorgPolicy policy);

/// Tuning knobs shared by all network access methods.
struct AccessMethodOptions {
  /// Disk block size in bytes (the paper sweeps 512..4096).
  size_t page_size = 1024;
  /// Data buffer pool capacity in pages. The paper's route-evaluation
  /// experiment assumes a single one-page buffer.
  size_t buffer_pool_pages = 8;
  /// Page replacement policy of the data buffer pool.
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  /// Two-way partitioner used by CCAM's clustering and reorganization.
  PartitionAlgorithm partitioner = PartitionAlgorithm::kRatioCut;
  /// Partition by edge access weights (maximize WCRR) instead of uniform
  /// weights (maximize CRR).
  bool use_access_weights = false;
  /// Maintain the paged B+ tree secondary index (CCAM's index; tracked
  /// under separate I/O counters because the paper's cost model assumes
  /// index pages are buffered).
  bool maintain_bptree_index = false;
  /// Buffer pool capacity for the index pages (the paper assumes index
  /// pages are buffered; shrink this to study index access cost).
  size_t index_pool_pages = 128;
  /// Worker threads for CCAM's clustering pipeline (static create and
  /// reorganization). 0 = hardware concurrency, 1 = sequential; the page
  /// assignment is bit-identical for every value.
  int num_threads = 0;
  /// Latch shards of the data buffer pool. 0 = automatic (small pools —
  /// including every paper experiment — collapse to a single shard, which
  /// reproduces the classic replacement behavior exactly).
  size_t buffer_pool_shards = 0;
  /// Build and maintain the paged contraction-hierarchy overlay: create
  /// operations additionally contract the network in nested-dissection
  /// order and persist the shortcut graph on a separate "hier" disk, and
  /// ShortestPathCH answers route queries bidirectionally over it. Off by
  /// default — the paper's experiments (Table 5 / Fig 6) never touch the
  /// overlay, and every mutation invalidates it until the next build.
  bool hierarchy_overlay = false;
  uint64_t seed = 42;
};

/// One entry of a read-ahead hint: the read of `node`'s record as a
/// Get-A-successor from `from`, or as a Find when `from` is kInvalidNodeId.
struct ReadHint {
  NodeId from = kInvalidNodeId;
  NodeId node = kInvalidNodeId;
};

/// Abstract access method for networks: the operation set from the paper's
/// Section 1.2 — Create / Find / Insert / Delete plus the network-specific
/// Get-A-successor and Get-successors that dominate the I/O of aggregate
/// queries.
class AccessMethod {
 public:
  virtual ~AccessMethod() = default;

  virtual std::string Name() const = 0;

  /// Bulk-creates the data file from `network`.
  virtual Status Create(const Network& network) = 0;

  /// Retrieves the record of a node (one data-page access unless buffered).
  virtual Result<NodeRecord> Find(NodeId id) = 0;

  /// Retrieves the record of successor `to` of node `from`, checking the
  /// buffered data pages first (zero I/O when clustering co-paged them).
  virtual Result<NodeRecord> GetASuccessor(NodeId from, NodeId to) = 0;

  /// Retrieves records for all successors of `id`, harvesting co-paged and
  /// already-buffered successors without additional I/O.
  virtual Result<std::vector<NodeRecord>> GetSuccessors(NodeId id) = 0;

  /// Read-ahead hint for a known access sequence: the caller will next read
  /// `hints[0].node`, `hints[1].node`, ... in that order, each as a
  /// Get-A-successor from `from`, or as a Find when `from` is
  /// kInvalidNodeId. Returns how many of them the hint covered; the caller
  /// hints again when its reads pass that point (ReadAheadCursor does
  /// this). An implementation maps entries only until its pool's window is
  /// full, so passing the whole rest of a sequence costs one window. The
  /// hint reads pages early but never changes which pages a query
  /// accesses: a read whose page the hint loaded reports that load as its
  /// miss (IoStats::ahead_misses). NetworkFile, QuerySession and
  /// SnapshotSession (which skips the nodes its overlay shadows) ignore
  /// `from`; ShardedQuerySession sends a Find to the owner's shard and a
  /// Get-A-successor to `from`'s shard, whose halo copy the read will
  /// fetch. The default reads nothing and covers all `n`, which keeps any
  /// wrapper that does not forward it correct.
  virtual size_t ReadAhead(const ReadHint* hints, size_t n) {
    (void)hints;
    return n;
  }

  /// Inserts a new node whose record carries its adjacency lists; entries
  /// referring to nodes not yet in the file are dropped (they are patched
  /// back when those nodes arrive). Updates the neighbors' lists.
  virtual Status InsertNode(const NodeRecord& record, ReorgPolicy policy) = 0;

  /// Deletes a node, patching the adjacency lists of its neighbors.
  virtual Status DeleteNode(NodeId id, ReorgPolicy policy) = 0;

  virtual Status InsertEdge(NodeId u, NodeId v, float cost,
                            ReorgPolicy policy) = 0;
  virtual Status DeleteEdge(NodeId u, NodeId v, ReorgPolicy policy) = 0;

  /// Data-page I/O counters (the paper's metric). Index I/O is separate.
  /// Returned by value: the counters are atomics, snapshotted on read.
  virtual IoStats DataIoStats() const = 0;
  virtual void ResetIoStats() = 0;

  /// Current node -> data page assignment (the CRR is computed on this).
  virtual const NodePageMap& PageMap() const = 0;

  /// The data buffer pool (experiments vary its capacity and reset it).
  virtual BufferPool* buffer_pool() = 0;

  /// True if the last update operation caused a page split or merge.
  /// Table 5's harness uses this to "ignore page underflows and overflows
  /// ... to filter out the effect of reorganization policies".
  virtual bool LastOpChangedStructure() const = 0;

  /// Number of live data pages.
  virtual size_t NumDataPages() const = 0;

  /// Node-ids visible to queries, ascending. The default derives them from
  /// PageMap(), which is exact for the paged files (the map is the live
  /// set); snapshot sessions override to merge their mutation overlay.
  /// Query operators that enumerate "all nodes" (component sweeps, spatial
  /// index builds) must use this instead of walking PageMap() directly.
  virtual std::vector<NodeId> LiveNodeIds() const {
    std::vector<NodeId> ids;
    ids.reserve(PageMap().size());
    for (const auto& kv : PageMap()) ids.push_back(kv.first);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// Number of node-ids LiveNodeIds() would return (sizing hint).
  virtual size_t NumLiveNodes() const { return PageMap().size(); }

  /// The metrics registry observing this access method, or nullptr when
  /// observability is detached (the default). Query operators open their
  /// "query.<op>" spans against this — a null registry makes every span
  /// inert, preserving the paper's accounting bit for bit.
  virtual MetricsRegistry* metrics() const { return nullptr; }

  /// The lifecycle context (deadline + cancellation token) governing the
  /// request currently executing against this access method, or nullptr
  /// when none is attached (the default). Query operators poll it at
  /// page-I/O and settle-loop boundaries; a null context makes every poll
  /// a single branch, preserving the paper's accounting bit for bit.
  virtual RequestContext* request_context() const { return nullptr; }

  /// --- Contraction-hierarchy overlay --------------------------------------
  /// True when a valid hierarchy overlay is attached (built and not
  /// invalidated by a mutation since). The default access method has none.
  virtual bool HasHierarchy() const { return false; }

  /// Reads one node's hierarchy record (rank plus upward/downward shortcut
  /// arcs) through the overlay's buffer pool; the page access is charged
  /// to HierarchyIoStats(), per session where applicable.
  virtual Result<HierarchyNodeRecord> HierarchyNode(NodeId id) {
    (void)id;
    return Status::NotSupported("no hierarchy overlay");
  }

  /// Overlay-page I/O counters, kept separate from DataIoStats() so the
  /// paper's data-page accounting is untouched by the overlay.
  virtual IoStats HierarchyIoStats() const { return IoStats{}; }
};

/// Drives AccessMethod::ReadAhead over an operator's known access
/// sequence: Before(i) runs ahead of the i-th read and hints the next
/// window once the reads have passed the end of the last one.
class ReadAheadCursor {
 public:
  /// `hints` lists the operator's reads in order (each operator's
  /// Append*Hints helper builds it); the cursor keeps a reference.
  ReadAheadCursor(AccessMethod* am, const std::vector<ReadHint>& hints)
      : am_(am), hints_(hints) {}

  void Before(size_t i) {
    if (i >= end_) {
      const uint64_t reads = am_->DataIoStats().reads;
      end_ = i + am_->ReadAhead(hints_.data() + i, hints_.size() - i);
      loads_ += am_->DataIoStats().reads - reads;
    }
  }

  /// Pages this cursor's hints loaded (IoStats::DemandAccesses).
  uint64_t loads() const { return loads_; }

 private:
  AccessMethod* am_;
  const std::vector<ReadHint>& hints_;
  size_t end_ = 0;  // first entry not covered by a hint yet
  uint64_t loads_ = 0;
};

}  // namespace ccam

#endif  // CCAM_CORE_ACCESS_METHOD_H_
