#ifndef CCAM_SHARD_SHARDED_NETWORK_FILE_H_
#define CCAM_SHARD_SHARDED_NETWORK_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/ccam.h"
#include "src/core/query_session.h"
#include "src/shard/shard_router.h"

namespace ccam {

class ShardedQuerySession;

/// One shard of a sharded network file: a plain CCAM file whose pages hold
/// the shard's owned nodes plus halo copies of every boundary neighbor.
/// Halo records are encoded from the same global network as the owner's
/// copy, so they are bit-identical — a query served from a halo copy
/// returns exactly what the owning shard would return.
///
/// Shard files are read-only after creation: mutating one copy of a
/// halo-replicated record would silently diverge the others, so every
/// mutation entry point returns NotSupported. Rebuild the shards from the
/// authoritative network instead.
class ShardFile : public Ccam {
 public:
  explicit ShardFile(const AccessMethodOptions& options)
      : Ccam(options, CcamCreateMode::kStatic) {}

  /// Materializes `pages` (owned + halo node sets) from the *global*
  /// network, so every stored record carries its complete adjacency.
  Status CreateShard(const Network& global,
                     const std::vector<std::vector<NodeId>>& pages) {
    return BuildFromAssignment(global, pages);
  }

  Status InsertNode(const NodeRecord&, ReorgPolicy) override {
    return Status::NotSupported("shard files are read-only (halo copies)");
  }
  Status DeleteNode(NodeId, ReorgPolicy) override {
    return Status::NotSupported("shard files are read-only (halo copies)");
  }
  Status InsertEdge(NodeId, NodeId, float, ReorgPolicy) override {
    return Status::NotSupported("shard files are read-only (halo copies)");
  }
  Status DeleteEdge(NodeId, NodeId, ReorgPolicy) override {
    return Status::NotSupported("shard files are read-only (halo copies)");
  }

  /// Halo records deliberately reference nodes owned by other shards, so
  /// the base class's every-endpoint-present symmetry check would reject
  /// every multi-shard file. The shard-local invariant is file-structural:
  /// every mapped record present, decodable, and indexed exactly once.
  /// Cross-shard closure (every boundary successor has a halo copy) is the
  /// ShardedNetworkFile's responsibility at build time.
  Status CheckGraphInvariants() override { return CheckFileInvariants(); }
};

/// Options of a sharded file: the per-shard access-method knobs plus the
/// shard count.
struct ShardedOptions {
  /// Number of shard files; must be a power of two (the coarse splitter is
  /// the same recursive bisection the page clustering uses). 1 collapses
  /// to a single plain CCAM file with bit-identical layout and accounting.
  uint32_t num_shards = 1;
  /// Applied to every shard file (page size, pool, partitioner, seed...).
  /// `hierarchy_overlay` must be off: a per-shard contraction hierarchy
  /// over a subgraph is not globally correct.
  AccessMethodOptions am;
};

/// A network split across N CCAM shard files, each with its own
/// DiskManager and BufferPool. The split reuses the deterministic
/// recursive-bisection partitioner one level up: shards are the coarse cut,
/// pages within each shard the fine cut, so the cut-minimizing property
/// that gives CCAM its CRR also keeps cross-shard edges — and therefore
/// cross-shard query traffic — low.
///
/// Each shard stores its owned nodes plus *halo* copies of every
/// cross-cut neighbor (successor or predecessor of an owned node that
/// lives in another shard). A query anchored at an owned node therefore
/// never needs a remote read to resolve one hop across the cut: the
/// neighbor's record is local, bit-identical to the owner's copy.
///
/// At num_shards == 1 the file *is* a plain CCAM file: same clustering
/// input, same seed, same page ids, same disk layout — the differential
/// oracle compares results and IoStats bit-for-bit against the unsharded
/// baseline.
///
/// As a ReadStore it is served like any other store: a QueryService over
/// it runs every request through facade sessions.
class ShardedNetworkFile : public ReadStore {
 public:
  explicit ShardedNetworkFile(const ShardedOptions& options);
  ~ShardedNetworkFile();

  /// Coarse-partitions `network` into num_shards owned sets, computes the
  /// halo of each, clusters each shard's node set into pages, and builds
  /// the shard files. Deterministic: the same network, options and shard
  /// count produce byte-identical shard files for any num_threads.
  Status Create(const Network& network);

  /// Writes each shard image to `path`.shard<k> and the owner-map
  /// manifest to `path`.shardmap.
  Status SaveImage(const std::string& path);

  /// Opens a previously saved sharded image set (manifest + shard
  /// images). The options must match the saved shard count.
  Status OpenImage(const std::string& path);

  uint32_t num_shards() const { return options_.num_shards; }
  NetworkFile* shard(uint32_t s) { return shards_[s].get(); }
  const ShardRouter& router() const { return router_; }

  /// Sum of the per-shard data-disk counters.
  IoStats DataIoStats() const;
  /// One shard's data-disk counters.
  IoStats ShardIoStats(uint32_t s) const;
  void ResetIoStats();

  /// Sum of the per-shard live data pages (halo copies included — they
  /// are real storage).
  size_t NumDataPages() const;

  /// Logical node -> composed page id (`local_page * num_shards + shard`),
  /// owned nodes only: halo copies are physical duplication, not logical
  /// placement. At 1 shard the composed id equals the local id, making
  /// the map bit-identical to the unsharded file's.
  const NodePageMap& PageMap() const { return page_of_; }

  /// Halo records stored by shard `s`, and their total.
  size_t NumHaloRecords(uint32_t s) const { return halo_counts_[s]; }
  size_t TotalHaloRecords() const;

  /// Directed edges of the source network whose endpoints live in
  /// different shards (the coarse analogue of 1 - CRR).
  uint64_t NumCutEdges() const { return cut_edges_; }

  /// Opens a read-only session routing every call to the owning shard's
  /// per-file session. One session per thread; any number of sessions may
  /// run concurrently.
  std::unique_ptr<ShardedQuerySession> OpenSession();

  /// ReadStore: the same session, and whether some shard owns `id`.
  std::unique_ptr<ReadSession> OpenReadSession() override;
  bool Contains(NodeId id) override {
    return router_.ShardOf(id) != ShardRouter::kInvalidShard;
  }

  /// Attaches `metrics` to every shard file (their disk./buffer_pool.*
  /// series aggregate across shards), the router ("shard.router.*"), and
  /// the facade's "shard.*" family. Null detaches.
  void SetMetrics(MetricsRegistry* metrics);
  MetricsRegistry* metrics() const { return metrics_; }

  /// Publishes point-in-time per-shard gauges: "shard.count",
  /// "shard.cut_edges", "shard.<k>.reads", "shard.<k>.pages",
  /// "shard.<k>.halo".
  void PublishShardMetrics();

 private:
  friend class ShardedQuerySession;

  /// Recursive-bisection coarse split of the whole network into
  /// num_shards owned sets (balanced record bytes, minimized cut), each
  /// ascending. Content-derived seeds: identical output for any thread
  /// count.
  Status CoarsePartition(const Network& network,
                         std::vector<std::vector<NodeId>>* owned) const;

  Status BuildShards(const Network& network,
                     const std::vector<std::vector<NodeId>>& owned);
  void RebuildComposedPageMap();
  void CountHalo();

  ShardedOptions options_;
  std::vector<std::unique_ptr<ShardFile>> shards_;
  ShardRouter router_;
  NodePageMap page_of_;
  std::vector<size_t> halo_counts_;
  uint64_t cut_edges_ = 0;
  MetricsRegistry* metrics_ = nullptr;
};

/// A read-only query stream over a ShardedNetworkFile, so every existing
/// query driver (route evaluation, A*, traversals, aggregation, the
/// spatial engine) runs against a sharded file unchanged. Each read routes
/// to the owning shard's QuerySession; per-shard accesses accumulate in
/// that session and DataIoStats() returns their sum, so the sharded
/// accounting sums exactly to the unsharded baseline on a 1-shard
/// configuration. The request context attaches to the facade alone: its
/// read prologue checks it once per read, before routing. One sharded
/// session per thread, like every ReadSession (its per-shard sessions
/// bind to the first reading thread too).
class ShardedQuerySession : public ReadSession {
 public:
  explicit ShardedQuerySession(ShardedNetworkFile* file);

  std::string Name() const override;

  /// Sum of this stream's per-shard session counters.
  IoStats DataIoStats() const override;
  /// This stream's accesses against shard `s` alone.
  IoStats ShardIoStats(uint32_t s) const;
  void ResetIoStats() override;

  const NodePageMap& PageMap() const override { return file_->PageMap(); }
  /// Shard 0's pool (interface requirement; per-shard pools are reached
  /// through file()->shard(s)->buffer_pool()).
  BufferPool* buffer_pool() override;
  size_t NumDataPages() const override { return file_->NumDataPages(); }

  /// Owned nodes only (ascending): halo copies must not be visible as
  /// live nodes or spatial builds and component sweeps would double-count
  /// boundary records.
  std::vector<NodeId> LiveNodeIds() const override;
  size_t NumLiveNodes() const override {
    return file_->router().NumOwnedNodes();
  }

  MetricsRegistry* metrics() const override { return file_->metrics(); }

  /// Sends each entry to the shard session that will serve its read: a
  /// Find to the owner's shard, a Get-A-successor to `from`'s shard (the
  /// halo copy it reads). Covers entries until one does not fit its
  /// shard's pool window, then issues each shard's part as one batch, so
  /// every shard pool sees the window demand order would fill. No part
  /// waits for the device (BufferPool::ReadAhead), so a window's parts are
  /// in flight together and its reads wait one latency, not one per shard.
  size_t ReadAhead(const ReadHint* hints, size_t n) override;

  /// Also moves every shard session to the calling thread.
  void RebindToCurrentThread() override;

  const ShardRouter& router() const { return file_->router(); }
  ShardedNetworkFile* file() const { return file_; }

  /// Edges this stream traversed whose endpoints live in different shards
  /// (each also bumps the "shard.cut_crossings" counter when metrics are
  /// attached). Counted by Get-A-successor, so route evaluation and the
  /// flat searches (A*, Dijkstra) both charge their cut edges here: a
  /// search reads each newly reached neighbour through it. A node the
  /// search already read in a page harvest is not read again when a cut
  /// edge first reaches it, so that crossing is not charged.
  uint64_t CutCrossings() const { return cut_crossings_; }

 protected:
  Result<NodeRecord> DoFind(NodeId id) override;
  Result<NodeRecord> DoGetASuccessor(NodeId from, NodeId to) override;
  Result<std::vector<NodeRecord>> DoGetSuccessors(NodeId id) override;

 private:
  /// The shard owning `id`, or NotFound.
  Result<uint32_t> OwnerOf(NodeId id) const;

  ShardedNetworkFile* file_;
  std::vector<std::unique_ptr<QuerySession>> sessions_;
  uint64_t cut_crossings_ = 0;
  MetricCounter* m_crossings_ = nullptr;
};

}  // namespace ccam

#endif  // CCAM_SHARD_SHARDED_NETWORK_FILE_H_
