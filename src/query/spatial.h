#ifndef CCAM_QUERY_SPATIAL_H_
#define CCAM_QUERY_SPATIAL_H_

#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/core/access_method.h"
#include "src/index/bptree.h"
#include "src/index/rtree.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"

namespace ccam {

/// Spatial secondary indexes over a network access method — the paper's
/// Section 2.1: "A B+ tree with Z-ordering of the x, y coordinates is used
/// to order the secondary index. It can support point and range queries on
/// spatial databases. Other access methods such as R-tree ... can
/// alternatively be created on top of the data file as secondary indices
/// in CCAM to suit the application."
///
/// The engine maintains both flavors over the same data file:
///  * a paged B+ tree keyed by the Z-order code of (x, y), scanned with
///    BIGMIN skipping for window queries, and
///  * an in-memory Guttman R-tree, used for window and k-nearest queries.
///
/// Per the paper's cost model, index I/O is tracked on its own simulated
/// disk and never pollutes the data-page counters; the interesting number
/// for a window query is how many *data* pages the result-record fetches
/// touch, which depends on the access method's clustering.
class SpatialQueryEngine {
 public:
  /// Which index answers the query.
  enum class IndexKind { kZOrderBTree, kRTree };

  /// Builds both indexes by scanning every record of `am` (the build scan
  /// does not count toward later query I/O). The engine holds a pointer to
  /// `am`; the caller must keep it alive and must rebuild the engine after
  /// inserting or deleting nodes (or use Insert/Remove below).
  static Result<std::unique_ptr<SpatialQueryEngine>> Build(AccessMethod* am);

  /// Keeps the indexes in sync with a node insert / delete.
  Status InsertNode(NodeId id, double x, double y);
  Status RemoveNode(NodeId id, double x, double y);

  struct WindowResult {
    std::vector<NodeRecord> records;
    uint64_t data_page_accesses = 0;
    /// Z-order scan diagnostics: leaf entries inspected vs. BIGMIN jumps
    /// taken (kZOrderBTree only).
    uint64_t entries_scanned = 0;
    uint64_t bigmin_jumps = 0;
  };

  /// All nodes with xmin <= x <= xmax, ymin <= y <= ymax; fetches their
  /// records through the access method (counted as data-page I/O).
  Result<WindowResult> WindowQuery(double xmin, double ymin, double xmax,
                                   double ymax,
                                   IndexKind kind = IndexKind::kZOrderBTree);

  struct NearestResult {
    std::vector<NodeRecord> records;  // nearest first
    uint64_t data_page_accesses = 0;
  };

  /// The k nodes nearest to (x, y) by Euclidean distance (R-tree).
  Result<NearestResult> NearestNeighbors(double x, double y, size_t k);

  size_t NumIndexedNodes() const { return rtree_.NumEntries(); }

 private:
  SpatialQueryEngine();

  uint64_t CodeOf(double x, double y) const;

  AccessMethod* am_ = nullptr;
  // Z-order B+ tree on its own simulated disk (index pages are "buffered"
  // per the cost model, but their I/O remains observable).
  std::unique_ptr<DiskManager> zdisk_;
  std::unique_ptr<BufferPool> zpool_;
  std::unique_ptr<BPlusTree> ztree_;
  RTree rtree_;
  double min_coord_ = 0.0;
  double max_coord_ = 0.0;
};

}  // namespace ccam

#endif  // CCAM_QUERY_SPATIAL_H_
