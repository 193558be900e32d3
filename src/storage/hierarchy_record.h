#ifndef CCAM_STORAGE_HIERARCHY_RECORD_H_
#define CCAM_STORAGE_HIERARCHY_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/graph/network.h"

namespace ccam {

/// One arc of the contraction-hierarchy overlay. `via` is the contracted
/// middle node a shortcut bypasses, or kInvalidNodeId for an original
/// network edge — the recursion anchor of shortcut unpacking. Costs are
/// doubles: a shortcut's cost is the *sum* of original (float) edge costs,
/// and the oracle contract is that CH distances equal Dijkstra's
/// double-accumulated distances.
struct HierarchyArc {
  NodeId node = kInvalidNodeId;  // the other endpoint
  double cost = 0.0;
  NodeId via = kInvalidNodeId;

  friend bool operator==(const HierarchyArc& a, const HierarchyArc& b) {
    return a.node == b.node && a.cost == b.cost && a.via == b.via;
  }
};

/// Fixed record prefix: id u32 + rank u32 + up count u16 + down count u16.
constexpr size_t kHierarchyRecordFixedBytes = 12;
/// Per-arc bytes: endpoint u32 + cost f64 + via u32.
constexpr size_t kHierarchyArcBytes = 16;

/// On-page record of one node of the contraction hierarchy: its rank in
/// the nested-dissection elimination order and its upward/downward
/// shortcut-graph adjacency. Every arc points to a *higher-ranked*
/// endpoint: `up` holds outgoing arcs id -> node, `down` holds incoming
/// arcs node -> id (stored here because the lower-ranked endpoint is the
/// one contracted — and hence frozen — first).
///
/// Layout (little-endian):
///   id        u32
///   rank      u32
///   up_count  u16
///   down_count u16
///   up arcs   up_count   x { node u32, cost f64, via u32 }
///   down arcs down_count x { node u32, cost f64, via u32 }
struct HierarchyNodeRecord {
  NodeId id = kInvalidNodeId;
  uint32_t rank = 0;
  std::vector<HierarchyArc> up;
  std::vector<HierarchyArc> down;

  size_t EncodedSize() const {
    return kHierarchyRecordFixedBytes +
           (up.size() + down.size()) * kHierarchyArcBytes;
  }

  /// Appends the encoded record to `out`.
  void EncodeTo(std::string* out) const;

  static Result<HierarchyNodeRecord> Decode(std::string_view bytes);

  /// Reads just the node id from an encoded record (the page-scan probe).
  static NodeId PeekId(std::string_view bytes);

  /// The upward arc to `node` / the downward arc from `node`; NotFound when
  /// absent. Shortcut unpacking resolves the two halves of a shortcut
  /// through its middle node's record with these.
  Result<HierarchyArc> UpArcTo(NodeId node) const;
  Result<HierarchyArc> DownArcFrom(NodeId node) const;
};

/// Magic stamped on the overlay's metadata record ("CHOV").
constexpr uint32_t kHierarchyMetaMagic = 0x43484f56;
constexpr uint32_t kHierarchyFormatVersion = 1;

/// Metadata record of the overlay file, stored alone on page 0 and written
/// last during the build: an overlay image whose page 0 holds no sealed
/// metadata record is "no overlay", never a half-trusted one.
struct HierarchyMeta {
  uint32_t version = kHierarchyFormatVersion;
  uint64_t num_nodes = 0;
  uint64_t num_shortcuts = 0;

  size_t EncodedSize() const { return 4 + 4 + 8 + 8; }
  void EncodeTo(std::string* out) const;
  static Result<HierarchyMeta> Decode(std::string_view bytes);
};

}  // namespace ccam

#endif  // CCAM_STORAGE_HIERARCHY_RECORD_H_
