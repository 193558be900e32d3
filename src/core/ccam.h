#ifndef CCAM_CORE_CCAM_H_
#define CCAM_CORE_CCAM_H_

#include <string>
#include <vector>

#include "src/core/network_file.h"

namespace ccam {

/// How the CCAM data file is created.
enum class CcamCreateMode {
  /// CCAM-S: static create — partition the whole network at once with
  /// cluster-nodes-into-pages. Requires the network to fit in memory.
  kStatic,
  /// CCAM-D: incremental create — a sequence of Add-node() operations with
  /// incremental reclustering, for networks too large for a static
  /// partitioning pass (paper Section 2.2).
  kIncremental,
};

/// The order in which the incremental Create() streams Add-node()
/// operations. The stream order shapes the achievable CRR: spatially or
/// topologically coherent orders give every Add-node() useful neighbor
/// pages to join.
enum class CcamInsertOrder {
  /// Ascending node-id. Generators assign ids in Z-order, so this streams
  /// spatially coherent batches (the default).
  kNodeId,
  /// Breadth-first from a random start: topologically coherent.
  kBfs,
  /// Uniform random: the worst case, every insert lands "far" from the
  /// recent ones.
  kRandom,
};

const char* CcamInsertOrderName(CcamInsertOrder order);

/// The Connectivity-Clustered Access Method. Nodes are assigned to disk
/// pages by graph partitioning (ratio-cut by default) to maximize CRR /
/// WCRR; maintenance operations recluster per the configured reorganization
/// policy (paper Table 1).
class Ccam : public NetworkFile {
 public:
  /// `create_policy` is the reorganization policy Add-node() uses during an
  /// incremental create (the paper's CCAM-D uses second-order).
  explicit Ccam(const AccessMethodOptions& options,
                CcamCreateMode mode = CcamCreateMode::kStatic,
                ReorgPolicy create_policy = ReorgPolicy::kSecondOrder);

  std::string Name() const override;

  Status Create(const Network& network) override;

  /// Add-node() (paper Section 2.2): used by the incremental Create(). The
  /// record is written with its *complete* adjacency lists — unlike
  /// Insert(), no neighbor patching is needed, because every other node's
  /// record already carries (or will carry) the edge. Placement and
  /// reclustering work exactly as in Insert().
  Status AddNode(const NodeRecord& record, ReorgPolicy policy);

  CcamCreateMode create_mode() const { return mode_; }

  /// Sets the Add-node() stream order of the incremental Create(). Must
  /// be called before Create(); has no effect on the static mode.
  void SetIncrementalOrder(CcamInsertOrder order) { insert_order_ = order; }

 private:
  CcamCreateMode mode_;
  ReorgPolicy create_policy_;
  CcamInsertOrder insert_order_ = CcamInsertOrder::kNodeId;
};

}  // namespace ccam

#endif  // CCAM_CORE_CCAM_H_
