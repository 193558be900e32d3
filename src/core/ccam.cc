#include "src/core/ccam.h"

#include <algorithm>

#include "src/common/random.h"
#include "src/graph/orders.h"
#include "src/partition/recursive_bisection.h"

namespace ccam {

const char* CcamInsertOrderName(CcamInsertOrder order) {
  switch (order) {
    case CcamInsertOrder::kNodeId:
      return "z-order";
    case CcamInsertOrder::kBfs:
      return "bfs";
    case CcamInsertOrder::kRandom:
      return "random";
  }
  return "unknown";
}

Ccam::Ccam(const AccessMethodOptions& options, CcamCreateMode mode,
           ReorgPolicy create_policy)
    : NetworkFile(options), mode_(mode), create_policy_(create_policy) {}

std::string Ccam::Name() const {
  return mode_ == CcamCreateMode::kStatic ? "CCAM-S" : "CCAM-D";
}

Status Ccam::Create(const Network& network) {
  if (mode_ == CcamCreateMode::kStatic) {
    ClusterOptions copts;
    copts.page_capacity = PageCapacity();
    copts.per_record_overhead = SlottedPage::kSlotOverhead;
    copts.algorithm = options_.partitioner;
    copts.use_access_weights = options_.use_access_weights;
    copts.min_fill_fraction = options_.cluster_min_fill;
    copts.seed = options_.seed;
    copts.num_threads = options_.num_threads;
    std::vector<std::vector<NodeId>> pages;
    CCAM_ASSIGN_OR_RETURN(
        pages, ClusterNodesIntoPages(network, network.NodeIds(), copts));
    return BuildFromAssignment(network, pages);
  }

  // Incremental create: a sequence of Add-node() operations. Records
  // carry their complete adjacency lists up front.
  std::vector<NodeId> order = network.NodeIds();  // ascending = Z-order
  switch (insert_order_) {
    case CcamInsertOrder::kNodeId:
      break;
    case CcamInsertOrder::kBfs: {
      Random rng(options_.seed);
      NodeId start =
          order[rng.Uniform(static_cast<uint32_t>(order.size()))];
      order = BfsOrder(network, start);
      break;
    }
    case CcamInsertOrder::kRandom: {
      Random rng(options_.seed);
      rng.Shuffle(&order);
      break;
    }
  }
  for (NodeId id : order) {
    NodeRecord rec = NodeRecord::FromNetworkNode(id, network.node(id));
    CCAM_RETURN_NOT_OK(AddNode(rec, create_policy_));
  }
  disk_.ResetStats();
  if (index_disk_) index_disk_->ResetStats();
  if (options_.hierarchy_overlay) {
    // Each AddNode above invalidated any overlay; build it once the file
    // is complete. The source network is still in hand — no rescan.
    CCAM_RETURN_NOT_OK(BuildHierarchyOverlayFromNetwork(network));
  }
  return Status::OK();
}

Status Ccam::AddNode(const NodeRecord& record, ReorgPolicy policy) {
  InvalidateHierarchyOverlay();
  last_op_structural_ = false;
  if (page_of_.count(record.id) > 0) {
    return Status::AlreadyExists("node " + std::to_string(record.id));
  }
  if (record.EncodedSize() + SlottedPage::kSlotOverhead > PageCapacity()) {
    return Status::NoSpace("record larger than a page");
  }
  PageId target = ChoosePageForInsert(record);
  if (target == kInvalidPageId) {
    CCAM_ASSIGN_OR_RETURN(target, NewDataPage());
  }
  CCAM_RETURN_NOT_OK(AddRecordToPage(target, record));
  OnRecordPlaced(record.id, target);

  if (policy != ReorgPolicy::kFirstOrder) {
    std::vector<PageId> touched = PagesOfNeighbors(record);
    touched.push_back(target);
    if (policy == ReorgPolicy::kHigherOrder) {
      std::vector<PageId> extra;
      CCAM_ASSIGN_OR_RETURN(extra, NbrPages(target));
      touched.insert(touched.end(), extra.begin(), extra.end());
    }
    CCAM_RETURN_NOT_OK(ReorganizeForPolicy(policy, std::move(touched)));
  }
  return FinishUpdate();
}

}  // namespace ccam
