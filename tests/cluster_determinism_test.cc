// The task-parallel clustering pipeline promises bit-identical output for
// every value of num_threads: subproblem seeds are derived from node-id
// content (not spawn order), pages are emitted in subproblem-tree leaf
// order, and pairwise refinement runs pair-disjoint batches from a sorted
// pair list. These tests pin that contract for all four partitioners and
// for the end-to-end CCAM-S build (page map and CRR/WCRR bit-equality),
// and pin the pages and nested-dissection orders themselves by digest.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/coding.h"
#include "src/core/ccam.h"
#include "src/graph/generator.h"
#include "src/partition/nested_dissection.h"
#include "src/partition/recursive_bisection.h"
#include "src/storage/page.h"

namespace ccam {
namespace {

Network TestMap() { return GenerateMinneapolisLikeMap(1995); }

ClusterOptions BaseOptions(PartitionAlgorithm algo) {
  ClusterOptions o;
  o.page_capacity = 1024 - SlottedPage::kHeaderSize;
  o.per_record_overhead = SlottedPage::kSlotOverhead;
  o.algorithm = algo;
  return o;
}

constexpr PartitionAlgorithm kAllAlgorithms[] = {
    PartitionAlgorithm::kRatioCut, PartitionAlgorithm::kFm,
    PartitionAlgorithm::kKl, PartitionAlgorithm::kRandom};

TEST(ClusterDeterminismTest, PagesIdenticalAcrossThreadCounts) {
  Network net = TestMap();
  for (PartitionAlgorithm algo : kAllAlgorithms) {
    ClusterOptions o = BaseOptions(algo);
    o.num_threads = 1;
    auto sequential = ClusterNodesIntoPages(net, net.NodeIds(), o);
    ASSERT_TRUE(sequential.ok()) << PartitionAlgorithmName(algo);
    ASSERT_FALSE(sequential->empty());
    for (int threads : {2, 8}) {
      o.num_threads = threads;
      auto parallel = ClusterNodesIntoPages(net, net.NodeIds(), o);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(*sequential, *parallel)
          << PartitionAlgorithmName(algo) << " with " << threads
          << " threads diverged from the sequential clustering";
    }
  }
}

TEST(ClusterDeterminismTest, RefinementIdenticalAcrossThreadCounts) {
  Network net = TestMap();
  for (PartitionAlgorithm algo : kAllAlgorithms) {
    ClusterOptions o = BaseOptions(algo);
    o.num_threads = 1;
    auto base = ClusterNodesIntoPages(net, net.NodeIds(), o);
    ASSERT_TRUE(base.ok()) << PartitionAlgorithmName(algo);

    std::vector<std::vector<NodeId>> sequential = *base;
    int improved_seq = RefinePagesPairwise(net, &sequential, o, 2);
    for (int threads : {2, 8}) {
      std::vector<std::vector<NodeId>> parallel = *base;
      o.num_threads = threads;
      int improved_par = RefinePagesPairwise(net, &parallel, o, 2);
      EXPECT_EQ(improved_seq, improved_par) << PartitionAlgorithmName(algo);
      EXPECT_EQ(sequential, parallel)
          << PartitionAlgorithmName(algo) << " refinement with " << threads
          << " threads diverged from the sequential refinement";
    }
  }
}

TEST(ClusterDeterminismTest, RepeatedParallelRunsAreStable) {
  // Same thread count twice: scheduling nondeterminism between two runs of
  // the same configuration must not leak into the output either.
  Network net = TestMap();
  ClusterOptions o = BaseOptions(PartitionAlgorithm::kRatioCut);
  o.num_threads = 8;
  auto first = ClusterNodesIntoPages(net, net.NodeIds(), o);
  auto second = ClusterNodesIntoPages(net, net.NodeIds(), o);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

TEST(ClusterDeterminismTest, CrrInvariantUnderParallelCreate) {
  Network net = TestMap();
  AccessMethodOptions seq_opts;
  seq_opts.page_size = 1024;
  seq_opts.num_threads = 1;
  Ccam sequential(seq_opts, CcamCreateMode::kStatic);
  ASSERT_TRUE(sequential.Create(net).ok());

  AccessMethodOptions par_opts = seq_opts;
  par_opts.num_threads = 8;
  Ccam parallel(par_opts, CcamCreateMode::kStatic);
  ASSERT_TRUE(parallel.Create(net).ok());

  EXPECT_EQ(sequential.PageMap(), parallel.PageMap());
  // Bit-equal, not approximately equal: identical page maps imply the
  // ratios are computed from identical inputs.
  double crr_seq = ComputeCrr(net, sequential.PageMap());
  double crr_par = ComputeCrr(net, parallel.PageMap());
  EXPECT_EQ(crr_seq, crr_par);
  EXPECT_EQ(ComputeWcrr(net, sequential.PageMap()),
            ComputeWcrr(net, parallel.PageMap()));
  EXPECT_GT(crr_seq, 0.0);
}

TEST(ClusterDeterminismTest, DefaultThreadCountMatchesExplicitOne) {
  // num_threads = 0 resolves to hardware concurrency; whatever that is on
  // the host, the assignment must match the sequential path.
  Network net = TestMap();
  ClusterOptions o = BaseOptions(PartitionAlgorithm::kRatioCut);
  o.num_threads = 1;
  auto sequential = ClusterNodesIntoPages(net, net.NodeIds(), o);
  o.num_threads = 0;
  auto defaulted = ClusterNodesIntoPages(net, net.NodeIds(), o);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(*sequential, *defaulted);
}

// The outputs themselves are pinned, not only their agreement across
// thread counts: the CRC32C of every partitioner's pages and of its
// nested-dissection order, on the Minneapolis-like map and a 64x64 road
// map. A faster bisection kernel must reproduce these bytes exactly.
struct GoldenMap {
  std::string name;
  Network net;
};

std::vector<GoldenMap> GoldenMaps() {
  RoadMapOptions road;
  road.rows = 64;
  road.cols = 64;
  road.nodes_to_remove = 16;
  road.seed = 1995;
  std::vector<GoldenMap> maps;
  maps.push_back({"minneapolis", TestMap()});
  maps.push_back({"road-64", GenerateRoadMap(road)});
  return maps;
}

uint32_t Digest(const std::vector<std::vector<NodeId>>& lists) {
  std::string bytes;
  for (const std::vector<NodeId>& list : lists) {
    PutFixed32(&bytes, static_cast<uint32_t>(list.size()));
    for (NodeId id : list) PutFixed32(&bytes, id);
  }
  return Crc32c(bytes.data(), bytes.size());
}

TEST(ClusterDeterminismTest, PagesMatchGoldenDigests) {
  struct Golden {
    size_t pages;
    uint32_t crc;
    uint32_t refined_crc;  // after two pairwise refinement rounds
  };
  // [map][algorithm], algorithms in kAllAlgorithms order.
  const Golden golden[2][4] = {
      {{134, 0xb4ce7e74, 0xad8fb2e4},
       {131, 0x05021c3a, 0x8d1f3704},
       {128, 0x9267ca59, 0x8632f264},
       {128, 0x3093236e, 0x97305394}},
      {{501, 0x0a75b464, 0xd98658f8},
       {507, 0x2df53197, 0x6fab8ead},
       {512, 0x63c1b288, 0xaa00f396},
       {512, 0x6c49a428, 0xdb8851c3}}};
  const std::vector<GoldenMap> maps = GoldenMaps();
  for (size_t m = 0; m < maps.size(); ++m) {
    for (size_t a = 0; a < 4; ++a) {
      const PartitionAlgorithm algo = kAllAlgorithms[a];
      SCOPED_TRACE(maps[m].name + " " + PartitionAlgorithmName(algo));
      auto pages = ClusterNodesIntoPages(maps[m].net, maps[m].net.NodeIds(),
                                         BaseOptions(algo));
      ASSERT_TRUE(pages.ok());
      EXPECT_EQ(pages->size(), golden[m][a].pages);
      EXPECT_EQ(Digest(*pages), golden[m][a].crc);
      RefinePagesPairwise(maps[m].net, &*pages, BaseOptions(algo), 2);
      EXPECT_EQ(Digest(*pages), golden[m][a].refined_crc);
    }
  }
}

TEST(ClusterDeterminismTest, NestedDissectionMatchesGoldenDigests) {
  struct Golden {
    size_t nodes;
    uint32_t crc;
  };
  const Golden golden[2][4] = {
      {{1079, 0x080dc695}, {1079, 0x23333b0f},
       {1079, 0xc362ca7c}, {1079, 0x3eb53321}},
      {{4080, 0x2c673a7d}, {4080, 0x74337513},
       {4080, 0xa6237110}, {4080, 0x07ee1ffc}}};
  const std::vector<GoldenMap> maps = GoldenMaps();
  for (size_t m = 0; m < maps.size(); ++m) {
    for (size_t a = 0; a < 4; ++a) {
      NestedDissectionOptions options;
      options.algorithm = kAllAlgorithms[a];
      SCOPED_TRACE(maps[m].name + " " +
                   PartitionAlgorithmName(options.algorithm));
      auto order =
          NestedDissectionOrder(maps[m].net, maps[m].net.NodeIds(), options);
      ASSERT_TRUE(order.ok());
      EXPECT_EQ(order->size(), golden[m][a].nodes);
      EXPECT_EQ(Digest({*order}), golden[m][a].crc);
    }
  }
}

}  // namespace
}  // namespace ccam
