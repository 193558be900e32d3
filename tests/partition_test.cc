#include "src/partition/partition.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/graph/generator.h"
#include "src/partition/bisect_internal.h"
#include "src/partition/recursive_bisection.h"
#include "src/storage/record.h"

namespace ccam {
namespace {

/// Two dense clusters joined by one bridge edge — any sensible bisection
/// cuts exactly the bridge.
Network TwoClusters() {
  Network net;
  for (NodeId id = 0; id < 8; ++id) {
    EXPECT_TRUE(net.AddNode(id, id < 4 ? 0.0 : 100.0, id % 4).ok());
  }
  auto clique = [&](NodeId base) {
    for (NodeId i = 0; i < 4; ++i) {
      for (NodeId j = i + 1; j < 4; ++j) {
        EXPECT_TRUE(net.AddBidirectionalEdge(base + i, base + j, 1.0f).ok());
      }
    }
  };
  clique(0);
  clique(4);
  EXPECT_TRUE(net.AddBidirectionalEdge(3, 4, 1.0f).ok());
  return net;
}

TEST(PartitionGraphTest, FromNetworkCollapsesDirectedPairs) {
  Network net = TwoClusters();
  PartitionGraph g =
      PartitionGraph::FromNetwork(net, net.NodeIds(), false);
  EXPECT_EQ(g.NumNodes(), 8u);
  // 13 undirected edges (6 + 6 + bridge), each a bidirectional pair, in a
  // single CSR allocation of symmetric entries.
  EXPECT_EQ(g.adj.size(), 2u * 13u);
  EXPECT_EQ(g.adj_start.size(), g.NumNodes() + 1);
  EXPECT_EQ(static_cast<size_t>(g.adj_start.back()), g.adj.size());
  // Each undirected edge weight = 2 (two directed edges of weight 1), and
  // each per-node neighbor range is sorted by target index.
  for (size_t i = 0; i < g.NumNodes(); ++i) {
    int prev = -1;
    for (const auto& e : g.Neighbors(static_cast<int>(i))) {
      EXPECT_DOUBLE_EQ(e.weight, 2.0);
      EXPECT_GT(e.to, prev);
      prev = e.to;
    }
  }
}

TEST(PartitionGraphTest, NodeSizesAreRecordSizes) {
  Network net = TwoClusters();
  PartitionGraph g =
      PartitionGraph::FromNetwork(net, net.NodeIds(), false, 4);
  for (size_t i = 0; i < g.NumNodes(); ++i) {
    EXPECT_EQ(g.node_sizes[i],
              RecordSizeOf(g.ids[i], net.node(g.ids[i])) + 4);
  }
}

TEST(PartitionGraphTest, AccessWeightsUsedWhenRequested) {
  Network net = TwoClusters();
  net.SetEdgeWeight(3, 4, 10.0);
  net.SetEdgeWeight(4, 3, 20.0);
  PartitionGraph g = PartitionGraph::FromNetwork(net, net.NodeIds(), true);
  double bridge_weight = 0.0;
  for (size_t i = 0; i < g.NumNodes(); ++i) {
    if (g.ids[i] != 3) continue;
    for (const auto& e : g.Neighbors(static_cast<int>(i))) {
      if (g.ids[e.to] == 4) bridge_weight = e.weight;
    }
  }
  EXPECT_DOUBLE_EQ(bridge_weight, 30.0);
}

TEST(PartitionGraphTest, SubsetRestricts) {
  Network net = TwoClusters();
  PartitionGraph g = PartitionGraph::FromNetwork(net, {0, 1, 2}, false);
  EXPECT_EQ(g.NumNodes(), 3u);
}

TEST(CrrTest, PerfectAndWorstClustering) {
  Network net = TwoClusters();
  NodePageMap same, split;
  for (NodeId id = 0; id < 8; ++id) {
    same[id] = 0;
    split[id] = id;  // every node on its own page
  }
  EXPECT_DOUBLE_EQ(ComputeCrr(net, same), 1.0);
  EXPECT_DOUBLE_EQ(ComputeCrr(net, split), 0.0);
}

TEST(CrrTest, BridgeOnlyCut) {
  Network net = TwoClusters();
  NodePageMap map;
  for (NodeId id = 0; id < 8; ++id) map[id] = id < 4 ? 0 : 1;
  // 26 directed edges total, 2 split (the bidirectional bridge).
  EXPECT_DOUBLE_EQ(ComputeCrr(net, map), 24.0 / 26.0);
}

TEST(CrrTest, UnmappedNodesCountAsSplit) {
  Network net = TwoClusters();
  NodePageMap map;  // empty
  EXPECT_DOUBLE_EQ(ComputeCrr(net, map), 0.0);
  Network empty;
  EXPECT_DOUBLE_EQ(ComputeCrr(empty, map), 1.0);  // vacuous
}

TEST(WcrrTest, WeightsShiftTheRatio) {
  Network net = TwoClusters();
  NodePageMap map;
  for (NodeId id = 0; id < 8; ++id) map[id] = id < 4 ? 0 : 1;
  // Make the (split) bridge dominate the weight mass.
  net.SetEdgeWeight(3, 4, 100.0);
  net.SetEdgeWeight(4, 3, 100.0);
  double wcrr = ComputeWcrr(net, map);
  EXPECT_DOUBLE_EQ(wcrr, 24.0 / 224.0);
  // Uniform weights: WCRR == CRR.
  net.ClearEdgeWeights();
  EXPECT_DOUBLE_EQ(ComputeWcrr(net, map), ComputeCrr(net, map));
}

class BisectionTest
    : public ::testing::TestWithParam<PartitionAlgorithm> {};

TEST_P(BisectionTest, FindsTheBridgeCut) {
  Network net = TwoClusters();
  PartitionGraph g = PartitionGraph::FromNetwork(net, net.NodeIds(), false);
  size_t min_side = g.TotalSize() / 4;
  Bisection b = TwoWayPartition(g, min_side, GetParam(), 11);
  ASSERT_EQ(b.side.size(), 8u);
  EXPECT_GE(b.size_a, min_side);
  EXPECT_GE(b.size_b, min_side);
  if (GetParam() != PartitionAlgorithm::kRandom) {
    // The heuristics must find the 1-bridge (undirected weight 2) cut.
    EXPECT_DOUBLE_EQ(b.cut_weight, 2.0);
    // Each clique lands on one side.
    for (NodeId id = 1; id < 4; ++id) EXPECT_EQ(b.side[id], b.side[0]);
    for (NodeId id = 5; id < 8; ++id) EXPECT_EQ(b.side[id], b.side[4]);
    EXPECT_NE(b.side[0], b.side[4]);
  }
}

TEST_P(BisectionTest, CutWeightMatchesAssignment) {
  Network net = GenerateMinneapolisLikeMap(17);
  std::vector<NodeId> ids = net.NodeIds();
  std::vector<NodeId> subset(ids.begin(), ids.begin() + 200);
  PartitionGraph g = PartitionGraph::FromNetwork(net, subset, false);
  Bisection b = TwoWayPartition(g, g.TotalSize() / 4, GetParam(), 5);
  EXPECT_DOUBLE_EQ(b.cut_weight, CutWeight(g, b.side));
  size_t sa, sb;
  SideSizes(g, b.side, &sa, &sb);
  EXPECT_EQ(sa, b.size_a);
  EXPECT_EQ(sb, b.size_b);
  EXPECT_GE(sa, g.TotalSize() / 4);
  EXPECT_GE(sb, g.TotalSize() / 4);
}

TEST_P(BisectionTest, HeuristicsBeatRandom) {
  if (GetParam() == PartitionAlgorithm::kRandom) GTEST_SKIP();
  Network net = GenerateMinneapolisLikeMap(23);
  std::vector<NodeId> ids = net.NodeIds();
  std::vector<NodeId> subset(ids.begin(), ids.begin() + 400);
  PartitionGraph g = PartitionGraph::FromNetwork(net, subset, false);
  Bisection smart = TwoWayPartition(g, g.TotalSize() / 4, GetParam(), 5);
  Bisection random =
      TwoWayPartition(g, g.TotalSize() / 4, PartitionAlgorithm::kRandom, 5);
  EXPECT_LT(smart.cut_weight, random.cut_weight * 0.5);
}

TEST_P(BisectionTest, DeterministicForSeed) {
  Network net = GenerateMinneapolisLikeMap(41);
  std::vector<NodeId> ids = net.NodeIds();
  std::vector<NodeId> subset(ids.begin(), ids.begin() + 300);
  PartitionGraph g = PartitionGraph::FromNetwork(net, subset, false);
  Bisection a = TwoWayPartition(g, g.TotalSize() / 4, GetParam(), 99);
  Bisection b = TwoWayPartition(g, g.TotalSize() / 4, GetParam(), 99);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(a.cut_weight, b.cut_weight);
}

TEST_P(BisectionTest, EmptyGraph) {
  PartitionGraph g;
  Bisection b = TwoWayPartition(g, 0, GetParam(), 1);
  EXPECT_TRUE(b.side.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, BisectionTest,
    ::testing::Values(PartitionAlgorithm::kRatioCut, PartitionAlgorithm::kFm,
                      PartitionAlgorithm::kKl, PartitionAlgorithm::kRandom),
    [](const ::testing::TestParamInfo<PartitionAlgorithm>& info) {
      std::string name = PartitionAlgorithmName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

class ClusterTest : public ::testing::TestWithParam<PartitionAlgorithm> {};

TEST_P(ClusterTest, PagesRespectCapacityAndPartitionNodes) {
  Network net = GenerateMinneapolisLikeMap(29);
  ClusterOptions options;
  options.page_capacity = 1020;
  options.per_record_overhead = 4;
  options.algorithm = GetParam();
  auto pages = ClusterNodesIntoPages(net, net.NodeIds(), options);
  ASSERT_TRUE(pages.ok());
  std::set<NodeId> seen;
  for (const auto& page : pages.value()) {
    EXPECT_FALSE(page.empty());
    size_t bytes = 0;
    for (NodeId id : page) {
      EXPECT_TRUE(seen.insert(id).second) << "node appears twice";
      bytes += RecordSizeOf(id, net.node(id)) + 4;
    }
    EXPECT_LE(bytes, options.page_capacity);
  }
  EXPECT_EQ(seen.size(), net.NumNodes());
}

TEST_P(ClusterTest, PagesAreReasonablyFull) {
  Network net = GenerateMinneapolisLikeMap(29);
  ClusterOptions options;
  options.page_capacity = 1020;
  options.algorithm = GetParam();
  auto pages = ClusterNodesIntoPages(net, net.NodeIds(), options);
  ASSERT_TRUE(pages.ok());
  size_t total_bytes = 0;
  for (NodeId id : net.NodeIds()) {
    total_bytes += RecordSizeOf(id, net.node(id)) + 4;
  }
  // Average fill must beat 50% (every 2-way split keeps sides above the
  // half-page minimum whenever possible).
  double avg_fill = static_cast<double>(total_bytes) /
                    (pages->size() * options.page_capacity);
  EXPECT_GT(avg_fill, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ClusterTest,
    ::testing::Values(PartitionAlgorithm::kRatioCut, PartitionAlgorithm::kFm,
                      PartitionAlgorithm::kKl, PartitionAlgorithm::kRandom),
    [](const ::testing::TestParamInfo<PartitionAlgorithm>& info) {
      std::string name = PartitionAlgorithmName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(ClusterTest2, SmallSubsetBecomesOnePage) {
  Network net = TwoClusters();
  ClusterOptions options;
  options.page_capacity = 4096;
  auto pages = ClusterNodesIntoPages(net, net.NodeIds(), options);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(pages->size(), 1u);
}

TEST(ClusterTest2, OversizedRecordRejected) {
  Network net;
  ASSERT_TRUE(net.AddNode(1, 0, 0, std::string(500, 'p')).ok());
  ClusterOptions options;
  options.page_capacity = 100;
  auto pages = ClusterNodesIntoPages(net, net.NodeIds(), options);
  EXPECT_TRUE(pages.status().IsNoSpace());
}

TEST(ClusterTest2, MissingSubsetNodeRejected) {
  Network net = TwoClusters();
  ClusterOptions options;
  auto pages = ClusterNodesIntoPages(net, {999}, options);
  EXPECT_TRUE(pages.status().IsInvalidArgument());
}

TEST(ClusterTest2, RatioCutBeatsRandomOnCrr) {
  Network net = GenerateMinneapolisLikeMap(31);
  ClusterOptions options;
  options.page_capacity = 1020;
  options.algorithm = PartitionAlgorithm::kRatioCut;
  auto smart = ClusterNodesIntoPages(net, net.NodeIds(), options);
  options.algorithm = PartitionAlgorithm::kRandom;
  auto random = ClusterNodesIntoPages(net, net.NodeIds(), options);
  ASSERT_TRUE(smart.ok());
  ASSERT_TRUE(random.ok());
  auto to_map = [](const std::vector<std::vector<NodeId>>& pages) {
    NodePageMap map;
    for (size_t p = 0; p < pages.size(); ++p) {
      for (NodeId id : pages[p]) map[id] = static_cast<PageId>(p);
    }
    return map;
  };
  double crr_smart = ComputeCrr(net, to_map(*smart));
  double crr_random = ComputeCrr(net, to_map(*random));
  EXPECT_GT(crr_smart, 0.55);
  EXPECT_GT(crr_smart, crr_random + 0.3);
}

TEST(RefineTest, PairwiseRefinementDoesNotHurt) {
  Network net = GenerateMinneapolisLikeMap(37);
  ClusterOptions options;
  options.page_capacity = 1020;
  options.algorithm = PartitionAlgorithm::kFm;
  auto pages = ClusterNodesIntoPages(net, net.NodeIds(), options);
  ASSERT_TRUE(pages.ok());
  auto to_map = [](const std::vector<std::vector<NodeId>>& pages) {
    NodePageMap map;
    for (size_t p = 0; p < pages.size(); ++p) {
      for (NodeId id : pages[p]) map[id] = static_cast<PageId>(p);
    }
    return map;
  };
  double before = ComputeCrr(net, to_map(*pages));
  std::vector<std::vector<NodeId>> refined = *pages;
  RefinePagesPairwise(net, &refined, options, 2);
  double after = ComputeCrr(net, to_map(refined));
  EXPECT_GE(after, before);
  // Refinement must preserve the node partition and page capacity.
  std::set<NodeId> seen;
  for (const auto& page : refined) {
    size_t bytes = 0;
    for (NodeId id : page) {
      EXPECT_TRUE(seen.insert(id).second);
      bytes += RecordSizeOf(id, net.node(id)) + 4;
    }
    EXPECT_LE(bytes, options.page_capacity);
  }
  EXPECT_EQ(seen.size(), net.NumNodes());
}

// A subproblem graph cut from its parent's must be the graph FromNetwork
// builds for the same ids: sizes, merged access weights and adjacency.
TEST(PartitionGraphTest, InducedEqualsFromNetworkOfTheKeptIds) {
  Network net = GenerateMinneapolisLikeMap(7);
  Random rng(3);
  for (NodeId u : net.NodeIds()) {
    for (const AdjEntry& e : net.node(u).succ) {
      net.SetEdgeWeight(u, e.node, 1 + rng.Uniform(9) * 0.25);
    }
  }
  std::vector<NodeId> ids = net.NodeIds();
  rng.Shuffle(&ids);
  ids.resize(600);
  const PartitionGraph parent =
      PartitionGraph::FromNetwork(net, ids, /*use_access_weights=*/true, 4);
  for (double p : {0.1, 0.5, 0.9}) {
    std::vector<bool> keep(parent.NumNodes());
    std::vector<NodeId> kept;
    for (size_t i = 0; i < keep.size(); ++i) {
      keep[i] = rng.Bernoulli(p);
      if (keep[i]) kept.push_back(parent.ids[i]);
    }
    const PartitionGraph cut = parent.Induced(keep);
    const PartitionGraph built = PartitionGraph::FromNetwork(net, kept, true, 4);
    EXPECT_EQ(cut.ids, built.ids);
    EXPECT_EQ(cut.node_sizes, built.node_sizes);
    EXPECT_EQ(cut.adj_start, built.adj_start);
    ASSERT_EQ(cut.adj.size(), built.adj.size());
    for (size_t k = 0; k < cut.adj.size(); ++k) {
      EXPECT_EQ(cut.adj[k].to, built.adj[k].to);
      EXPECT_EQ(cut.adj[k].weight, built.adj[k].weight);
    }
  }
}

// GainHeap against the ordered-set walk it replaced. One FM-style pass
// (take the highest feasible (gain, index), lock it, flip its side,
// re-score its unlocked neighbors) runs with each queue over seeded random
// graphs with varied node sizes, small integer weights (many gain ties)
// and a min_side_size tight enough that the best entry is often
// infeasible. The move sequences must be equal.
PartitionGraph RandomGraph(Random* rng) {
  const int n = 20 + static_cast<int>(rng->Uniform(120));
  std::set<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 3; ++k) {
      const int j = static_cast<int>(rng->Uniform(static_cast<uint32_t>(n)));
      if (j != i) edges.insert({std::min(i, j), std::max(i, j)});
    }
  }
  std::vector<std::vector<PartitionGraph::Adj>> lists(n);
  for (const auto& [a, b] : edges) {
    const double w = 1 + rng->Uniform(3);
    lists[a].push_back({b, w});
    lists[b].push_back({a, w});
  }
  PartitionGraph g;
  g.adj_start.push_back(0);
  for (int i = 0; i < n; ++i) {
    g.ids.push_back(static_cast<NodeId>(i));
    g.node_sizes.push_back(8 + rng->Uniform(200));
    std::sort(lists[i].begin(), lists[i].end(),
              [](const auto& x, const auto& y) { return x.to < y.to; });
    g.adj.insert(g.adj.end(), lists[i].begin(), lists[i].end());
    g.adj_start.push_back(static_cast<int>(g.adj.size()));
  }
  return g;
}

struct PassState {
  std::vector<bool> side;
  size_t a = 0, b = 0;
  std::vector<bool> locked;

  bool Feasible(const PartitionGraph& g, size_t min_side, int i) const {
    const size_t source = side[i] ? b : a;
    return source >= g.node_sizes[i] &&
           source - g.node_sizes[i] >= min_side;
  }
  void Move(const PartitionGraph& g, int i) {
    locked[i] = true;
    (side[i] ? b : a) -= g.node_sizes[i];
    (side[i] ? a : b) += g.node_sizes[i];
    side[i] = !side[i];
  }
};

std::vector<int> HeapPass(const PartitionGraph& g, PassState st,
                          size_t min_side, size_t* skips) {
  std::vector<double> gains(g.NumNodes());
  for (size_t i = 0; i < gains.size(); ++i) {
    gains[i] = partition_internal::MoveGain(g, st.side, static_cast<int>(i));
  }
  partition_internal::GainHeap heap(std::move(gains));
  std::vector<int> moves;
  while (true) {
    const int i = heap.BestFeasible([&](int j) {
      if (st.Feasible(g, min_side, j)) return true;
      ++*skips;
      return false;
    });
    if (i < 0) break;
    heap.Remove(i);
    st.Move(g, i);
    moves.push_back(i);
    for (const PartitionGraph::Adj& e : g.Neighbors(i)) {
      if (!st.locked[e.to]) {
        heap.Update(e.to, partition_internal::MoveGain(g, st.side, e.to));
      }
    }
  }
  return moves;
}

std::vector<int> OrderedSetPass(const PartitionGraph& g, PassState st,
                                size_t min_side, size_t* skips) {
  std::vector<double> gain(g.NumNodes());
  std::set<std::pair<double, int>> pq;
  for (size_t i = 0; i < gain.size(); ++i) {
    gain[i] = partition_internal::MoveGain(g, st.side, static_cast<int>(i));
    pq.insert({gain[i], static_cast<int>(i)});
  }
  std::vector<int> moves;
  while (!pq.empty()) {
    int chosen = -1;
    for (auto it = pq.rbegin(); it != pq.rend(); ++it) {
      if (st.Feasible(g, min_side, it->second)) {
        chosen = it->second;
        break;
      }
      ++*skips;
    }
    if (chosen < 0) break;
    pq.erase({gain[chosen], chosen});
    st.Move(g, chosen);
    moves.push_back(chosen);
    for (const PartitionGraph::Adj& e : g.Neighbors(chosen)) {
      if (st.locked[e.to]) continue;
      pq.erase({gain[e.to], e.to});
      gain[e.to] = partition_internal::MoveGain(g, st.side, e.to);
      pq.insert({gain[e.to], e.to});
    }
  }
  return moves;
}

TEST(GainHeapTest, PassMatchesOrderedSetWalk) {
  Random rng(2718);
  size_t skips = 0, heap_skips = 0;
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const PartitionGraph g = RandomGraph(&rng);
    PassState st;
    st.locked.assign(g.NumNodes(), false);
    for (size_t i = 0; i < g.NumNodes(); ++i) {
      st.side.push_back(rng.Bernoulli(0.5));
    }
    SideSizes(g, st.side, &st.a, &st.b);
    // Between 30% and 49% of the bytes: each side can give up only a few
    // nodes, and large nodes stop fitting first.
    const size_t min_side = g.TotalSize() * (30 + rng.Uniform(20)) / 100;
    const std::vector<int> expected = OrderedSetPass(g, st, min_side, &skips);
    EXPECT_EQ(HeapPass(g, st, min_side, &heap_skips), expected);
  }
  // The infeasible-skip path must have been taken, or the comparison
  // proves nothing about it.
  EXPECT_GT(skips, 0u);
  EXPECT_GT(heap_skips, 0u);
}

}  // namespace
}  // namespace ccam
