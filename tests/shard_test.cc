// Differential oracle, accounting-conservation, determinism, persistence
// and concurrency tests for the sharded network file (src/shard/):
//
//  * at 1 shard the sharded file IS the unsharded file — page map, disk
//    image behavior and per-query IoStats must match bit for bit;
//  * at 2/4/8 shards every route / aggregate / spatial / shortest-path
//    result must equal the unsharded baseline's (500+ route pairs across
//    the shard counts), with the halo copies keeping every cross-cut hop
//    local;
//  * per-shard session IoStats must sum exactly to the shard disks' reads
//    (the QuerySession conservation contract, lifted over the router);
//  * the coarse split and the router must be a pure function of the input
//    (identical across runs and thread counts);
//  * 8 concurrent reader threads must keep results and the conservation
//    ledger intact (run under TSan via scripts/check_tsan.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/request_context.h"
#include "src/core/ccam.h"
#include "src/core/query_session.h"
#include "src/graph/generator.h"
#include "src/graph/route.h"
#include "src/query/search.h"
#include "src/query/spatial.h"
#include "src/shard/shard_query.h"
#include "src/shard/sharded_network_file.h"
#include "tests/demand_order.h"

namespace ccam {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

AccessMethodOptions BaseOptions() {
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 8;
  return options;
}

const Network& PaperNet() {
  static const Network* net = new Network(GenerateMinneapolisLikeMap(1995));
  return *net;
}

std::unique_ptr<Ccam> MakeBaseline(const Network& net) {
  auto am = std::make_unique<Ccam>(BaseOptions(), CcamCreateMode::kStatic);
  EXPECT_TRUE(am->Create(net).ok());
  return am;
}

std::unique_ptr<ShardedNetworkFile> MakeSharded(const Network& net,
                                                uint32_t num_shards,
                                                int num_threads = 0) {
  ShardedOptions sopts;
  sopts.num_shards = num_shards;
  sopts.am = BaseOptions();
  sopts.am.num_threads = num_threads;
  auto file = std::make_unique<ShardedNetworkFile>(sopts);
  EXPECT_TRUE(file->Create(net).ok()) << num_shards << " shards";
  return file;
}

std::vector<Route> OracleRoutes(const Network& net, int count,
                                uint64_t seed) {
  return GenerateRandomWalkRoutes(net, count, /*length=*/12, seed);
}

/// The route-unit made of a route's edges.
RouteUnit UnitOf(const Route& route) {
  RouteUnit unit;
  for (size_t i = 1; i < route.nodes.size(); ++i) {
    unit.edges.emplace_back(route.nodes[i - 1], route.nodes[i]);
  }
  return unit;
}

// --- 1-shard bit-identicality --------------------------------------------

TEST(ShardOracleTest, OneShardIsBitIdenticalToUnsharded) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto sharded = MakeSharded(net, 1);

  // Identical logical placement: composed ids collapse to local ids.
  ASSERT_EQ(baseline->PageMap().size(), sharded->PageMap().size());
  for (const auto& kv : baseline->PageMap()) {
    auto it = sharded->PageMap().find(kv.first);
    ASSERT_NE(it, sharded->PageMap().end()) << "node " << kv.first;
    EXPECT_EQ(it->second, kv.second) << "node " << kv.first;
  }
  EXPECT_EQ(baseline->NumDataPages(), sharded->NumDataPages());
  EXPECT_EQ(sharded->NumCutEdges(), 0u);
  EXPECT_EQ(sharded->TotalHaloRecords(), 0u);

  // Identical accounting, query by query: both files replay the same
  // workload from a cold pool; every per-query access count and the
  // summed IoStats must match exactly.
  auto base_session = baseline->OpenSession();
  auto shard_session = sharded->OpenSession();
  std::vector<Route> routes = OracleRoutes(net, 100, 7);
  for (const Route& route : routes) {
    auto want = EvaluateRoute(base_session.get(), route);
    auto got = EvaluateRoute(shard_session.get(), route);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->total_cost, want->total_cost);
    EXPECT_EQ(got->num_edges, want->num_edges);
    EXPECT_EQ(got->page_accesses, want->page_accesses);
  }
  IoStats want_io = base_session->DataIoStats();
  IoStats got_io = shard_session->DataIoStats();
  EXPECT_EQ(got_io.reads, want_io.reads);
  EXPECT_EQ(got_io.writes, want_io.writes);
  EXPECT_EQ(baseline->DataIoStats().reads, sharded->DataIoStats().reads);
  EXPECT_EQ(shard_session->CutCrossings(), 0u);
}

// --- Differential oracle at 2/4/8 shards ---------------------------------

TEST(ShardOracleTest, RouteResultsMatchUnshardedAcrossShardCounts) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto base_session = baseline->OpenSession();

  // 3 shard counts x 200 routes = 600 differential pairs.
  for (uint32_t shards : {2u, 4u, 8u}) {
    auto sharded = MakeSharded(net, shards);
    auto session = sharded->OpenSession();
    std::vector<Route> routes = OracleRoutes(net, 200, 1995 + shards);
    size_t multi = 0;
    for (const Route& route : routes) {
      auto want = EvaluateRoute(base_session.get(), route);
      ASSERT_TRUE(want.ok());

      // The facade session replays the identical call sequence, so even
      // the floating-point cost accumulates in the same order.
      auto facade = EvaluateRoute(session.get(), route);
      ASSERT_TRUE(facade.ok());
      EXPECT_EQ(facade->total_cost, want->total_cost);
      EXPECT_EQ(facade->num_edges, want->num_edges);

      const size_t fanout =
          sharded->router().PlanFor(route.nodes).shards.size();
      EXPECT_GE(fanout, 1u);
      EXPECT_LE(fanout, shards);
      if (fanout > 1) ++multi;
    }
    // The partitioner keeps shards coherent, but 200 random walks across
    // 2+ shards must cross at least once — otherwise the oracle is not
    // actually exercising cross-shard routing.
    EXPECT_GT(multi, 0u) << shards << " shards";
    EXPECT_GT(session->CutCrossings(), 0u) << shards << " shards";
  }
}

TEST(ShardOracleTest, AggregateAndTourMatchUnsharded) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto base_session = baseline->OpenSession();
  for (uint32_t shards : {2u, 4u, 8u}) {
    auto sharded = MakeSharded(net, shards);
    auto session = sharded->OpenSession();
    std::vector<Route> routes = OracleRoutes(net, 40, 42 + shards);
    size_t tours = 0;
    for (const Route& route : routes) {
      // There and back: a tour wherever every street is two-way.
      Route tour = route;
      tour.nodes.insert(tour.nodes.end(), route.nodes.rbegin() + 1,
                        route.nodes.rend());
      auto want_tour = EvaluateTour(base_session.get(), tour);
      auto got_tour = EvaluateTour(session.get(), tour);
      ASSERT_EQ(got_tour.ok(), want_tour.ok());
      if (want_tour.ok()) {
        ++tours;
        EXPECT_EQ(got_tour->total_cost, want_tour->total_cost);
        EXPECT_EQ(got_tour->num_edges, want_tour->num_edges);
      }

      const RouteUnit unit = UnitOf(route);
      auto want = AggregateRouteUnit(base_session.get(), unit);
      ASSERT_TRUE(want.ok());
      auto got = AggregateRouteUnit(session.get(), unit);
      ASSERT_TRUE(got.ok());
      EXPECT_DOUBLE_EQ(got->total_edge_cost, want->total_edge_cost);
      EXPECT_EQ(got->min_edge_cost, want->min_edge_cost);
      EXPECT_EQ(got->max_edge_cost, want->max_edge_cost);
      EXPECT_EQ(got->num_edges, want->num_edges);
      EXPECT_EQ(got->num_nodes, want->num_nodes);
    }
    EXPECT_GT(tours, 0u) << shards << " shards";
  }
}

TEST(ShardOracleTest, SpatialAndShortestPathMatchUnsharded) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto base_session = baseline->OpenSession();
  auto base_engine = SpatialQueryEngine::Build(base_session.get());
  ASSERT_TRUE(base_engine.ok());
  const std::vector<NodeId> ids = base_session->LiveNodeIds();
  std::vector<std::pair<NodeId, NodeId>> long_pairs;
  for (size_t i = 0; long_pairs.size() < 24; ++i) {
    NodeId from = ids[(i * 131) % ids.size()];
    NodeId to = ids[(i * 197 + 89) % ids.size()];
    const NetworkNode& a = net.node(from);
    const NetworkNode& b = net.node(to);
    if (std::hypot(a.x - b.x, a.y - b.y) >= 1500.0) {
      long_pairs.emplace_back(from, to);
    }
  }

  for (uint32_t shards : {2u, 4u, 8u}) {
    auto sharded = MakeSharded(net, shards);
    auto session = sharded->OpenSession();

    // The facade exposes owned nodes only, so the spatial build sees the
    // same live set as the unsharded file — no double-counted halos.
    ASSERT_EQ(session->LiveNodeIds(), base_session->LiveNodeIds());
    auto engine = SpatialQueryEngine::Build(session.get());
    ASSERT_TRUE(engine.ok());

    const double windows[][4] = {{0, 0, 400, 400},
                                 {100, 100, 900, 500},
                                 {-50, -50, 2000, 2000},
                                 {300, 0, 600, 1200}};
    for (const auto& w : windows) {
      auto want = (*base_engine)->WindowQuery(w[0], w[1], w[2], w[3]);
      auto got = (*engine)->WindowQuery(w[0], w[1], w[2], w[3]);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      std::set<NodeId> want_ids, got_ids;
      for (const NodeRecord& r : want->records) want_ids.insert(r.id);
      for (const NodeRecord& r : got->records) got_ids.insert(r.id);
      EXPECT_EQ(got_ids, want_ids);
    }

    for (int i = 0; i < 12; ++i) {
      NodeId from = ids[(i * 131) % ids.size()];
      NodeId to = ids[(i * 197 + 89) % ids.size()];
      auto want = ShortestPathAStar(base_session.get(), from, to);
      auto got = ShortestPathAStar(session.get(), from, to);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->Found(), want->Found());
      if (want->Found()) {
        EXPECT_DOUBLE_EQ(got->cost, want->cost);
        EXPECT_EQ(got->path, want->path);
        EXPECT_EQ(got->nodes_expanded, want->nodes_expanded);
      }
    }

    // Long searches on cold pools outgrow the 8-page pools and harvest
    // the pages they miss; a node read from a halo copy sits on a page the
    // composed PageMap() does not name.
    int outgrew = 0;
    for (auto [from, to] : long_pairs) {
      SCOPED_TRACE(::testing::Message() << shards << " shards, " << from
                                        << " -> " << to);
      ASSERT_TRUE(baseline->buffer_pool()->Reset().ok());
      for (uint32_t s = 0; s < shards; ++s) {
        ASSERT_TRUE(sharded->shard(s)->buffer_pool()->Reset().ok());
      }
      auto want = ShortestPathAStar(base_session.get(), from, to);
      auto got = ShortestPathAStar(session.get(), from, to);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->path, want->path);
      EXPECT_DOUBLE_EQ(got->cost, want->cost);
      EXPECT_EQ(got->nodes_expanded, want->nodes_expanded);
      if (got->page_accesses > BaseOptions().buffer_pool_pages) ++outgrew;
    }
    EXPECT_GT(outgrew * 2, static_cast<int>(long_pairs.size()));
  }
}

// --- Halo closure ---------------------------------------------------------

TEST(ShardFileTest, EveryNeighborOfAnOwnedNodeIsLocal) {
  const Network& net = PaperNet();
  auto sharded = MakeSharded(net, 4);
  for (uint32_t s = 0; s < 4; ++s) {
    const NodePageMap& present = sharded->shard(s)->PageMap();
    for (NodeId u : sharded->router().OwnedBy(s)) {
      for (NodeId v : net.Neighbors(u)) {
        EXPECT_TRUE(present.count(v))
            << "shard " << s << ": neighbor " << v << " of owned node " << u
            << " has no local (halo) record";
      }
    }
  }
  // Halo copies are bit-identical to the owner's record.
  auto session = sharded->OpenSession();
  for (uint32_t s = 0; s < 4; ++s) {
    auto shard_sess = sharded->shard(s)->OpenSession();
    int checked = 0;
    for (const auto& kv : sharded->shard(s)->PageMap()) {
      if (sharded->router().ShardOf(kv.first) == s) continue;  // owned
      auto halo = shard_sess->Find(kv.first);
      auto owner = session->Find(kv.first);
      ASSERT_TRUE(halo.ok());
      ASSERT_TRUE(owner.ok());
      EXPECT_TRUE(*halo == *owner) << "halo copy of " << kv.first;
      if (++checked >= 25) break;  // sample; full sweep is O(halo * pages)
    }
    EXPECT_GT(checked, 0) << "shard " << s << " has no halo records";
  }
}

// --- IoStats conservation -------------------------------------------------

TEST(ShardIoStatsTest, SessionStatsSumToShardDiskReads) {
  const Network& net = PaperNet();
  auto sharded = MakeSharded(net, 4);
  sharded->ResetIoStats();
  auto session = sharded->OpenSession();
  std::vector<Route> routes = OracleRoutes(net, 120, 3);
  for (const Route& route : routes) {
    ASSERT_TRUE(EvaluateRoute(session.get(), route).ok());
  }
  // Facade sum == per-shard sum == the shard disks' global read counters
  // (single session, cold pools: every miss is this session's miss).
  uint64_t per_shard_sessions = 0;
  uint64_t per_shard_disks = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    per_shard_sessions += session->ShardIoStats(s).reads;
    per_shard_disks += sharded->ShardIoStats(s).reads;
  }
  EXPECT_EQ(session->DataIoStats().reads, per_shard_sessions);
  EXPECT_EQ(per_shard_sessions, per_shard_disks);
  EXPECT_EQ(sharded->DataIoStats().reads, per_shard_disks);
  EXPECT_GT(per_shard_disks, 0u);
}

// --- Determinism ----------------------------------------------------------

TEST(ShardRouterTest, AssignmentIdenticalAcrossRunsAndThreadCounts) {
  const Network& net = PaperNet();
  auto one = MakeSharded(net, 4, /*num_threads=*/1);
  auto eight = MakeSharded(net, 4, /*num_threads=*/8);
  auto again = MakeSharded(net, 4, /*num_threads=*/1);

  EXPECT_EQ(one->router().Fingerprint(), eight->router().Fingerprint());
  EXPECT_EQ(one->router().Fingerprint(), again->router().Fingerprint());
  ASSERT_EQ(one->PageMap().size(), eight->PageMap().size());
  for (const auto& kv : one->PageMap()) {
    auto it = eight->PageMap().find(kv.first);
    ASSERT_NE(it, eight->PageMap().end());
    EXPECT_EQ(it->second, kv.second);
  }

  // Strongest form: the shard images themselves are byte-identical.
  ASSERT_TRUE(one->SaveImage(TempPath("det_a.img")).ok());
  ASSERT_TRUE(eight->SaveImage(TempPath("det_b.img")).ok());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(
        ReadFileBytes(TempPath("det_a.img.shard" + std::to_string(s))),
        ReadFileBytes(TempPath("det_b.img.shard" + std::to_string(s))))
        << "shard " << s;
  }
  EXPECT_EQ(ReadFileBytes(TempPath("det_a.img.shardmap")),
            ReadFileBytes(TempPath("det_b.img.shardmap")));
}

TEST(ShardRouterTest, PlanForReturnsMinimalShardSet) {
  const Network& net = PaperNet();
  auto sharded = MakeSharded(net, 4);
  const ShardRouter& router = sharded->router();

  std::vector<NodeId> owned0 = router.OwnedBy(0);
  ASSERT_GE(owned0.size(), 3u);
  ShardPlan single = router.PlanFor({owned0[0], owned0[1], owned0[2]});
  EXPECT_TRUE(single.single());
  EXPECT_EQ(single.shards[0], 0u);

  std::vector<NodeId> owned3 = router.OwnedBy(3);
  ASSERT_FALSE(owned3.empty());
  ShardPlan multi = router.PlanFor({owned0[0], owned3[0], owned0[1]});
  EXPECT_EQ(multi.shards, (std::vector<uint32_t>{0u, 3u}));

  // Unknown nodes are skipped, not planned.
  ShardPlan unknown = router.PlanFor({9999999u});
  EXPECT_TRUE(unknown.empty());
}

// --- Persistence ----------------------------------------------------------

TEST(ShardFileTest, SaveOpenRoundTripPreservesEverything) {
  const Network& net = PaperNet();
  auto sharded = MakeSharded(net, 4);
  const std::string path = TempPath("roundtrip.img");
  ASSERT_TRUE(sharded->SaveImage(path).ok());

  ShardedOptions sopts;
  sopts.num_shards = 4;
  sopts.am = BaseOptions();
  ShardedNetworkFile reopened(sopts);
  ASSERT_TRUE(reopened.OpenImage(path).ok());

  EXPECT_EQ(reopened.router().Fingerprint(),
            sharded->router().Fingerprint());
  EXPECT_EQ(reopened.NumCutEdges(), sharded->NumCutEdges());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(reopened.NumHaloRecords(s), sharded->NumHaloRecords(s));
  }
  ASSERT_EQ(reopened.PageMap().size(), sharded->PageMap().size());
  for (const auto& kv : sharded->PageMap()) {
    auto it = reopened.PageMap().find(kv.first);
    ASSERT_NE(it, reopened.PageMap().end());
    EXPECT_EQ(it->second, kv.second);
  }

  auto want_session = sharded->OpenSession();
  auto got_session = reopened.OpenSession();
  for (const Route& route : OracleRoutes(net, 50, 11)) {
    auto want = EvaluateRoute(want_session.get(), route);
    auto got = EvaluateRoute(got_session.get(), route);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->total_cost, want->total_cost);
    EXPECT_EQ(got->num_edges, want->num_edges);
    EXPECT_EQ(got_session->CutCrossings(), want_session->CutCrossings());
  }

  // A mismatched shard count is a typed error, not a misread.
  ShardedOptions wrong = sopts;
  wrong.num_shards = 8;
  ShardedNetworkFile mismatched(wrong);
  Status s = mismatched.OpenImage(path);
  EXPECT_FALSE(s.ok());
}

// --- Metrics --------------------------------------------------------------

TEST(ShardMetricsTest, ShardFamilyCollectsCrossingsAndFanout) {
  const Network& net = PaperNet();
  ShardedOptions sopts;
  sopts.num_shards = 4;
  sopts.am = BaseOptions();
  ShardedNetworkFile sharded(sopts);
  MetricsRegistry registry;
  sharded.SetMetrics(&registry);
  ASSERT_TRUE(sharded.Create(net).ok());

  auto session = sharded.OpenSession();
  for (const Route& route : OracleRoutes(net, 60, 5)) {
    sharded.router().PlanFor(route.nodes);
    ASSERT_TRUE(EvaluateRoute(session.get(), route).ok());
  }
  sharded.PublishShardMetrics();

  EXPECT_EQ(registry.GetCounter("shard.cut_crossings")->value(),
            session->CutCrossings());
  EXPECT_GT(registry.GetHistogram("shard.router.fanout")->count(), 0u);
  EXPECT_EQ(registry.GetGauge("shard.count")->value(), 4);
  EXPECT_EQ(registry.GetGauge("shard.cut_edges")->value(),
            static_cast<int64_t>(sharded.NumCutEdges()));
  uint64_t gauge_reads = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    gauge_reads += static_cast<uint64_t>(
        registry.GetGauge("shard." + std::to_string(s) + ".reads")->value());
  }
  EXPECT_EQ(gauge_reads, sharded.DataIoStats().reads);
}

// --- Read-ahead on the facade --------------------------------------------

/// Resets every shard pool and counter of `file` and `session`.
void ResetShards(ShardedNetworkFile* file, ShardedQuerySession* session) {
  for (uint32_t s = 0; s < file->num_shards(); ++s) {
    EXPECT_TRUE(file->shard(s)->buffer_pool()->Reset().ok());
    file->shard(s)->buffer_pool()->ResetCounters();
  }
  file->ResetIoStats();
  session->ResetIoStats();
}

/// Pool counters summed over the shards of `file`.
BufferPool::Counters ShardCounters(ShardedNetworkFile* file) {
  BufferPool::Counters sum;
  for (uint32_t s = 0; s < file->num_shards(); ++s) {
    BufferPool::Counters c = file->shard(s)->buffer_pool()->GetCounters();
    sum.hits += c.hits;
    sum.misses += c.misses;
    sum.ahead_misses += c.ahead_misses;
  }
  return sum;
}

// The facade sends each hinted read to the shard that serves it (a Find
// to the owner, a Get-A-successor to `from`'s halo copy), so searches,
// routes and aggregates read exactly what demand order reads, shard by
// shard: answers, page accesses, per-shard disk reads and pool counters.
TEST(ShardReadAheadTest, FacadeMatchesDemandOrderExactly) {
  RoadMapOptions gen;
  gen.rows = 40;
  gen.cols = 40;
  gen.seed = 20;
  const Network net = GenerateRoadMap(gen);
  const auto pairs = RandomPairs(net, 12, 23);
  const auto routes = GenerateRandomWalkRoutes(net, 24, 65, 21);
  const auto units = WalkUnits(net, 24, 30, 22);
  for (uint32_t shards : {1u, 2u, 4u}) {
    for (size_t page_size : {512, 1024}) {
      for (size_t pool_pages : {1, 2, 3, 8, 64}) {
        SCOPED_TRACE(std::to_string(shards) + " shards, page " +
                     std::to_string(page_size) + ", pool " +
                     std::to_string(pool_pages));
        ShardedOptions sopts;
        sopts.num_shards = shards;
        sopts.am.page_size = page_size;
        sopts.am.buffer_pool_pages = pool_pages;
        sopts.am.buffer_pool_shards = pool_pages == 64 ? 4 : 1;
        sopts.am.num_threads = 1;
        ShardedNetworkFile file(sopts);
        ASSERT_TRUE(file.Create(net).ok());
        auto session = file.OpenSession();
        DemandOrderAccess demand(session.get());

        struct Run {
          std::vector<QueryOutcome> outcomes;
          std::vector<uint64_t> shard_reads;
          BufferPool::Counters counters;
        };
        auto run = [&](AccessMethod* am) {
          ResetShards(&file, session.get());
          Run r;
          r.outcomes = RunSearches(am, pairs);
          for (const QueryOutcome& o : RunInterleaved(am, routes, units)) {
            r.outcomes.push_back(o);
          }
          for (uint32_t s = 0; s < shards; ++s) {
            r.shard_reads.push_back(file.ShardIoStats(s).reads);
            EXPECT_EQ(session->ShardIoStats(s).reads, r.shard_reads.back());
          }
          r.counters = ShardCounters(&file);
          return r;
        };
        const Run want = run(&demand);
        const Run got = run(session.get());
        EXPECT_TRUE(SomeSearchOutgrewPool(want.outcomes, pool_pages));
        EXPECT_EQ(got.outcomes, want.outcomes);
        EXPECT_EQ(got.shard_reads, want.shard_reads);
        EXPECT_EQ(got.counters.hits, want.counters.hits);
        EXPECT_EQ(got.counters.misses, want.counters.misses);
        EXPECT_GT(got.counters.ahead_misses, 0u);
      }
    }
  }
}


// The reporting wrappers perfbench reads its shard.* numbers from: over
// the differential oracle's route set, `fanout` is the number of distinct
// owners of a route's nodes (of a unit's endpoints, for aggregates) and
// `cut_crossings` the number of owner changes along the route.
TEST(ShardWrapperTest, WrappersReportOwnersAndCrossings) {
  const Network& net = PaperNet();
  for (uint32_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    auto file = MakeSharded(net, shards);
    auto session = file->OpenSession();
    const ShardRouter& router = file->router();
    uint64_t crossed = 0;
    for (const Route& route : OracleRoutes(net, 200, 1995 + shards)) {
      std::set<uint32_t> owners;
      uint64_t changes = 0;
      for (size_t i = 0; i < route.nodes.size(); ++i) {
        owners.insert(router.ShardOf(route.nodes[i]));
        if (i > 0 && router.ShardOf(route.nodes[i]) !=
                         router.ShardOf(route.nodes[i - 1])) {
          ++changes;
        }
      }
      auto got = EvaluateRouteSharded(session.get(), route);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->fanout, owners.size());
      EXPECT_EQ(got->cut_crossings, changes);
      crossed += changes;

      const RouteUnit unit = UnitOf(route);
      std::set<uint32_t> unit_owners;
      for (const auto& [u, v] : unit.edges) {
        unit_owners.insert(router.ShardOf(u));
        unit_owners.insert(router.ShardOf(v));
      }
      size_t fanout = 0;
      ASSERT_TRUE(AggregateRouteUnitSharded(session.get(), unit, &fanout).ok());
      EXPECT_EQ(fanout, unit_owners.size());
    }
    EXPECT_GT(crossed, 0u);
    EXPECT_EQ(session->CutCrossings(), crossed);
  }
}

// The request context attaches to the facade alone, and its read prologue
// is the one check: an expired deadline or a cancelled token stops every
// operator with the typed status, and a live deadline changes no answer.
TEST(ShardRequestContextTest, FacadeChecksTheContextOnEveryOperator) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto oracle = baseline->OpenSession();
  auto file = MakeSharded(net, 4);
  auto session = file->OpenSession();
  const std::vector<Route> routes = OracleRoutes(net, 20, 77);
  const auto pairs = RandomPairs(net, 6, 78);

  auto run_all = [&](AccessMethod* am) {
    std::vector<Status> statuses;
    for (const Route& route : routes) {
      statuses.push_back(EvaluateRoute(am, route).status());
      statuses.push_back(AggregateRouteUnit(am, UnitOf(route)).status());
    }
    for (const auto& [from, to] : pairs) {
      statuses.push_back(ShortestPathAStar(am, from, to).status());
    }
    return statuses;
  };

  RequestContext expired(RequestContext::NowMicros() - 10);
  session->SetRequestContext(&expired);
  for (const Status& st : run_all(session.get())) {
    EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  }
  RequestContext cancelled;
  cancelled.Cancel();
  session->SetRequestContext(&cancelled);
  for (const Status& st : run_all(session.get())) {
    EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  }

  RequestContext live(RequestContext::NowMicros() + 3600LL * 1000 * 1000);
  session->SetRequestContext(&live);
  for (const Route& route : routes) {
    auto want = EvaluateRoute(oracle.get(), route);
    auto got = EvaluateRoute(session.get(), route);
    ASSERT_TRUE(want.ok() && got.ok()) << got.status().ToString();
    EXPECT_EQ(got->total_cost, want->total_cost);
    EXPECT_EQ(got->num_edges, want->num_edges);
    auto want_agg = AggregateRouteUnit(oracle.get(), UnitOf(route));
    auto got_agg = AggregateRouteUnit(session.get(), UnitOf(route));
    ASSERT_TRUE(want_agg.ok() && got_agg.ok()) << got_agg.status().ToString();
    EXPECT_EQ(got_agg->total_edge_cost, want_agg->total_edge_cost);
  }
  for (const auto& [from, to] : pairs) {
    auto want = ShortestPathAStar(oracle.get(), from, to);
    auto got = ShortestPathAStar(session.get(), from, to);
    ASSERT_TRUE(want.ok() && got.ok()) << got.status().ToString();
    EXPECT_EQ(got->path, want->path);
    EXPECT_EQ(got->cost, want->cost);
  }
  session->SetRequestContext(nullptr);
}

// --- Concurrency (run under TSan via scripts/check_tsan.sh) ---------------

TEST(ShardConcurrencyTest, EightReaderHammerConservesAndAgrees) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto sharded = MakeSharded(net, 4);
  sharded->ResetIoStats();

  // Serial oracle answers, computed up front.
  auto oracle_session = baseline->OpenSession();
  std::vector<Route> routes = OracleRoutes(net, 160, 23);
  std::vector<RouteEvalResult> expected;
  for (const Route& route : routes) {
    auto r = EvaluateRoute(oracle_session.get(), route);
    ASSERT_TRUE(r.ok());
    expected.push_back(*r);
  }

  constexpr int kThreads = 8;
  std::vector<uint64_t> session_reads(kThreads, 0);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = sharded->OpenSession();
      for (size_t i = t; i < routes.size(); i += 2) {
        auto got = EvaluateRoute(session.get(), routes[i]);
        if (!got.ok() || got->total_cost != expected[i].total_cost ||
            got->num_edges != expected[i].num_edges) {
          ++mismatches[t];
        }
      }
      session_reads[t] = session->DataIoStats().reads;
    });
  }
  for (auto& w : workers) w.join();

  uint64_t total_session_reads = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    total_session_reads += session_reads[t];
  }
  // Every miss was charged to exactly one session: the per-stream
  // counters sum exactly to the shard disks' global reads.
  EXPECT_EQ(total_session_reads, sharded->DataIoStats().reads);
  EXPECT_GT(total_session_reads, 0u);
}

// Four facade sessions read ahead and run A* searches and cross-shard
// route-unit aggregates at once: answers match the unsharded file, the
// sessions' reads sum to the shard disks' reads, and no pin is left.
TEST(ShardConcurrencyTest, FourSearchAndAggregateSessionsConserve) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto sharded = MakeSharded(net, 4);
  for (uint32_t s = 0; s < 4; ++s) {
    sharded->shard(s)->disk()->SetSimulatedReadLatencyMicros(20);
  }
  const auto pairs = RandomPairs(net, 48, 31);
  std::vector<RouteUnit> units;
  std::vector<double> want_paths, want_units;
  auto oracle = baseline->OpenSession();
  auto probe = sharded->OpenSession();
  for (const RouteUnit& unit : WalkUnits(net, 200, 12, 32)) {
    std::vector<NodeId> ends;
    for (const auto& [u, v] : unit.edges) {
      ends.push_back(u);
      ends.push_back(v);
    }
    if (probe->router().PlanFor(ends).single()) continue;
    auto want = AggregateRouteUnit(oracle.get(), unit);
    ASSERT_TRUE(want.ok());
    units.push_back(unit);
    want_units.push_back(want->total_edge_cost);
  }
  ASSERT_GE(units.size(), 8u);
  for (const auto& [src, dst] : pairs) {
    auto want = ShortestPathAStar(oracle.get(), src, dst);
    ASSERT_TRUE(want.ok());
    want_paths.push_back(want->cost);
  }
  sharded->ResetIoStats();

  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<ShardedQuerySession>> sessions;
  for (int t = 0; t < kSessions; ++t) {
    sessions.push_back(sharded->OpenSession());
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kSessions; ++t) {
    workers.emplace_back([&, t] {
      ShardedQuerySession* session = sessions[t].get();
      for (size_t i = t; i < pairs.size(); i += 2) {
        auto path = ShortestPathAStar(session, pairs[i].first, pairs[i].second);
        if (!path.ok() || path->cost != want_paths[i]) ++wrong;
        const size_t u = i % units.size();
        auto agg = AggregateRouteUnit(session, units[u]);
        if (!agg.ok() || agg->total_edge_cost != want_units[u]) ++wrong;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(wrong.load(), 0);

  uint64_t reads = 0;
  for (const auto& session : sessions) reads += session->DataIoStats().reads;
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(reads, sharded->DataIoStats().reads);
  uint64_t ahead_misses = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    NetworkFile* shard = sharded->shard(s);
    ahead_misses += shard->DataIoStats().ahead_misses;
    for (const auto& [node, page] : shard->PageMap()) {
      EXPECT_EQ(shard->buffer_pool()->PinCount(page), 0);
    }
  }
  EXPECT_GT(ahead_misses, 0u);
}

}  // namespace
}  // namespace ccam
