#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/core/ccam.h"
#include "src/core/query_session.h"
#include "src/graph/generator.h"
#include "src/query/hierarchy.h"
#include "src/query/search.h"

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

struct Topology {
  const char* name;
  Network net;
  /// Smallest page size whose data file can host this topology (scale-free
  /// hub records outgrow a 512-byte page — a data-file limit, not an
  /// overlay one).
  size_t min_page_size;
};

std::vector<Topology> AllTopologies() {
  std::vector<Topology> out;
  out.push_back({"minneapolis", GenerateMinneapolisLikeMap(1995), 512});
  out.push_back({"geometric", GenerateRandomGeometricNetwork(400, 80.0), 512});
  out.push_back({"ring-radial", GenerateRingRadialCity(8, 12), 512});
  out.push_back({"scale-free", GenerateScaleFreeNetwork(300), 2048});
  return out;
}

std::unique_ptr<Ccam> MakeOverlayFile(const Network& net, size_t page_size) {
  AccessMethodOptions options;
  options.page_size = page_size;
  options.buffer_pool_pages = 8;
  options.hierarchy_overlay = true;
  auto am = std::make_unique<Ccam>(options, CcamCreateMode::kStatic);
  EXPECT_TRUE(am->Create(net).ok());
  EXPECT_TRUE(am->HasHierarchy());
  return am;
}

/// Checks one CH answer against the paged Dijkstra oracle: same
/// reachability, same cost, and an unpacked path that is a real
/// src..dst walk over original edges summing to the reported cost.
void ExpectMatchesOracle(const Network& net, const SearchResult& ch,
                         const SearchResult& dj, NodeId src, NodeId dst) {
  ASSERT_EQ(ch.Found(), dj.Found()) << src << "->" << dst;
  if (!dj.Found()) return;
  // Costs are double sums of the same float edge costs, associated
  // differently (shortcut costs pre-sum their halves), so allow only
  // accumulation-order noise.
  EXPECT_NEAR(ch.cost, dj.cost, 1e-6 * (1.0 + dj.cost)) << src << "->" << dst;
  ASSERT_GE(ch.path.size(), 1u);
  EXPECT_EQ(ch.path.front(), src);
  EXPECT_EQ(ch.path.back(), dst);
  double walked = 0.0;
  for (size_t i = 0; i + 1 < ch.path.size(); ++i) {
    float c = 0.0f;
    ASSERT_TRUE(net.EdgeCost(ch.path[i], ch.path[i + 1], &c).ok())
        << "unpacked step " << ch.path[i] << "->" << ch.path[i + 1]
        << " is not an original edge";
    walked += c;
  }
  EXPECT_NEAR(walked, ch.cost, 1e-6 * (1.0 + ch.cost));
}

// The equivalence oracle: >= 500 random pairs across every generator
// topology and both extreme page sizes (4 x 2 x 64 = 512 pairs).
TEST(HierarchyOracleTest, MatchesDijkstraAcrossTopologiesAndPageSizes) {
  for (Topology& topo : AllTopologies()) {
    std::vector<NodeId> ids = topo.net.NodeIds();
    for (size_t page_size : {topo.min_page_size, size_t{4096}}) {
      auto am = MakeOverlayFile(topo.net, page_size);
      Random rng(0xCC + page_size);
      for (int i = 0; i < 64; ++i) {
        NodeId src = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
        NodeId dst = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
        auto ch = ShortestPathCH(am.get(), src, dst);
        ASSERT_TRUE(ch.ok()) << topo.name << ": " << ch.status().message();
        auto dj = ShortestPathDijkstra(am.get(), src, dst);
        ASSERT_TRUE(dj.ok());
        ExpectMatchesOracle(topo.net, *ch, *dj, src, dst);
      }
    }
  }
}

TEST(HierarchyOracleTest, SelfQueryReturnsTrivialPath) {
  Network net = GenerateRingRadialCity(4, 6);
  auto am = MakeOverlayFile(net, 1024);
  NodeId n = net.NodeIds()[3];
  auto r = ShortestPathCH(am.get(), n, n);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->path, std::vector<NodeId>{n});
  EXPECT_EQ(r->cost, 0.0);
}

// The overlay bytes are a pure function of the network and the options:
// any worker count produces the identical image.
TEST(HierarchyDeterminismTest, OverlayBytesIdenticalAcrossThreadCounts) {
  Network net = GenerateMinneapolisLikeMap(1995);
  std::string reference;
  for (int threads : {1, 2, 4}) {
    AccessMethodOptions options;
    options.page_size = 1024;
    options.hierarchy_overlay = true;
    options.num_threads = threads;
    Ccam am(options, CcamCreateMode::kStatic);
    ASSERT_TRUE(am.Create(net).ok());
    ASSERT_TRUE(am.HasHierarchy());
    std::string path =
        TempPath("hier_det_" + std::to_string(threads) + ".bin");
    ASSERT_TRUE(am.hierarchy()->SaveImage(path).ok());
    std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    ASSERT_FALSE(bytes.empty());
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

// The overlay bytes are pinned: build_info() and the CRC32C of the overlay
// image at both extreme page sizes, per topology. A faster contraction must
// reproduce these exactly — the witness search may do less work, never
// produce a different shortcut graph.
TEST(HierarchyDeterminismTest, OverlayMatchesGoldenDigests) {
  struct Golden {
    size_t page_size;
    size_t pages;
    size_t overlay_page_size;
    uint32_t crc;
  };
  struct Case {
    std::string name;
    Network net;
    size_t shortcuts;
    std::vector<Golden> golden;
  };
  RoadMapOptions road;
  road.rows = 64;
  road.cols = 64;
  road.nodes_to_remove = 16;
  road.seed = 1995;
  std::vector<Case> cases;
  cases.push_back({"minneapolis", GenerateMinneapolisLikeMap(1995), 8682,
                   {{512, 239, 1024, 0x8bbe6c75}, {4096, 54, 4096, 0x6227108d}}});
  cases.push_back({"geometric", GenerateRandomGeometricNetwork(400, 80.0), 2795,
                   {{512, 114, 1024, 0x1f3a9079}, {4096, 26, 4096, 0xc9dd2d1d}}});
  cases.push_back({"ring-radial", GenerateRingRadialCity(8, 12), 746,
                   {{512, 53, 512, 0xbdb174ae}, {4096, 6, 4096, 0xbfb1250a}}});
  cases.push_back({"scale-free", GenerateScaleFreeNetwork(300), 4631,
                   {{2048, 63, 2048, 0x6ff5f2ff}, {4096, 29, 4096, 0xc94ece7e}}});
  cases.push_back({"road-64", GenerateRoadMap(road), 42630,
                   {{1024, 520, 2048, 0x78778351}, {4096, 246, 4096, 0xf57c0cf8}}});
  for (const Case& c : cases) {
    for (const Golden& g : c.golden) {
      SCOPED_TRACE(c.name + " page " + std::to_string(g.page_size));
      AccessMethodOptions options;
      options.page_size = g.page_size;
      options.hierarchy_overlay = true;
      Ccam am(options, CcamCreateMode::kStatic);
      ASSERT_TRUE(am.Create(c.net).ok());
      ASSERT_TRUE(am.HasHierarchy());
      const HierarchyOverlay::BuildInfo& info = am.hierarchy()->build_info();
      EXPECT_EQ(info.nodes, c.net.NumNodes());
      EXPECT_EQ(info.shortcuts, c.shortcuts);
      EXPECT_EQ(info.pages, g.pages);
      EXPECT_EQ(info.page_size, g.overlay_page_size);
      const std::string path = TempPath("hier_golden.bin");
      ASSERT_TRUE(am.hierarchy()->SaveImage(path).ok());
      const std::string bytes = ReadFileBytes(path);
      std::remove(path.c_str());
      EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), g.crc);
    }
  }
}

// The rescan path is pinned too: an overlay rebuilt over a reopened image
// contracts the network reconstructed from the data pages, and must
// reproduce the bytes a build from the in-memory network produces.
TEST(HierarchyDeterminismTest, RescannedOverlayMatchesGoldenDigests) {
  struct Case {
    std::string name;
    Network net;
    size_t page_size;
    uint32_t crc;
  };
  RoadMapOptions road;
  road.rows = 32;
  road.cols = 32;
  road.nodes_to_remove = 8;
  road.seed = 1995;
  std::vector<Case> cases;
  cases.push_back({"minneapolis", GenerateMinneapolisLikeMap(1995), 512,
                   0x8bbe6c75});
  cases.push_back({"minneapolis", GenerateMinneapolisLikeMap(1995), 4096,
                   0x6227108d});
  cases.push_back({"geometric", GenerateRandomGeometricNetwork(400, 80.0), 512,
                   0x1f3a9079});
  cases.push_back({"ring-radial", GenerateRingRadialCity(8, 12), 512,
                   0xbdb174ae});
  cases.push_back({"scale-free", GenerateScaleFreeNetwork(300), 2048,
                   0x6ff5f2ff});
  cases.push_back({"road-32", GenerateRoadMap(road), 1024, 0x70222d2e});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name + " page " + std::to_string(c.page_size));
    AccessMethodOptions options;
    options.page_size = c.page_size;
    const std::string image = TempPath("hier_rescan.img");
    {
      Ccam am(options, CcamCreateMode::kStatic);
      ASSERT_TRUE(am.Create(c.net).ok());
      ASSERT_TRUE(am.SaveImage(image).ok());
    }
    Ccam reopened(options, CcamCreateMode::kStatic);
    ASSERT_TRUE(reopened.OpenImage(image).ok());
    std::remove(image.c_str());
    ASSERT_FALSE(reopened.HasHierarchy());
    ASSERT_TRUE(reopened.BuildHierarchyOverlay().ok());
    ASSERT_TRUE(reopened.HasHierarchy());
    EXPECT_EQ(reopened.hierarchy()->build_info().nodes, c.net.NumNodes());
    const std::string path = TempPath("hier_rescan.bin");
    ASSERT_TRUE(reopened.hierarchy()->SaveImage(path).ok());
    const std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), c.crc);
  }
}

// A hand-built core around node v (contracted first; the test asserts
// it) whose single witness search, from u, covers the search's edge
// cases:
//   - u is both v's predecessor and successor (the w == u skip);
//   - w1 and w2 have equal need, u->v->w = 3;
//   - w1 has a witness of exactly equal cost, u->x->w1 = 3 (`<=` prunes);
//   - w3 (need 11) has an equal-cost witness u->y->w3 that settles only
//     after a cloud of sinks at distance 4, so the 128-settle cap decides.
// Settle order from u: u, x, w1, the cloud, y, w3. With 123 cloud nodes w3
// is the 128th settle (witness found; y later adds u->w3 via y); with 124
// the cap cuts first and u->w3 is kept via v.
constexpr NodeId kV = 0, kU = 1, kX = 2, kY = 3, kW1 = 4, kW2 = 5, kW3 = 6;
constexpr NodeId kCloud = 100;

Network WitnessEdgeCaseNetwork(int cloud_size) {
  Network net;
  for (NodeId id = kV; id <= kW3; ++id) {
    EXPECT_TRUE(net.AddNode(id, 10.0 * id, 0.0).ok());
  }
  for (int i = 0; i < cloud_size; ++i) {
    EXPECT_TRUE(net.AddNode(kCloud + i, 5.0 * i, 50.0).ok());
    EXPECT_TRUE(net.AddEdge(kU, kCloud + i, 4.0f).ok());
  }
  EXPECT_TRUE(net.AddBidirectionalEdge(kU, kV, 1.0f).ok());
  EXPECT_TRUE(net.AddEdge(kV, kW1, 2.0f).ok());
  EXPECT_TRUE(net.AddEdge(kV, kW2, 2.0f).ok());
  EXPECT_TRUE(net.AddEdge(kV, kW3, 10.0f).ok());
  EXPECT_TRUE(net.AddEdge(kU, kX, 1.5f).ok());
  EXPECT_TRUE(net.AddEdge(kX, kW1, 1.5f).ok());
  EXPECT_TRUE(net.AddEdge(kU, kY, 5.5f).ok());
  EXPECT_TRUE(net.AddEdge(kY, kW3, 5.5f).ok());
  for (NodeId w : {kW1, kW2, kW3}) EXPECT_TRUE(net.AddEdge(w, kU, 1.0f).ok());
  return net;
}

TEST(HierarchyWitnessTest, EdgeCasesRecordExactArcs) {
  constexpr NodeId kNone = kInvalidNodeId;
  for (int cloud_size : {123, 124}) {
    SCOPED_TRACE("cloud " + std::to_string(cloud_size));
    Network net = WitnessEdgeCaseNetwork(cloud_size);
    auto am = MakeOverlayFile(net, 4096);
    HierarchyOverlay* overlay = am->hierarchy();
    auto record = [&](NodeId id) {
      auto rec = overlay->ReadNode(id, nullptr);
      EXPECT_TRUE(rec.ok()) << id;
      return rec.ok() ? *rec : HierarchyNodeRecord{};
    };
    // Preconditions: v is contracted first, with the whole cloud still in
    // the core.
    const HierarchyNodeRecord v = record(kV);
    ASSERT_EQ(v.rank, 0u);
    for (int i = 0; i < cloud_size; ++i) {
      ASSERT_GT(record(kCloud + i).rank, v.rank);
    }

    EXPECT_EQ(v.up, (std::vector<HierarchyArc>{{kU, 1.0, kNone},
                                               {kW1, 2.0, kNone},
                                               {kW2, 2.0, kNone},
                                               {kW3, 10.0, kNone}}));
    EXPECT_EQ(v.down, (std::vector<HierarchyArc>{{kU, 1.0, kNone}}));
    EXPECT_TRUE(record(kU).up.empty());
    EXPECT_TRUE(record(kU).down.empty());
    EXPECT_EQ(record(kX).up, (std::vector<HierarchyArc>{{kW1, 1.5, kNone}}));
    EXPECT_EQ(record(kY).up, (std::vector<HierarchyArc>{{kW3, 5.5, kNone}}));
    // w1: the equal-cost witness pruned u->w1 via v; x, contracted next,
    // then adds it via x. w2: no witness, shortcut via v.
    EXPECT_EQ(record(kW1).down, (std::vector<HierarchyArc>{{kU, 3.0, kX}}));
    EXPECT_EQ(record(kW2).down, (std::vector<HierarchyArc>{{kU, 3.0, kV}}));
    const NodeId w3_via = cloud_size == 123 ? kY : kV;
    EXPECT_EQ(record(kW3).down,
              (std::vector<HierarchyArc>{{kU, 11.0, w3_via}}));
    for (NodeId w : {kW1, kW2, kW3}) {
      EXPECT_EQ(record(w).up, (std::vector<HierarchyArc>{{kU, 1.0, kNone}}));
    }
    EXPECT_EQ(overlay->build_info().shortcuts, 3u);

    std::vector<NodeId> probe = {kV, kU, kX, kY, kW1, kW2, kW3, kCloud,
                                 kCloud + cloud_size - 1};
    for (NodeId src : probe) {
      for (NodeId dst : probe) {
        auto ch = ShortestPathCH(am.get(), src, dst);
        auto dj = ShortestPathDijkstra(am.get(), src, dst);
        ASSERT_TRUE(ch.ok());
        ASSERT_TRUE(dj.ok());
        ExpectMatchesOracle(net, *ch, *dj, src, dst);
      }
    }
  }
}

TEST(HierarchyInvalidationTest, MutationDropsOverlayAndRebuildRestoresIt) {
  Network net = GenerateMinneapolisLikeMap(1995);
  auto am = MakeOverlayFile(net, 1024);
  std::vector<NodeId> ids = net.NodeIds();
  NodeId src = ids.front(), dst = ids.back();
  ASSERT_TRUE(ShortestPathCH(am.get(), src, dst).ok());

  // Any maintenance operation invalidates the overlay...
  ASSERT_TRUE(
      am->InsertEdge(ids[0], ids[5], 123.0f, ReorgPolicy::kFirstOrder).ok());
  EXPECT_FALSE(am->HasHierarchy());
  EXPECT_TRUE(ShortestPathCH(am.get(), src, dst).status().IsNotSupported());

  // ...and an explicit rebuild rescans the file and restores CH queries,
  // now seeing the new edge.
  ASSERT_TRUE(am->BuildHierarchyOverlay().ok());
  ASSERT_TRUE(am->HasHierarchy());
  auto ch = ShortestPathCH(am.get(), ids[0], ids[5]);
  auto dj = ShortestPathDijkstra(am.get(), ids[0], ids[5]);
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(dj.ok());
  EXPECT_NEAR(ch->cost, dj->cost, 1e-6 * (1.0 + dj->cost));
  EXPECT_TRUE(am->hierarchy()->CheckInvariants().ok());
}

TEST(HierarchyPersistenceTest, OverlayRoundTripsThroughImages) {
  Network net = GenerateRingRadialCity(8, 12);
  auto am = MakeOverlayFile(net, 1024);
  std::string path = TempPath("hier_roundtrip.bin");
  ASSERT_TRUE(am->SaveImage(path).ok());

  AccessMethodOptions options = am->options();
  Ccam reopened(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(reopened.OpenImage(path).ok());
  ASSERT_TRUE(reopened.HasHierarchy());
  EXPECT_TRUE(reopened.hierarchy()->CheckInvariants().ok());

  std::vector<NodeId> ids = net.NodeIds();
  Random rng(77);
  for (int i = 0; i < 16; ++i) {
    NodeId src = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    NodeId dst = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    auto ch = ShortestPathCH(&reopened, src, dst);
    auto dj = ShortestPathDijkstra(&reopened, src, dst);
    ASSERT_TRUE(ch.ok());
    ASSERT_TRUE(dj.ok());
    ExpectMatchesOracle(net, *ch, *dj, src, dst);
  }
  std::remove(path.c_str());
  std::remove((path + ".hier").c_str());
}

TEST(HierarchyPersistenceTest, MissingSidecarReopensWithoutOverlay) {
  Network net = GenerateRingRadialCity(4, 6);
  auto am = MakeOverlayFile(net, 1024);
  std::string path = TempPath("hier_no_sidecar.bin");
  ASSERT_TRUE(am->SaveImage(path).ok());
  std::remove((path + ".hier").c_str());

  Ccam reopened(am->options(), CcamCreateMode::kStatic);
  ASSERT_TRUE(reopened.OpenImage(path).ok());
  EXPECT_FALSE(reopened.HasHierarchy());
  // The data file itself is intact: flat queries still work.
  std::vector<NodeId> ids = net.NodeIds();
  EXPECT_TRUE(ShortestPathDijkstra(&reopened, ids.front(), ids.back()).ok());
  std::remove(path.c_str());
}

// The load rule forgives only a build that never finished. Once page 0
// holds the metadata record, any flipped byte of a record page — even one
// that would still decode and validate, such as an original arc's cost —
// fails the page's seal, and LoadImage reports Corruption, which
// OpenImage propagates.
TEST(HierarchyPersistenceTest, FlippedRecordByteIsCorruptionNotNoOverlay) {
  Network net = GenerateRingRadialCity(6, 8);
  auto am = MakeOverlayFile(net, 512);
  const std::string path = TempPath("hier_flipped.bin");
  const std::string sidecar = path + ".hier";
  ASSERT_TRUE(am->SaveImage(path).ok());
  const std::string intact = ReadFileBytes(sidecar);
  auto load = [&](const std::string& bytes) {
    {
      std::ofstream out(sidecar, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    HierarchyOverlay overlay(am->options());
    return overlay.LoadImage(sidecar);
  };
  Result<bool> loaded = load(intact);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(*loaded);

  // Image layout: a 16-byte header, then per page one allocation flag and
  // the page bytes. Flip every byte of page 1 in turn.
  const size_t page_size = am->hierarchy()->page_size();
  ASSERT_GT(am->hierarchy()->NumPages(), 1u);
  const size_t page1 = 16 + (1 + page_size) + 1;
  for (size_t i = 0; i < page_size; ++i) {
    std::string bytes = intact;
    bytes[page1 + i] ^= 0x5a;
    loaded = load(bytes);
    ASSERT_FALSE(loaded.ok()) << "byte " << i;
    ASSERT_TRUE(loaded.status().IsCorruption())
        << "byte " << i << ": " << loaded.status().ToString();
  }

  Ccam reopened(am->options(), CcamCreateMode::kStatic);
  EXPECT_TRUE(reopened.OpenImage(path).IsCorruption());
  std::remove(path.c_str());
  std::remove(sidecar.c_str());
}

TEST(HierarchySessionTest, OverlayIoIsChargedPerSession) {
  Network net = GenerateMinneapolisLikeMap(1995);
  auto am = MakeOverlayFile(net, 1024);
  std::vector<NodeId> ids = net.NodeIds();

  auto session = am->OpenSession();
  ASSERT_TRUE(session->HasHierarchy());
  auto ch = ShortestPathCH(session.get(), ids.front(), ids.back());
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(ch->Found());
  // A long query climbs the hierarchy: overlay reads are charged to this
  // session and surface in the search's page_accesses...
  EXPECT_GT(session->HierarchyIoStats().Accesses(), 0u);
  EXPECT_EQ(ch->page_accesses, session->HierarchyIoStats().Accesses() +
                                   session->DataIoStats().Accesses());
  // ...and ResetIoStats clears both families.
  session->ResetIoStats();
  EXPECT_EQ(session->HierarchyIoStats().Accesses(), 0u);
}

// Concurrency hammer (run under TSan via check_tsan.sh): many sessions
// fire CH queries at one shared overlay at once. ReadNode's pool path must
// be race-free and every thread must get the single-threaded answer.
TEST(HierarchySessionTest, ConcurrentSessionsAgreeWithSerialAnswers) {
  Network net = GenerateMinneapolisLikeMap(1995);
  auto am = MakeOverlayFile(net, 1024);
  std::vector<NodeId> ids = net.NodeIds();

  const int kThreads = 8, kQueries = 16;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Random rng(99);
  for (int i = 0; i < kQueries; ++i) {
    pairs.emplace_back(ids[rng.Uniform(static_cast<uint32_t>(ids.size()))],
                       ids[rng.Uniform(static_cast<uint32_t>(ids.size()))]);
  }
  std::vector<double> serial;
  for (auto& [src, dst] : pairs) {
    auto r = ShortestPathCH(am.get(), src, dst);
    ASSERT_TRUE(r.ok());
    serial.push_back(r->Found() ? r->cost : -1.0);
  }

  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      auto session = am->OpenSession();
      for (size_t i = 0; i < pairs.size(); ++i) {
        auto r = ShortestPathCH(session.get(), pairs[i].first,
                                pairs[i].second);
        if (!r.ok() || (r->Found() ? r->cost : -1.0) != serial[i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(HierarchyOverlayTest, IncrementalCreateBuildsOverlayToo) {
  Network net = GenerateRingRadialCity(6, 8);
  AccessMethodOptions options;
  options.page_size = 1024;
  options.hierarchy_overlay = true;
  Ccam am(options, CcamCreateMode::kIncremental);
  ASSERT_TRUE(am.Create(net).ok());
  ASSERT_TRUE(am.HasHierarchy());
  EXPECT_TRUE(am.hierarchy()->CheckInvariants().ok());
  std::vector<NodeId> ids = net.NodeIds();
  auto ch = ShortestPathCH(&am, ids.front(), ids.back());
  auto dj = ShortestPathDijkstra(&am, ids.front(), ids.back());
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(dj.ok());
  ExpectMatchesOracle(net, *ch, *dj, ids.front(), ids.back());
}

}  // namespace
}  // namespace ccam
