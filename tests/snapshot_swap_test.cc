// Concurrency battery for the versioned snapshot swap: many reader
// threads hammer sessions while the writer runs back-to-back full
// reorganizations, each publishing a new version with an atomic
// pointer swap. The assertions pin down the store's three public
// promises:
//
//   * isolation  — a session pinned to a version sees that version's
//     frozen node set, readable in full, no matter how many swaps land
//     mid-iteration;
//   * conservation — every session acquire is matched by exactly one
//     release, and retired versions drain to LiveVersionCount == 1
//     once the last session closes;
//   * availability — reads (and their IoStats accounting) are
//     bit-identical whether or not a background build is in flight,
//     and a reader holding a page pin never blocks a swap.
//
// SnapshotReadAheadTest pins down the session's read-ahead: on a
// quiesced store it reads exactly the pages demand order reads, nodes
// the overlay shadows read nothing, and beside a concurrent writer and
// reorganizations every answer stays exact and every load is charged to
// exactly one session.
//
// SnapshotServeTest serves a store through QueryService: with admission
// prefetch beside a writer and reorganizations every answer stays exact,
// the service's sessions account for every read and Shutdown releases
// every version pin; a store whose base image is empty serves the nodes
// inserted since; and Submit never waits for the manager lock.
//
// Registered in scripts/check_tsan.sh: the hammer runs under TSan to
// catch ordering bugs the assertions cannot.

#include "src/storage/snapshot_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ccam.h"
#include "src/graph/generator.h"
#include "src/query/aggregate.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/serve/query_service.h"
#include "tests/demand_order.h"

namespace ccam {

/// Holds the manager lock the way a writer's delta-log append or a
/// publishing swap does.
class SnapshotManagerTestPeer {
 public:
  static std::unique_lock<std::mutex> Lock(SnapshotManager* manager) {
    return std::unique_lock<std::mutex>(manager->mu_);
  }
};

namespace {

SnapshotOptions OptionsFor(const std::string& leaf) {
  SnapshotOptions sopt;
  sopt.am.page_size = 1024;
  sopt.am.buffer_pool_pages = 8;
  sopt.am.num_threads = 1;
  const char* tmp = std::getenv("TMPDIR");
  sopt.dir = std::string(tmp != nullptr ? tmp : "/tmp") + "/" + leaf;
  std::error_code ec;
  std::filesystem::remove_all(sopt.dir, ec);
  return sopt;
}

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// A pendant node `id` one unit beside `anchor`, joined to it both ways.
NodeRecord PendantBeside(const Network& net, NodeId anchor, NodeId id) {
  NodeRecord pendant;
  pendant.id = id;
  pendant.x = net.node(anchor).x + 1.0;
  pendant.y = net.node(anchor).y + 1.0;
  pendant.succ = {{anchor, 1.0f}};
  pendant.pred = {{anchor, 1.0f}};
  return pendant;
}

// 8 reader threads churn sessions while the main thread interleaves
// mutations with >= 50 synchronous reorganizations. Each reader
// iteration validates snapshot isolation the hard way: every id the
// pinned version lists as live must Find() OK for as long as the
// session holds the version — even when several swaps land while the
// scan is in progress.
TEST(SnapshotSwapTest, EightReadersAcrossFiftyBackToBackSwaps) {
  const int kReaders = 8;
  const int kSwaps = EnvInt("CCAM_SWAP_COUNT", 50);

  SnapshotOptions sopt = OptionsFor("ccam_swap_hammer_store");
  Network net = GenerateRandomGeometricNetwork(160, 130.0, 1000.0, 1995);
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([store, t, &stop, &reads, &failures] {
      uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Sessions are thread-bound; each iteration opens a fresh one,
        // which also exercises acquire/release under concurrent swaps.
        std::unique_ptr<SnapshotSession> session = store->OpenSession();
        std::vector<NodeId> ids = session->LiveNodeIds();
        if (ids.empty()) {
          ++failures;
          break;
        }
        // A strided sample keeps iterations short enough that many
        // swaps land per session lifetime across the run.
        for (size_t i = t % 7; i < ids.size(); i += 7) {
          auto rec = session->Find(ids[i]);
          if (!rec.ok()) {
            ADD_FAILURE() << "reader " << t << ": live node " << ids[i]
                          << " unreadable in pinned version "
                          << session->version_id() << ": "
                          << rec.status().ToString();
            ++failures;
            stop.store(true, std::memory_order_release);
            break;
          }
          ++local;
        }
        // Half the iterations migrate to the current version mid-life,
        // so refresh-during-swap gets coverage too.
        if (local % 2 == 0) session->Refresh();
      }
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // Writer: mutate, then swap — back to back, no quiescing.
  NodeId next_id = 0;
  for (NodeId id : net.NodeIds()) next_id = std::max(next_id, id + 1);
  std::vector<NodeId> anchors = net.NodeIds();
  for (int s = 0; s < kSwaps; ++s) {
    NodeRecord rec;
    rec.id = next_id++;
    rec.x = static_cast<double>(s);
    rec.y = -1.0;
    rec.succ.push_back({anchors[s % anchors.size()], 1.0f});
    ASSERT_TRUE(store->InsertNode(rec).ok());
    ASSERT_TRUE(store->ReorganizeNow().ok()) << "swap " << s;
  }

  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store->ReorgCount(), static_cast<uint64_t>(kSwaps));
  // Version 1 was the initial publication; every swap adds one.
  EXPECT_EQ(store->CurrentVersionId(), static_cast<uint64_t>(1 + kSwaps));

  // Conservation: with every session closed, each acquire has exactly
  // one matching release and every retired version has drained.
  EXPECT_EQ(store->TotalAcquires(), store->TotalReleases());
  EXPECT_EQ(store->LiveVersionCount(), 1u);
  ASSERT_TRUE(store->CheckConsistency().ok());
}

// Retired versions drain in session-close order, not publish order.
TEST(SnapshotSwapTest, RetiredVersionsDrainAsSessionsClose) {
  SnapshotOptions sopt = OptionsFor("ccam_swap_drain_store");
  Network net = GenerateRandomGeometricNetwork(80, 180.0, 1000.0, 7);
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();

  std::unique_ptr<SnapshotSession> s1 = store->OpenSession();
  ASSERT_TRUE(store->ReorganizeNow().ok());
  std::unique_ptr<SnapshotSession> s2 = store->OpenSession();
  ASSERT_TRUE(store->ReorganizeNow().ok());
  std::unique_ptr<SnapshotSession> s3 = store->OpenSession();

  EXPECT_EQ(s1->version_id(), 1u);
  EXPECT_EQ(s2->version_id(), 2u);
  EXPECT_EQ(s3->version_id(), 3u);
  EXPECT_EQ(store->LiveVersionCount(), 3u);

  // Close the middle session first: its version drains while the
  // older one stays alive — retirement is refcount-driven, not FIFO.
  s2.reset();
  EXPECT_EQ(store->LiveVersionCount(), 2u);
  EXPECT_TRUE(s1->Find(net.NodeIds().front()).ok());
  s1.reset();
  EXPECT_EQ(store->LiveVersionCount(), 1u);
  s3.reset();
  EXPECT_EQ(store->LiveVersionCount(), 1u);
  EXPECT_EQ(store->TotalAcquires(), store->TotalReleases());
}

// Contains admits serve requests: a base node and a node inserted since
// the version published are contained, a deleted or unknown node is not.
// After a swap the inserted node is contained through the new base image.
TEST(SnapshotSwapTest, ContainsBaseAndOverlayNodes) {
  SnapshotOptions sopt = OptionsFor("ccam_swap_contains_store");
  Network net = GenerateRandomGeometricNetwork(80, 180.0, 1000.0, 11);
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();

  const std::vector<NodeId> ids = net.NodeIds();
  const NodeId fresh = *std::max_element(ids.begin(), ids.end()) + 1;
  for (NodeId id : ids) EXPECT_TRUE(store->Contains(id)) << id;

  NodeRecord rec;
  rec.id = fresh;
  rec.succ.push_back({ids.front(), 1.0f});
  ASSERT_TRUE(store->InsertNode(rec).ok());
  EXPECT_TRUE(store->Contains(fresh));
  ASSERT_TRUE(store->DeleteNode(fresh).ok());
  EXPECT_FALSE(store->Contains(fresh));
  EXPECT_FALSE(store->Contains(fresh + 1));
  ASSERT_TRUE(store->DeleteNode(ids.back()).ok());
  EXPECT_FALSE(store->Contains(ids.back()));
  ASSERT_TRUE(store->InsertNode(rec).ok());

  ASSERT_TRUE(store->ReorganizeNow().ok());
  std::unique_ptr<SnapshotSession> session = store->OpenSession();
  EXPECT_EQ(session->version()->file()->PageMap().count(fresh), 1u);
  EXPECT_TRUE(store->Contains(fresh));
  EXPECT_FALSE(store->Contains(ids.back()));
}

// The availability guarantee, measured at the accounting level: a
// session's query results AND its per-session IoStats are bit-identical
// whether a background build is provably in flight or the store is
// quiescent. Two stores created from the same network run the same read
// script; one has a gated reorganization parked mid-build.
TEST(SnapshotSwapTest, GatedBuildKeepsReadsAndIoStatsBitIdentical) {
  Network net = GenerateRandomGeometricNetwork(160, 130.0, 1000.0, 1995);

  SnapshotOptions quiet_opt = OptionsFor("ccam_swap_quiet_store");
  SnapshotOptions busy_opt = OptionsFor("ccam_swap_busy_store");
  auto quiet = SnapshotManager::Create(quiet_opt, net);
  auto busy = SnapshotManager::Create(busy_opt, net);
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();

  // Identical acked mutations on both stores, so the overlays match.
  std::vector<NodeId> ids = net.NodeIds();
  for (int i = 0; i < 10; ++i) {
    NodeRecord rec;
    rec.id = 100000 + static_cast<NodeId>(i);
    rec.x = static_cast<double>(i);
    rec.y = 2.0;
    rec.succ.push_back({ids[i], 1.0f});
    ASSERT_TRUE((*quiet)->InsertNode(rec).ok());
    ASSERT_TRUE((*busy)->InsertNode(rec).ok());
  }

  // Park a build mid-flight on the busy store: it completes the
  // reclustering, then blocks before publish until released.
  (*busy)->GatePublish(true);
  ASSERT_TRUE((*busy)->StartBackgroundReorg().ok());

  std::unique_ptr<SnapshotSession> qs = (*quiet)->OpenSession();
  std::unique_ptr<SnapshotSession> bs = (*busy)->OpenSession();
  ASSERT_TRUE((*busy)->ReorgActive());

  std::vector<NodeId> live = qs->LiveNodeIds();
  ASSERT_EQ(live, bs->LiveNodeIds());
  for (NodeId id : live) {
    auto want = qs->Find(id);
    auto got = bs->Find(id);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->id, want->id);
    EXPECT_EQ(got->x, want->x);
    EXPECT_EQ(got->succ.size(), want->succ.size());
    auto succ_want = qs->GetSuccessors(id);
    auto succ_got = bs->GetSuccessors(id);
    ASSERT_TRUE(succ_want.ok());
    ASSERT_TRUE(succ_got.ok());
    ASSERT_EQ(succ_got->size(), succ_want->size());
    for (size_t i = 0; i < succ_want->size(); ++i) {
      EXPECT_EQ((*succ_got)[i].id, (*succ_want)[i].id);
    }
  }

  // The accounting must match to the bit: the build reads only the
  // reorganizer's in-memory cut, never the serving version's pages.
  EXPECT_EQ(bs->DataIoStats().reads, qs->DataIoStats().reads);
  EXPECT_EQ(bs->DataIoStats().writes, qs->DataIoStats().writes);
  EXPECT_EQ(bs->DataIoStats().Accesses(), qs->DataIoStats().Accesses());

  ASSERT_TRUE((*busy)->ReorgActive());  // still parked through all reads
  (*busy)->ReleasePublishGate();
  ASSERT_TRUE((*busy)->WaitForReorg().ok());
  EXPECT_EQ((*busy)->CurrentVersionId(), 2u);
  bs->Refresh();
  EXPECT_EQ(bs->version_id(), 2u);
  ASSERT_TRUE((*busy)->CheckConsistency().ok());
}

// Regression for the in-place reorganizers' exclusivity assumption: a
// reader holding a live page pin must never block a swap. The pin holds
// a frame in the *old* version's private buffer pool; the swap installs
// a new version with its own pool, so the two never contend.
TEST(SnapshotSwapTest, ReaderHoldingPagePinNeverBlocksSwap) {
  SnapshotOptions sopt = OptionsFor("ccam_swap_pin_store");
  Network net = GenerateRandomGeometricNetwork(120, 150.0, 1000.0, 11);
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();

  std::unique_ptr<SnapshotSession> session = store->OpenSession();
  uint64_t v_before = session->version_id();
  PageId pinned = session->PageMap().begin()->second;
  PageGuard guard(session->buffer_pool(), pinned);
  ASSERT_TRUE(guard.ok()) << guard.status().ToString();

  // Same thread, pin held: if the swap needed the old version quiesced
  // (or its pages unpinned), this call would deadlock or fail.
  ASSERT_TRUE(store->ReorganizeNow().ok());
  EXPECT_GT(store->CurrentVersionId(), v_before);

  // The pinned frame is still valid — the old version stays alive until
  // this session releases it — and reads through the pin's session
  // keep working.
  EXPECT_TRUE(guard.ok());
  EXPECT_TRUE(session->Find(net.NodeIds().front()).ok());
  EXPECT_EQ(session->version_id(), v_before);

  guard = PageGuard();  // release the pin, then migrate
  session->Refresh();
  EXPECT_GT(session->version_id(), v_before);
  session.reset();
  EXPECT_EQ(store->LiveVersionCount(), 1u);
  EXPECT_EQ(store->TotalAcquires(), store->TotalReleases());
  ASSERT_TRUE(store->CheckConsistency().ok());
}

// Regression for a torn overlay update. Inserting or deleting a pendant
// node joined to an anchor in both directions rewrites two records — the
// pendant's and the anchor's — and a concurrent GetSuccessors(anchor)
// must see each mutation whole or not at all: never the anchor's new
// successor list before the pendant's record exists (NotFound), nor a
// tombstoned pendant still listed as a successor (Corruption).
TEST(SnapshotSwapTest, GetSuccessorsNeverSeesATornOverlayUpdate) {
  constexpr uint64_t kCalls = 100000;
  SnapshotOptions sopt = OptionsFor("ccam_swap_torn_overlay_store");
  Network net = GenerateRandomGeometricNetwork(120, 150.0, 1000.0, 7);
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();

  const std::vector<NodeId> ids = net.NodeIds();
  const NodeId anchor = ids.front();
  const NodeRecord pendant = PendantBeside(net, anchor, ids.back() + 1);

  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> other{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::unique_ptr<SnapshotSession> session = store->OpenSession();
      while (calls.fetch_add(1, std::memory_order_relaxed) < kCalls) {
        auto succ = session->GetSuccessors(anchor);
        if (succ.ok()) continue;
        const Status& st = succ.status();
        (st.IsCorruption() || st.IsNotFound() ? torn : other)
            .fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  uint64_t writes = 0;
  Status write_status;
  while (write_status.ok() &&
         calls.load(std::memory_order_relaxed) < kCalls) {
    write_status = store->InsertNode(pendant);
    if (write_status.ok()) write_status = store->DeleteNode(pendant.id);
    writes += 2;
  }
  for (auto& r : readers) r.join();

  EXPECT_TRUE(write_status.ok()) << write_status.ToString();
  EXPECT_GT(writes, 0u);
  EXPECT_EQ(torn.load(), 0u) << "of " << kCalls << " GetSuccessors calls";
  EXPECT_EQ(other.load(), 0u);
  ASSERT_TRUE(store->CheckConsistency().ok());
}

// --- Read-ahead ------------------------------------------------------------

/// Overlay edits the read-ahead tests run against: doubled edge costs on a
/// spread of nodes, one deleted node and one pendant inserted beside an
/// anchor, joined both ways.
struct OverlayEdits {
  std::vector<NodeId> updated;  // both endpoints of each re-costed edge
  NodeId tombstoned = kInvalidNodeId;
  NodeId inserted = kInvalidNodeId;
  NodeId anchor = kInvalidNodeId;
};

OverlayEdits EditOverlay(SnapshotManager* store) {
  OverlayEdits edits;
  const Network& net = store->network();
  const std::vector<NodeId> ids = net.NodeIds();
  for (size_t k = 0; k < 20; ++k) {
    const NodeId u = ids[(k * 37 + 5) % ids.size()];
    if (net.node(u).succ.empty()) continue;
    const AdjEntry e = net.node(u).succ.front();
    EXPECT_TRUE(store->DeleteEdge(u, e.node).ok());
    EXPECT_TRUE(store->InsertEdge(u, e.node, e.cost * 2.0f).ok());
    edits.updated.push_back(u);
    edits.updated.push_back(e.node);
  }
  edits.tombstoned = ids[ids.size() / 2];
  EXPECT_TRUE(store->DeleteNode(edits.tombstoned).ok());
  edits.anchor = ids[ids.size() / 3];
  const NodeRecord pendant = PendantBeside(net, edits.anchor, ids.back() + 1);
  EXPECT_TRUE(store->InsertNode(pendant).ok());
  edits.inserted = pendant.id;
  return edits;
}

Network ReadAheadMap() {
  RoadMapOptions gen;
  gen.rows = 30;
  gen.cols = 30;
  gen.seed = 20;
  return GenerateRoadMap(gen);
}

// A session's read-ahead over a store with a populated overlay reads the
// pages demand order reads, one for one: the same answers and page
// accesses per query, the same disk reads and the same pool hit/miss
// counters, with every load charged to the session.
TEST(SnapshotReadAheadTest, QuiescedStoreMatchesDemandOrderExactly) {
  const Network net = ReadAheadMap();
  for (size_t pool_pages : {1, 2, 8, 64}) {
    SCOPED_TRACE("pool " + std::to_string(pool_pages));
    SnapshotOptions sopt = OptionsFor("ccam_read_ahead_demand_store");
    sopt.am.buffer_pool_pages = pool_pages;
    sopt.am.buffer_pool_shards = pool_pages == 64 ? 4 : 1;
    auto mgr = SnapshotManager::Create(sopt, net);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    SnapshotManager* store = mgr->get();
    const OverlayEdits edits = EditOverlay(store);

    // Walks over the edited network, plus a route and a unit through the
    // overlay-only pendant.
    auto routes = GenerateRandomWalkRoutes(store->network(), 40, 65, 21);
    auto units = WalkUnits(store->network(), 40, 30, 22);
    Route via;
    via.nodes = {edits.anchor, edits.inserted, edits.anchor};
    routes.insert(routes.begin(), via);
    RouteUnit spur;
    spur.edges = {{edits.anchor, edits.inserted},
                  {edits.inserted, edits.anchor}};
    units.insert(units.begin(), spur);

    auto session = store->OpenSession();
    SnapshotVersion* version = session->version();
    size_t shadowed = 0;
    for (const Route& route : routes) {
      for (NodeId id : route.nodes) {
        std::optional<NodeRecord> rec;
        if (version->OverlayLookup(id, &rec)) ++shadowed;
      }
    }
    ASSERT_GT(shadowed, via.nodes.size());

    Ccam* file = version->file();
    DemandOrderAccess demand(session.get());
    struct Run {
      std::vector<QueryOutcome> outcomes;
      uint64_t disk_reads = 0;
      uint64_t session_reads = 0;
      BufferPool::Counters counters;
    };
    auto run = [&](AccessMethod* am) {
      EXPECT_TRUE(file->buffer_pool()->Reset().ok());
      file->buffer_pool()->ResetCounters();
      file->ResetIoStats();
      session->ResetIoStats();
      Run r;
      r.outcomes = RunInterleaved(am, routes, units);
      r.disk_reads = file->DataIoStats().reads;
      r.session_reads = session->DataIoStats().reads;
      r.counters = file->buffer_pool()->GetCounters();
      return r;
    };
    const Run want = run(&demand);
    const Run got = run(session.get());
    EXPECT_EQ(got.outcomes, want.outcomes);
    EXPECT_EQ(got.disk_reads, want.disk_reads);
    EXPECT_EQ(want.session_reads, want.disk_reads);
    EXPECT_EQ(got.session_reads, got.disk_reads);
    EXPECT_EQ(got.counters.hits, want.counters.hits);
    EXPECT_EQ(got.counters.misses, want.counters.misses);
  }
}

// Updated, tombstoned and overlay-only nodes are answered from memory, so
// a hint naming only them reads nothing from a cold pool; a base node
// beside them is read.
// Searches on a session over a store with a populated overlay read what
// demand order reads: their endpoint and settle hints skip the shadowed
// nodes, and the harvest counts a hint's load as its read's miss.
TEST(SnapshotReadAheadTest, QuiescedStoreSearchesMatchDemandOrderExactly) {
  const Network net = ReadAheadMap();
  for (size_t page_size : {512, 1024}) {
    for (size_t pool_pages : {1, 2, 3, 8, 64}) {
      SCOPED_TRACE("page " + std::to_string(page_size) + ", pool " +
                   std::to_string(pool_pages));
      SnapshotOptions sopt = OptionsFor("ccam_search_ahead_demand_store");
      sopt.am.page_size = page_size;
      sopt.am.buffer_pool_pages = pool_pages;
      sopt.am.buffer_pool_shards = pool_pages == 64 ? 4 : 1;
      auto mgr = SnapshotManager::Create(sopt, net);
      ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
      SnapshotManager* store = mgr->get();
      const OverlayEdits edits = EditOverlay(store);
      auto pairs = RandomPairs(store->network(), 12, 23);
      pairs.insert(pairs.begin(), {edits.inserted, edits.updated.front()});

      auto session = store->OpenSession();
      Ccam* file = session->version()->file();
      DemandOrderAccess demand(session.get());
      struct Run {
        std::vector<QueryOutcome> outcomes;
        uint64_t disk_reads = 0;
        uint64_t session_reads = 0;
        BufferPool::Counters counters;
      };
      auto run = [&](AccessMethod* am) {
        EXPECT_TRUE(file->buffer_pool()->Reset().ok());
        file->buffer_pool()->ResetCounters();
        file->ResetIoStats();
        session->ResetIoStats();
        Run r;
        r.outcomes = RunSearches(am, pairs);
        r.disk_reads = file->DataIoStats().reads;
        r.session_reads = session->DataIoStats().reads;
        r.counters = file->buffer_pool()->GetCounters();
        return r;
      };
      const Run want = run(&demand);
      const Run got = run(session.get());
      EXPECT_TRUE(SomeSearchOutgrewPool(want.outcomes, pool_pages));
      EXPECT_EQ(got.outcomes, want.outcomes);
      EXPECT_EQ(got.disk_reads, want.disk_reads);
      EXPECT_EQ(got.session_reads, got.disk_reads);
      EXPECT_EQ(got.counters.hits, want.counters.hits);
      EXPECT_EQ(got.counters.misses, want.counters.misses);
    }
  }
}

TEST(SnapshotReadAheadTest, HintSkipsShadowedNodes) {
  auto mgr = SnapshotManager::Create(OptionsFor("ccam_read_ahead_skip_store"),
                                     ReadAheadMap());
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();
  const OverlayEdits edits = EditOverlay(store);
  auto session = store->OpenSession();
  SnapshotVersion* version = session->version();
  Ccam* file = version->file();
  ASSERT_TRUE(file->buffer_pool()->Reset().ok());
  file->buffer_pool()->ResetCounters();
  file->ResetIoStats();

  const std::vector<NodeId> shadowed = {edits.updated.front(),
                                        edits.tombstoned, edits.inserted};
  EXPECT_EQ(session->ReadAhead(FindHints(shadowed).data(), shadowed.size()),
            shadowed.size());
  EXPECT_EQ(file->DataIoStats().reads, 0u);
  EXPECT_EQ(session->DataIoStats().reads, 0u);
  EXPECT_EQ(file->buffer_pool()->misses(), 0u);
  EXPECT_EQ(file->buffer_pool()->NumBuffered(), 0u);

  NodeId base = kInvalidNodeId;
  for (NodeId id : store->network().NodeIds()) {
    std::optional<NodeRecord> rec;
    if (!version->OverlayLookup(id, &rec)) {
      base = id;
      break;
    }
  }
  ASSERT_NE(base, kInvalidNodeId);
  const std::vector<NodeId> mixed = {edits.tombstoned, base, edits.inserted};
  EXPECT_EQ(session->ReadAhead(FindHints(mixed).data(), mixed.size()),
            mixed.size());
  EXPECT_EQ(file->DataIoStats().reads, 1u);
  EXPECT_EQ(session->DataIoStats().reads, 1u);
  EXPECT_TRUE(file->buffer_pool()->Contains(file->PageMap().at(base)));
}

// Four reader sessions read ahead while a writer shadows route nodes one
// after another (a pendant inserted and deleted beside each) and
// background reorganizations publish new versions. A node shadowed
// between a hint and its read costs at most one extra load, charged to
// the session: answers equal the quiesced ones, and the sessions' reads
// sum to the versions' disk reads.
TEST(SnapshotReadAheadTest, WriterAndReorgsKeepAnswersAndConserveReads) {
  constexpr int kReaders = 4;
  constexpr int kReorgs = 6;
  SnapshotOptions sopt = OptionsFor("ccam_read_ahead_hammer_store");
  sopt.am.buffer_pool_pages = 16;
  sopt.am.buffer_pool_shards = 2;
  const Network net = ReadAheadMap();
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();
  const auto routes = GenerateRandomWalkRoutes(net, 32, 50, 41);
  const auto units = WalkUnits(net, 32, 25, 42);

  // Keepers pin every published version to the end so its disk counters
  // can be summed; each opens while its version is still current.
  std::vector<std::unique_ptr<SnapshotSession>> keepers;
  keepers.push_back(store->OpenSession());
  Ccam* first = keepers.back()->version()->file();
  const std::vector<QueryOutcome> oracle =
      RunInterleaved(store->OpenSession().get(), routes, units);
  ASSERT_EQ(oracle.size(), 2 * routes.size());
  first->ResetIoStats();

  std::vector<std::unique_ptr<SnapshotSession>> sessions;
  for (int t = 0; t < kReaders; ++t) sessions.push_back(store->OpenSession());
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      SnapshotSession* s = sessions[t].get();
      do {
        for (size_t i = t; i < routes.size(); i += kReaders) {
          s->Refresh();
          auto route = EvaluateRoute(s, routes[i]);
          if (!route.ok() || route->total_cost != oracle[2 * i].first) {
            ++wrong;
          }
          auto agg = AggregateRouteUnit(s, units[i % units.size()]);
          if (!agg.ok() || agg->total_edge_cost != oracle[2 * i + 1].first) {
            ++wrong;
          }
        }
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  // The writer walks the route nodes, shadowing each in the current
  // version's overlay; the pendant never lies on a route, so no answer
  // changes.
  std::vector<NodeId> anchors;
  for (const Route& route : routes) {
    anchors.insert(anchors.end(), route.nodes.begin(), route.nodes.end());
  }
  const std::vector<NodeId> ids = net.NodeIds();
  size_t next = 0;
  Status status;
  auto shadow_next = [&] {
    const NodeId anchor = anchors[next++ % anchors.size()];
    const NodeRecord pendant = PendantBeside(net, anchor, ids.back() + 1);
    if (status.ok()) status = store->InsertNode(pendant);
    if (status.ok()) status = store->DeleteNode(pendant.id);
  };
  for (int r = 0; r < kReorgs && status.ok(); ++r) {
    for (int k = 0; k < 100; ++k) shadow_next();
    if (status.ok()) status = store->StartBackgroundReorg();
    while (status.ok() && store->ReorgActive()) shadow_next();
    Status reorg = store->WaitForReorg();
    if (status.ok()) status = reorg;
    keepers.push_back(store->OpenSession());
  }
  for (int k = 0; k < 100; ++k) shadow_next();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(wrong.load(), 0);

  uint64_t session_reads = 0;
  for (const auto& s : sessions) session_reads += s->DataIoStats().reads;
  uint64_t disk_reads = 0;
  for (size_t v = 0; v < keepers.size(); ++v) {
    SnapshotVersion* version = keepers[v]->version();
    EXPECT_EQ(version->id(), v + 1);
    disk_reads += version->file()->DataIoStats().reads;
    for (const auto& [node, page] : version->file()->PageMap()) {
      EXPECT_EQ(version->file()->buffer_pool()->PinCount(page), 0);
    }
  }
  EXPECT_GT(session_reads, 0u);
  EXPECT_EQ(session_reads, disk_reads);

  sessions.clear();
  keepers.clear();
  EXPECT_EQ(store->TotalAcquires(), store->TotalReleases());
  EXPECT_EQ(store->LiveVersionCount(), 1u);
  ASSERT_TRUE(store->CheckConsistency().ok());
}

// --- The serving layer over a store ----------------------------------------

/// Routes, aggregates and A* searches as serve requests, with their
/// answers on a quiesced session.
struct ServeWorkload {
  std::vector<serve::ServeRequest> requests;
  std::vector<double> costs;
};

ServeWorkload BuildServeWorkload(SnapshotManager* store, const Network& net) {
  ServeWorkload w;
  const auto routes = GenerateRandomWalkRoutes(net, 24, 40, 61);
  const auto units = WalkUnits(net, 24, 20, 62);
  const auto pairs = RandomPairs(net, 24, 63);
  auto session = store->OpenSession();
  for (size_t i = 0; i < routes.size(); ++i) {
    serve::ServeRequest route;
    route.op = serve::ServeOp::kRouteEval;
    route.route = routes[i];
    w.requests.push_back(route);
    w.costs.push_back(EvaluateRoute(session.get(), routes[i])->total_cost);

    serve::ServeRequest agg;
    agg.op = serve::ServeOp::kAggregate;
    agg.unit = units[i];
    w.requests.push_back(agg);
    w.costs.push_back(
        AggregateRouteUnit(session.get(), units[i])->total_edge_cost);

    serve::ServeRequest astar;
    astar.op = serve::ServeOp::kAStar;
    astar.route.nodes = {pairs[i].first, pairs[i].second};
    w.requests.push_back(astar);
    w.costs.push_back(
        ShortestPathAStar(session.get(), pairs[i].first, pairs[i].second)
            ->cost);
  }
  return w;
}

// A served store under a writer that shadows route nodes and background
// reorganizations: queued requests are prefetched by the service's own
// session, which refreshes to each new version. Every answer equals the
// quiesced one, the service's sessions (prefetch included) account for
// every disk read of every version, and once Shutdown returns the
// service holds no version pin.
TEST(SnapshotServeTest, PrefetchKeepsAnswersUnderWriterAndReorgs) {
  constexpr int kReorgs = 4;
  SnapshotOptions sopt = OptionsFor("ccam_serve_prefetch_store");
  sopt.am.buffer_pool_pages = 16;
  sopt.am.buffer_pool_shards = 2;
  const Network net = ReadAheadMap();
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();
  const ServeWorkload w = BuildServeWorkload(store, net);

  // Keepers pin every published version to the end so its disk counters
  // can be summed; each opens while its version is still current.
  std::vector<std::unique_ptr<SnapshotSession>> keepers;
  keepers.push_back(store->OpenSession());
  keepers.back()->version()->file()->ResetIoStats();
  keepers.back()->version()->file()->disk()->SetSimulatedReadLatencyMicros(
      20);

  serve::QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 100000;
  options.max_tenant_depth = 100000;
  serve::QueryService service(store, options);

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::thread client([&] {
    std::vector<serve::ServeTicketPtr> tickets;
    do {
      tickets.clear();
      for (const serve::ServeRequest& request : w.requests) {
        tickets.push_back(service.Submit(request));
      }
      for (size_t i = 0; i < tickets.size(); ++i) {
        const serve::ServeResponse& r = tickets[i]->Wait();
        if (!r.status.ok() || r.cost != w.costs[i]) ++wrong;
      }
    } while (!stop.load(std::memory_order_acquire));
  });

  std::vector<NodeId> anchors;
  for (const serve::ServeRequest& request : w.requests) {
    if (request.op != serve::ServeOp::kRouteEval) continue;
    anchors.insert(anchors.end(), request.route.nodes.begin(),
                   request.route.nodes.end());
  }
  std::sort(anchors.begin(), anchors.end());
  anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
  // Each write joins a new pendant to a route node, shadowing it, the
  // route nodes in turn and paced, so no record outgrows its page. A
  // pendant is a dead end, so no answer changes, and it is never deleted:
  // a search that reached it before a deletion would fail with NotFound.
  NodeId pendant_id = net.NodeIds().back();
  size_t next = 0;
  Status status;
  auto shadow_next = [&] {
    const NodeRecord pendant =
        PendantBeside(net, anchors[next++ % anchors.size()], ++pendant_id);
    if (status.ok()) status = store->InsertNode(pendant);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  for (int r = 0; r < kReorgs && status.ok(); ++r) {
    for (int k = 0; k < 100; ++k) shadow_next();
    if (status.ok()) status = store->StartBackgroundReorg();
    while (status.ok() && store->ReorgActive()) shadow_next();
    Status reorg = store->WaitForReorg();
    if (status.ok()) status = reorg;
    keepers.push_back(store->OpenSession());
  }
  for (int k = 0; k < 100; ++k) shadow_next();
  stop.store(true, std::memory_order_release);
  client.join();
  service.Shutdown(/*drain=*/true);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(service.GetStats().prefetched, 0u);

  uint64_t disk_reads = 0;
  for (const auto& keeper : keepers) {
    disk_reads += keeper->version()->file()->DataIoStats().reads;
  }
  EXPECT_EQ(service.TotalSessionIoStats().reads, disk_reads);
  // Only the keepers still pin versions: the workers' and the prefetch
  // session's pins went with Shutdown.
  EXPECT_EQ(store->TotalAcquires() - store->TotalReleases(), keepers.size());
  keepers.clear();
  EXPECT_EQ(store->TotalAcquires(), store->TotalReleases());
  EXPECT_EQ(store->LiveVersionCount(), 1u);
  ASSERT_TRUE(store->CheckConsistency().ok());
}

// A store created from an empty network has no data pages; nodes and an
// edge inserted since then live in the overlay alone. A route over them is
// served, with the answer a plain session gives.
TEST(SnapshotServeTest, EmptyBaseStoreServesOverlayOnlyNodes) {
  SnapshotOptions sopt = OptionsFor("ccam_serve_empty_base_store");
  auto mgr = SnapshotManager::Create(sopt, Network());
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();
  for (NodeId id : {1u, 2u}) {
    NodeRecord rec;
    rec.id = id;
    rec.x = rec.y = static_cast<double>(id);
    ASSERT_TRUE(store->InsertNode(rec).ok());
  }
  ASSERT_TRUE(store->InsertEdge(1, 2, 5.0f).ok());

  serve::ServeRequest request;
  request.op = serve::ServeOp::kRouteEval;
  request.route.nodes = {1, 2};
  auto expected = EvaluateRoute(store->OpenSession().get(), request.route);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  serve::QueryService service(store, serve::QueryServiceOptions{});
  serve::ServeTicketPtr ticket = service.Submit(request);
  const serve::ServeResponse& r = ticket->Wait();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.cost, expected->total_cost);
  EXPECT_EQ(r.num_edges, expected->num_edges);
  service.Shutdown(/*drain=*/true);
}

// Submit checks a request's origin and every session refresh checks the
// version without the manager lock, which a writer holds across its
// delta-log append and a swap across its publish: a request submitted
// while the lock is held elsewhere is admitted and served. After a swap
// every session of the service is stale, and moving one to the new
// version takes the lock: the workers wait for it at their request
// boundaries, but Submit, which issues hints through the service's own
// session, still never does.
TEST(SnapshotServeTest, SubmitNeverWaitsForTheManagerLock) {
  SnapshotOptions sopt = OptionsFor("ccam_serve_lock_store");
  const Network net = ReadAheadMap();
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();
  const ServeWorkload w = BuildServeWorkload(store, net);

  serve::QueryServiceOptions options;
  options.num_workers = 2;
  serve::QueryService service(store, options);
  // Submits the workload while the manager lock is held; true when every
  // Submit returned. With `served` given, it also reports whether every
  // request was answered before the lock is released.
  auto submit_held = [&](std::vector<serve::ServeTicketPtr>* tickets,
                         bool* served) {
    bool submitted = false;
    std::unique_lock<std::mutex> held = SnapshotManagerTestPeer::Lock(store);
    auto submit = std::async(std::launch::async, [&] {
      for (const serve::ServeRequest& request : w.requests) {
        tickets->push_back(service.Submit(request));
      }
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    submitted = submit.wait_until(deadline) == std::future_status::ready;
    if (served != nullptr) *served = false;
    while (submitted && served != nullptr && !*served &&
           std::chrono::steady_clock::now() < deadline) {
      *served = true;
      for (const auto& ticket : *tickets) {
        *served = *served && ticket->done();
      }
      if (!*served) std::this_thread::yield();
    }
    held.unlock();
    // A blocked Submit finishes once the lock is released, so the test
    // fails instead of hanging.
    submit.wait();
    return submitted;
  };
  auto expect_answers = [&](const std::vector<serve::ServeTicketPtr>& t) {
    ASSERT_EQ(t.size(), w.requests.size());
    for (size_t i = 0; i < t.size(); ++i) {
      const serve::ServeResponse& r = t[i]->Wait();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_EQ(r.cost, w.costs[i]);
    }
  };

  std::vector<serve::ServeTicketPtr> tickets;
  bool served = false;
  EXPECT_TRUE(submit_held(&tickets, &served));
  EXPECT_TRUE(served);
  expect_answers(tickets);

  const uint64_t before = store->CurrentVersionId();
  ASSERT_TRUE(store->ReorganizeNow().ok());
  ASSERT_NE(store->CurrentVersionId(), before);
  std::vector<serve::ServeTicketPtr> after_swap;
  EXPECT_TRUE(submit_held(&after_swap, nullptr));
  expect_answers(after_swap);
  EXPECT_GT(service.GetStats().prefetched, 0u);
  service.Shutdown(/*drain=*/true);
}

}  // namespace
}  // namespace ccam
