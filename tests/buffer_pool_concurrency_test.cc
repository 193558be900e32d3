// Hammers one sharded BufferPool (and the QuerySession read path above
// it) from many threads. Run under ThreadSanitizer via the CCAM_TSAN
// build (scripts/check_tsan.sh): the assertions here check counter
// conservation and pin accounting; TSan checks the latching.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/core/ccam.h"
#include "src/core/query_session.h"
#include "src/graph/generator.h"
#include "src/graph/route.h"
#include "src/query/aggregate.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"

namespace ccam {
namespace {

constexpr int kThreads = 8;

/// Mid-flight counter sampler: repeatedly reads `progress` (the workers'
/// count of completed successful fetches), then takes a GetCounters()
/// snapshot, until `done`. Because a worker bumps its shard's hit/miss
/// counter *before* it bumps `progress`, every consistent snapshot must
/// satisfy hits + misses >= progress-read-before-it, and the snapshot
/// total must be monotone across samples. A torn (per-shard-inconsistent)
/// snapshot breaks both. Returns the number of samples taken; sets
/// `*torn` if any invariant failed.
uint64_t SampleCountersUntilDone(const BufferPool& pool,
                                 const std::atomic<uint64_t>& progress,
                                 const std::atomic<bool>& done, bool* torn) {
  uint64_t samples = 0;
  uint64_t prev_total = 0;
  while (!done.load()) {
    uint64_t before = progress.load();
    BufferPool::Counters c = pool.GetCounters();
    uint64_t total = c.hits + c.misses;
    if (total < before || total < prev_total) *torn = true;
    prev_total = total;
    ++samples;
    std::this_thread::yield();
  }
  return samples;
}

TEST(BufferPoolConcurrencyTest, MixedFetchHammer) {
  DiskManager disk(128);
  std::vector<PageId> ids;
  for (int i = 0; i < 96; ++i) ids.push_back(*disk.AllocatePage());
  BufferPool pool(&disk, 32, ReplacementPolicy::kLru, /*num_shards=*/4);
  MetricsRegistry metrics;
  pool.SetMetrics(&metrics);

  std::atomic<uint64_t> fetches{0};
  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  bool torn = false;
  uint64_t samples = 0;
  std::thread sampler([&] {
    samples = SampleCountersUntilDone(pool, fetches, done, &torn);
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(1000 + t);
      for (int i = 0; i < 4000; ++i) {
        // Hot-page skew: half the fetches hit the first 4 pages, forcing
        // same-page contention across shards and threads.
        PageId id = (rng.Uniform(2) == 0)
                        ? ids[rng.Uniform(4)]
                        : ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
        auto res = pool.FetchPage(id);
        if (!res.ok()) {
          failed.store(true);
          return;
        }
        fetches.fetch_add(1);
        // Occasionally nest a second pin on the same page.
        if (rng.Uniform(8) == 0) {
          auto res2 = pool.FetchPage(id);
          if (res2.ok()) {
            fetches.fetch_add(1);
            if (!pool.UnpinPage(id, false).ok()) failed.store(true);
          } else {
            failed.store(true);
          }
        }
        if (!pool.UnpinPage(id, false).ok()) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true);
  sampler.join();

  EXPECT_FALSE(failed.load());
  EXPECT_FALSE(torn) << "mid-flight GetCounters() snapshot violated "
                        "hits + misses >= completed fetches";
  EXPECT_GT(samples, 0u);
  // Counter conservation: every fetch is exactly one hit or one miss.
  EXPECT_EQ(pool.hits() + pool.misses(), fetches.load());
  // The attached registry mirrors the pool's own accounting exactly.
  EXPECT_EQ(metrics.GetCounter("buffer_pool.hit")->value(), pool.hits());
  EXPECT_EQ(metrics.GetCounter("buffer_pool.miss")->value(), pool.misses());
  // Every miss is exactly one disk read.
  EXPECT_EQ(disk.stats().reads, pool.misses());
  // No lost pins: every page settles at pin count 0.
  for (PageId id : ids) EXPECT_EQ(pool.PinCount(id), 0) << id;
  EXPECT_LE(pool.NumBuffered(), 32u);
}

TEST(BufferPoolConcurrencyTest, SamePageStorm) {
  // All threads fetch the one page of a capacity-starved shard layout:
  // concurrent first fetches must resolve to a single disk read per
  // residency, with followers waiting and scoring hits.
  DiskManager disk(128);
  PageId hot = *disk.AllocatePage();
  BufferPool pool(&disk, 4, ReplacementPolicy::kClock, /*num_shards=*/2);

  std::atomic<uint64_t> fetches{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        auto res = pool.FetchPage(hot);
        if (!res.ok()) {
          failed.store(true);
          return;
        }
        fetches.fetch_add(1);
        if (!pool.UnpinPage(hot, false).ok()) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(pool.hits() + pool.misses(), fetches.load());
  // The page is never evicted (nothing else competes), so exactly one
  // read happens no matter how many threads raced the first fetch.
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(pool.PinCount(hot), 0);
}

TEST(BufferPoolConcurrencyTest, FaultActiveHammerConservesState) {
  // The MixedFetchHammer workload with a ~3% transient read-error fault
  // armed: fetches now fail nondeterministically across threads. The pool
  // must stay conservative — no leaked frames, no stuck pins, no deadlock
  // on the single-flight I/O path — and fully recover once the fault is
  // disarmed. Run under TSan via scripts/check_tsan.sh like the rest of
  // this binary.
  FaultInjector faults(1995);
  ASSERT_TRUE(faults.Configure("disk.read=error@p0.03").ok());
  DiskManager disk(128);
  disk.SetFaultInjector(&faults);
  std::vector<PageId> ids;
  for (int i = 0; i < 96; ++i) ids.push_back(*disk.AllocatePage());
  BufferPool pool(&disk, 32, ReplacementPolicy::kLru, /*num_shards=*/4);

  std::atomic<uint64_t> successes{0};
  std::atomic<uint64_t> io_failures{0};
  std::atomic<bool> broken{false};
  // Mid-flight snapshots must stay consistent even while fetches are
  // failing: a failed fetch bumps neither counter, so the sampler's
  // invariant is against *successes* only.
  std::atomic<bool> done{false};
  bool torn = false;
  uint64_t samples = 0;
  std::thread sampler([&] {
    samples = SampleCountersUntilDone(pool, successes, done, &torn);
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(2000 + t);
      for (int i = 0; i < 4000; ++i) {
        PageId id = (rng.Uniform(2) == 0)
                        ? ids[rng.Uniform(4)]
                        : ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
        auto res = pool.FetchPage(id);
        if (!res.ok()) {
          // Injected faults surface as IOError; anything else is a bug.
          if (!res.status().IsIOError()) broken.store(true);
          io_failures.fetch_add(1);
          continue;
        }
        successes.fetch_add(1);
        if (!pool.UnpinPage(id, false).ok()) broken.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true);
  sampler.join();

  EXPECT_FALSE(broken.load());
  EXPECT_FALSE(torn) << "mid-flight GetCounters() snapshot violated "
                        "hits + misses >= successful fetches";
  EXPECT_GT(samples, 0u);
  EXPECT_GT(io_failures.load(), 0u) << "fault never fired";
  // Conservation under faults: every *successful* fetch is exactly one
  // pool hit or one completed disk read. A failed fetch is neither (the
  // frame is recycled, the read never completed), and followers that
  // joined a failed single-flight I/O retry as their own misses, so only
  // their own reads touch either counter.
  EXPECT_EQ(successes.load(), pool.hits() + disk.stats().reads);
  // No leaked pins or frames.
  for (PageId id : ids) EXPECT_EQ(pool.PinCount(id), 0) << id;
  EXPECT_LE(pool.NumBuffered(), 32u);

  // Disarmed, the pool serves every page again: transient faults must not
  // leave poisoned frames behind.
  faults.Reset();
  for (PageId id : ids) {
    auto res = pool.FetchPage(id);
    ASSERT_TRUE(res.ok()) << "page " << id << " still failing: "
                          << res.status().ToString();
    EXPECT_TRUE(pool.UnpinPage(id, false).ok());
  }
}

class QuerySessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = GenerateMinneapolisLikeMap(1995);
    AccessMethodOptions options;
    options.page_size = 1024;
    options.buffer_pool_pages = 32;
    options.buffer_pool_shards = 4;
    am_ = std::make_unique<Ccam>(options, CcamCreateMode::kStatic);
    ASSERT_TRUE(am_->Create(net_).ok());
    routes_ = GenerateRandomWalkRoutes(net_, 64, 20, 11);
  }

  Network net_;
  std::unique_ptr<Ccam> am_;
  std::vector<Route> routes_;
};

TEST_F(QuerySessionTest, SessionAccountingMatchesDirectSingleThread) {
  // A single-threaded session must report exactly the same per-route
  // data-page accesses as querying the file directly (same pool state).
  std::vector<uint64_t> direct;
  ASSERT_TRUE(am_->buffer_pool()->Reset().ok());
  am_->ResetIoStats();
  for (const Route& r : routes_) {
    auto res = EvaluateRoute(am_.get(), r);
    ASSERT_TRUE(res.ok());
    direct.push_back(res->page_accesses);
  }
  ASSERT_TRUE(am_->buffer_pool()->Reset().ok());
  am_->ResetIoStats();
  auto session = am_->OpenSession();
  for (size_t i = 0; i < routes_.size(); ++i) {
    auto res = EvaluateRoute(session.get(), routes_[i]);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res->page_accesses, direct[i]) << "route " << i;
  }
  // And the session total equals the global disk-read total.
  EXPECT_EQ(session->DataIoStats().reads, am_->DataIoStats().reads);
  EXPECT_EQ(session->DataIoStats().writes, 0u);
}

TEST_F(QuerySessionTest, ParallelSessionsConserveAccounting) {
  ASSERT_TRUE(am_->buffer_pool()->Reset().ok());
  am_->ResetIoStats();
  am_->buffer_pool()->ResetCounters();

  std::vector<std::unique_ptr<QuerySession>> sessions;
  for (int t = 0; t < kThreads; ++t) sessions.push_back(am_->OpenSession());
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QuerySession* s = sessions[t].get();
      for (size_t i = t; i < routes_.size(); i += kThreads) {
        auto res = EvaluateRoute(s, routes_[i]);
        if (!res.ok()) failed.store(true);
        auto find = s->Find(routes_[i].nodes.front());
        if (!find.ok()) failed.store(true);
        auto succ = s->GetSuccessors(routes_[i].nodes.back());
        if (!succ.ok()) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load());

  // Exact conservation: per-session reads sum to the global disk reads,
  // and mutating counters stay untouched (read-only path).
  uint64_t session_reads = 0;
  for (const auto& s : sessions) {
    IoStats io = s->DataIoStats();
    session_reads += io.reads;
    EXPECT_EQ(io.writes, 0u);
  }
  IoStats global = am_->DataIoStats();
  EXPECT_EQ(session_reads, global.reads);
  EXPECT_EQ(global.writes, 0u);
  EXPECT_EQ(am_->buffer_pool()->misses(), global.reads);
  // No lost pins anywhere.
  for (const auto& [node, page] : am_->PageMap()) {
    EXPECT_EQ(am_->buffer_pool()->PinCount(page), 0);
  }
}

TEST(ReadAheadConcurrencyTest, RouteHammerOnASmallPoolConservesReads) {
  // Eight sessions read ahead and evaluate routes, route-unit aggregates
  // and A* searches between the route ends over one 16-page pool:
  // reservations, evictions and landed batches race each other and the
  // demand fetches. Every load is charged to exactly one session, and
  // every first fetch of a load to the session that made it.
  const Network net = GenerateMinneapolisLikeMap(1995);
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 16;
  options.buffer_pool_shards = 2;
  Ccam am(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(net).ok());
  am.disk()->SetSimulatedReadLatencyMicros(20);
  const auto routes = GenerateRandomWalkRoutes(net, 96, 40, 13);
  std::vector<double> astar_costs;
  for (const Route& route : routes) {
    auto res = ShortestPathAStar(&am, route.nodes.front(), route.nodes.back());
    ASSERT_TRUE(res.ok());
    astar_costs.push_back(res->cost);
  }
  ASSERT_TRUE(am.buffer_pool()->Reset().ok());
  am.buffer_pool()->ResetCounters();
  am.ResetIoStats();

  std::vector<std::unique_ptr<QuerySession>> sessions;
  for (int t = 0; t < kThreads; ++t) sessions.push_back(am.OpenSession());
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QuerySession* s = sessions[t].get();
      for (size_t i = t; i < routes.size(); i += kThreads) {
        auto res = EvaluateRoute(s, routes[i]);
        if (!res.ok() || res->num_edges + 1 != routes[i].nodes.size()) {
          failed.store(true);
        }
        RouteUnit unit;
        for (size_t k = 0; k + 1 < routes[i].nodes.size(); ++k) {
          unit.edges.emplace_back(routes[i].nodes[k], routes[i].nodes[k + 1]);
        }
        if (!AggregateRouteUnit(s, unit).ok()) failed.store(true);
        auto path = ShortestPathAStar(s, routes[i].nodes.front(),
                                      routes[i].nodes.back());
        if (!path.ok() || path->cost != astar_costs[i]) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load());

  uint64_t session_reads = 0;
  uint64_t session_ahead_misses = 0;
  for (const auto& s : sessions) {
    session_reads += s->DataIoStats().reads;
    session_ahead_misses += s->DataIoStats().ahead_misses;
  }
  const IoStats global = am.DataIoStats();
  EXPECT_GT(global.reads, 0u);
  EXPECT_EQ(session_reads, global.reads);
  EXPECT_EQ(am.buffer_pool()->misses(), global.reads);
  EXPECT_GT(global.ahead_misses, 0u);
  EXPECT_EQ(session_ahead_misses, global.ahead_misses);
  for (const auto& [node, page] : am.PageMap()) {
    EXPECT_EQ(am.buffer_pool()->PinCount(page), 0);
  }
  EXPECT_LE(am.buffer_pool()->NumBuffered(), 16u);
}

TEST_F(QuerySessionTest, SessionsRejectMutations) {
  auto session = am_->OpenSession();
  NodeRecord rec;
  rec.id = 999999;
  EXPECT_TRUE(session->InsertNode(rec, ReorgPolicy::kFirstOrder)
                  .IsNotSupported());
  EXPECT_TRUE(
      session->DeleteNode(0, ReorgPolicy::kFirstOrder).IsNotSupported());
  EXPECT_TRUE(session->InsertEdge(0, 1, 1.0f, ReorgPolicy::kFirstOrder)
                  .IsNotSupported());
  EXPECT_TRUE(
      session->DeleteEdge(0, 1, ReorgPolicy::kFirstOrder).IsNotSupported());
  EXPECT_TRUE(session->Create(net_).IsNotSupported());
}

}  // namespace
}  // namespace ccam
