// MetricsRegistry / histogram / trace-ring unit tests, the multi-thread
// increment-conservation hammer (run under TSan via check_tsan.sh), the
// IoStats saturating-delta regression test, and the guard that attaching
// metrics leaves the paper's page-access accounting byte-identical.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/core/ccam.h"
#include "src/graph/generator.h"
#include "src/graph/route.h"
#include "src/query/hierarchy.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/storage/io_stats.h"

namespace ccam {
namespace {

TEST(MetricCounterTest, IncAndReset) {
  MetricCounter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricGaugeTest, SetAddReset) {
  MetricGauge g;
  g.Set(7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricHistogramTest, BucketLayoutTwoPerOctave) {
  // Bounds: 1, 2, 3, 4, 6, 8, 12, 16, 24, ... last bucket = everything.
  EXPECT_EQ(MetricHistogram::BucketUpperBound(0), 1u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(1), 2u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(3), 4u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(4), 6u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(5), 8u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(6), 12u);
  EXPECT_EQ(MetricHistogram::BucketUpperBound(MetricHistogram::kNumBuckets - 1),
            ~uint64_t{0});
  // Strictly increasing (no duplicate bounds — a duplicate would make a
  // bucket unreachable and shift every percentile).
  for (int i = 1; i < MetricHistogram::kNumBuckets; ++i) {
    EXPECT_LT(MetricHistogram::BucketUpperBound(i - 1),
              MetricHistogram::BucketUpperBound(i))
        << "bucket " << i;
  }
  // A value at a bound lands in that bound's bucket (inclusive upper
  // edge); one past it lands in the next.
  EXPECT_EQ(MetricHistogram::BucketIndex(0), 0);
  EXPECT_EQ(MetricHistogram::BucketIndex(1), 0);
  EXPECT_EQ(MetricHistogram::BucketIndex(2), 1);
  EXPECT_EQ(MetricHistogram::BucketIndex(6), 4);
  EXPECT_EQ(MetricHistogram::BucketIndex(7), 5);
  EXPECT_EQ(MetricHistogram::BucketIndex(~uint64_t{0}),
            MetricHistogram::kNumBuckets - 1);
}

TEST(MetricHistogramTest, CountSumMean) {
  MetricHistogram h;
  EXPECT_EQ(h.Percentile(50), 0u) << "empty histogram reports 0";
  h.Record(1);
  h.Record(3);
  h.Record(8);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 12u);
  EXPECT_DOUBLE_EQ(h.Mean(), 4.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
}

TEST(MetricHistogramTest, PercentileAtBucketEdges) {
  // 100 values, one per rank, all exactly on bucket bounds: percentiles
  // must come back exact, not off by one bucket.
  MetricHistogram h;
  for (int i = 0; i < 50; ++i) h.Record(1);
  for (int i = 0; i < 45; ++i) h.Record(4);
  for (int i = 0; i < 4; ++i) h.Record(16);
  h.Record(64);
  ASSERT_EQ(h.count(), 100u);
  // rank(50) = 50 -> cumulative 50 reached by the "1" bucket.
  EXPECT_EQ(h.Percentile(50), 1u);
  // rank(95) = 95 -> reached by the "4" bucket (50 + 45).
  EXPECT_EQ(h.Percentile(95), 4u);
  // rank(99) = 99 -> reached by the "16" bucket (50 + 45 + 4).
  EXPECT_EQ(h.Percentile(99), 16u);
  EXPECT_EQ(h.Percentile(100), 64u);
  // p just past a bucket's cumulative share crosses to the next bound:
  // ceil(50.01) = rank 51, first reached by the "4" bucket.
  EXPECT_EQ(h.Percentile(50.01), 4u);
}

TEST(MetricHistogramTest, SingleValuePercentiles) {
  MetricHistogram h;
  h.Record(6);  // exactly on a bound
  EXPECT_EQ(h.Percentile(1), 6u);
  EXPECT_EQ(h.Percentile(50), 6u);
  EXPECT_EQ(h.Percentile(100), 6u);
  // A value between bounds reports the bucket's upper edge (5 -> 6).
  MetricHistogram h2;
  h2.Record(5);
  EXPECT_EQ(h2.Percentile(50), 6u);
}

TEST(MetricsRegistryTest, StablePointersAndCatalog) {
  MetricsRegistry reg;
  MetricCounter* a = reg.GetCounter("buffer_pool.hit");
  MetricCounter* b = reg.GetCounter("buffer_pool.hit");
  EXPECT_EQ(a, b) << "same name must return the same object";
  EXPECT_NE(a, reg.GetCounter("buffer_pool.miss"));
  reg.GetGauge("pool.resident");
  reg.GetHistogram("disk.read_us")->Record(3);
  a->Inc(5);

  std::vector<MetricsRegistry::Sample> samples = reg.Samples();
  ASSERT_EQ(samples.size(), 4u);
  // Sorted by name within each kind; counters first.
  EXPECT_EQ(samples[0].name, "buffer_pool.hit");
  EXPECT_EQ(samples[0].count, 5u);
  EXPECT_EQ(samples[1].name, "buffer_pool.miss");

  reg.Reset();
  EXPECT_EQ(a->value(), 0u) << "Reset zeroes values, keeps the catalog";
  EXPECT_EQ(reg.GetCounter("buffer_pool.hit"), a);
  EXPECT_EQ(reg.Samples().size(), 4u);
}

TEST(MetricsRegistryTest, ExportJsonContainsSeries) {
  MetricsRegistry reg;
  reg.GetCounter("disk.read")->Inc(3);
  reg.GetHistogram("disk.read_us")->Record(4);
  std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"disk.read\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"disk.read_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos) << json;
}

TEST(MetricsRegistryTest, EightThreadIncrementConservation) {
  // 8 threads hammer one shared counter, one per-thread counter, and one
  // shared histogram. Totals must be exact — relaxed atomics may reorder
  // but never lose increments. Run under TSan via scripts/check_tsan.sh.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  MetricsRegistry reg;
  MetricCounter* shared = reg.GetCounter("hammer.shared");
  MetricHistogram* hist = reg.GetHistogram("hammer.us");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Concurrent first-use registration of the same per-thread name
      // family exercises the locked lookup path.
      MetricCounter* own =
          reg.GetCounter("hammer.thread" + std::to_string(t % 2));
      for (int i = 0; i < kPerThread; ++i) {
        shared->Inc();
        own->Inc();
        hist->Record(static_cast<uint64_t>(i % 32));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(shared->value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(reg.GetCounter("hammer.thread0")->value() +
                reg.GetCounter("hammer.thread1")->value(),
            uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(hist->count(), uint64_t{kThreads} * kPerThread);
  // Sum conservation: each thread contributed sum(0..31) * (kPerThread/32).
  uint64_t per_thread_sum = uint64_t{31} * 32 / 2 * (kPerThread / 32);
  EXPECT_EQ(hist->sum(), per_thread_sum * kThreads);
}

TEST(QuerySpanTest, NullRegistryIsInert) {
  { QuerySpan span(nullptr, "query.test"); }  // must not touch anything
  MetricsRegistry reg;
  {
    QuerySpan span(&reg, "query.test");
  }
  EXPECT_EQ(reg.GetCounter("query.test")->value(), 1u);
  EXPECT_EQ(reg.GetHistogram("query.test_us")->count(), 1u);
}

// --- IoStats saturating delta (regression) --------------------------------

TEST(IoStatsTest, DeltaSaturatesAtZeroAfterReset) {
  // Before the fix, a "before" snapshot taken before a counter reset
  // produced a wrapped ~2^64 delta that poisoned every derived average.
  IoStats before{/*reads=*/100, /*writes=*/40, /*allocs=*/7, /*frees=*/3};
  IoStats after_reset{/*reads=*/5, /*writes=*/0, /*allocs=*/8, /*frees=*/0};
  IoStats delta = after_reset - before;
  EXPECT_EQ(delta.reads, 0u);
  EXPECT_EQ(delta.writes, 0u);
  EXPECT_EQ(delta.allocs, 1u) << "fields saturate independently";
  EXPECT_EQ(delta.frees, 0u);
  EXPECT_EQ(delta.Accesses(), 0u);

  // The normal direction is untouched.
  IoStats normal = before - IoStats{90, 40, 0, 0};
  EXPECT_EQ(normal.reads, 10u);
  EXPECT_EQ(normal.writes, 0u);
  EXPECT_EQ(normal.allocs, 7u);
}

// --- Attaching metrics must not perturb the paper's accounting ------------

TEST(MetricsGuardTest, PageAccessCountsIdenticalWithMetricsAttached) {
  // Runs the same Table-5-style workload twice — metrics detached, then
  // attached — and requires byte-identical page-access accounting: same
  // per-query counts, same global IoStats, same page map. The registry
  // only observes; it must never change what is counted.
  Network net = GenerateMinneapolisLikeMap(1995);
  std::vector<Route> routes = GenerateRandomWalkRoutes(net, 24, 16, 5);

  struct Run {
    std::vector<uint64_t> per_query;
    IoStats io;
    uint64_t pool_hits = 0, pool_misses = 0;
    NodePageMap page_map;
  };
  auto run_workload = [&](MetricsRegistry* metrics) {
    AccessMethodOptions options;
    options.page_size = 1024;
    options.buffer_pool_pages = 8;
    Ccam am(options, CcamCreateMode::kStatic);
    if (metrics != nullptr) am.SetMetrics(metrics);
    EXPECT_TRUE(am.Create(net).ok());
    am.ResetIoStats();
    am.buffer_pool()->ResetCounters();
    // The registry is cumulative and unaffected by the pool/disk resets;
    // zero it at the same point so both accountings cover the same window.
    if (metrics != nullptr) metrics->Reset();
    Run run;
    for (const Route& r : routes) {
      auto res = EvaluateRoute(&am, r);
      EXPECT_TRUE(res.ok());
      run.per_query.push_back(res->page_accesses);
    }
    auto sp = ShortestPathAStar(&am, routes[0].nodes.front(),
                                routes[0].nodes.back());
    EXPECT_TRUE(sp.ok());
    run.per_query.push_back(sp->page_accesses);
    run.io = am.DataIoStats();
    run.pool_hits = am.buffer_pool()->hits();
    run.pool_misses = am.buffer_pool()->misses();
    run.page_map = am.PageMap();
    return run;
  };

  Run off = run_workload(nullptr);
  MetricsRegistry reg;
  Run on = run_workload(&reg);

  EXPECT_EQ(off.per_query, on.per_query);
  EXPECT_TRUE(off.io == on.io);
  EXPECT_EQ(off.pool_hits, on.pool_hits);
  EXPECT_EQ(off.pool_misses, on.pool_misses);
  EXPECT_EQ(off.page_map, on.page_map);

  // And the observed run actually observed: the registry's counters agree
  // exactly with the pool's own accounting.
  EXPECT_EQ(reg.GetCounter("buffer_pool.hit")->value(), on.pool_hits);
  EXPECT_EQ(reg.GetCounter("buffer_pool.miss")->value(), on.pool_misses);
  EXPECT_EQ(reg.GetCounter("disk.read")->value(), on.io.reads);
  EXPECT_EQ(reg.GetCounter("query.route_eval")->value(), routes.size());
  EXPECT_EQ(reg.GetCounter("query.search")->value(), 1u);
}

// --- Search counter conservation ------------------------------------------

TEST(SearchCountersTest, SettledAndRelaxedConservation) {
  Network net = GenerateMinneapolisLikeMap(1995);
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 8;
  Ccam am(options, CcamCreateMode::kStatic);
  MetricsRegistry reg;
  am.SetMetrics(&reg);
  ASSERT_TRUE(am.Create(net).ok());
  reg.Reset();

  std::vector<NodeId> ids = net.NodeIds();
  Random rng(42);
  const int kQueries = 12;
  uint64_t expanded_sum = 0;
  for (int i = 0; i < kQueries; ++i) {
    NodeId src = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    NodeId dst = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    auto res = (i % 2 == 0) ? ShortestPathDijkstra(&am, src, dst)
                            : ShortestPathAStar(&am, src, dst);
    ASSERT_TRUE(res.ok());
    expanded_sum += res->nodes_expanded;
  }

  // Conservation: the settled counter is exactly the sum of the per-query
  // nodes_expanded the results already report; each search is one span.
  EXPECT_EQ(reg.GetCounter("query.search.settled")->value(), expanded_sum);
  EXPECT_EQ(reg.GetCounter("query.search")->value(),
            static_cast<uint64_t>(kQueries));
  EXPECT_EQ(reg.GetHistogram("query.search_us")->count(),
            static_cast<uint64_t>(kQueries));
  // Every settled node except a source entered the frontier through a
  // relaxation, and no relaxation is counted after its edge is pruned.
  uint64_t relaxed = reg.GetCounter("query.search.relaxed")->value();
  EXPECT_GE(relaxed + kQueries, expanded_sum);
  EXPECT_GT(relaxed, 0u);
}

TEST(SearchCountersTest, HierarchyCountersConservation) {
  Network net = GenerateMinneapolisLikeMap(1995);
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 8;
  options.hierarchy_overlay = true;
  Ccam am(options, CcamCreateMode::kStatic);
  MetricsRegistry reg;
  am.SetMetrics(&reg);
  ASSERT_TRUE(am.Create(net).ok());
  reg.Reset();

  std::vector<NodeId> ids = net.NodeIds();
  Random rng(7);
  const int kQueries = 12;
  uint64_t expanded_sum = 0;
  for (int i = 0; i < kQueries; ++i) {
    NodeId src = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    NodeId dst = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    auto res = ShortestPathCH(&am, src, dst);
    ASSERT_TRUE(res.ok());
    expanded_sum += res->nodes_expanded;
  }

  EXPECT_EQ(reg.GetCounter("query.hierarchy")->value(),
            static_cast<uint64_t>(kQueries));
  EXPECT_EQ(reg.GetHistogram("query.hierarchy_us")->count(),
            static_cast<uint64_t>(kQueries));
  EXPECT_EQ(reg.GetCounter("query.hierarchy.settled")->value(), expanded_sum);
  // The bidirectional search seeds two frontiers per query; every other
  // settle stems from a relaxation.
  uint64_t relaxed = reg.GetCounter("query.hierarchy.relaxed")->value();
  EXPECT_GE(relaxed + 2 * kQueries, expanded_sum);
  EXPECT_GT(relaxed, 0u);
  // CH queries never touch the flat-search counters and vice versa.
  EXPECT_EQ(reg.GetCounter("query.search")->value(), 0u);
}

TEST(SearchCountersTest, NullRegistryLeavesSearchResultsIdentical) {
  // The zero-overhead contract: counters are resolved once per search and
  // skipped entirely on a null registry, so attaching a registry must not
  // change any reported result field.
  Network net = GenerateRingRadialCity(6, 8);
  std::vector<NodeId> ids = net.NodeIds();
  auto run = [&](MetricsRegistry* reg) {
    AccessMethodOptions options;
    options.page_size = 1024;
    options.buffer_pool_pages = 8;
    options.hierarchy_overlay = true;
    Ccam am(options, CcamCreateMode::kStatic);
    if (reg != nullptr) am.SetMetrics(reg);
    EXPECT_TRUE(am.Create(net).ok());
    auto dj = ShortestPathDijkstra(&am, ids.front(), ids.back());
    auto ch = ShortestPathCH(&am, ids.front(), ids.back());
    EXPECT_TRUE(dj.ok());
    EXPECT_TRUE(ch.ok());
    return std::make_tuple(dj->path, dj->nodes_expanded, dj->page_accesses,
                           ch->path, ch->nodes_expanded, ch->page_accesses);
  };
  MetricsRegistry reg;
  EXPECT_EQ(run(nullptr), run(&reg));
  EXPECT_GT(reg.GetCounter("query.search.settled")->value(), 0u);
  EXPECT_GT(reg.GetCounter("query.hierarchy.settled")->value(), 0u);
}

}  // namespace
}  // namespace ccam
