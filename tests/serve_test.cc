// Query-serving layer tests: DRR scheduler semantics, token-bucket
// admission, the served-vs-serial equivalence oracle (with exact
// per-session I/O conservation) over a file, a snapshot store and a
// sharded file, typed rejection of an unstored origin, admission prefetch (oracle answers and
// conservation across pool and page sizes, a short read inside a
// prefetch batch, a cancelling shutdown with hints pending),
// anti-starvation under a flooding tenant, work conservation of the
// shared run queue, idle shutdown cycles, and the overload +
// shutdown-cancellation hammer that scripts/check_tsan.sh runs under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/core/ccam.h"
#include "src/core/query_session.h"
#include "src/graph/generator.h"
#include "src/query/aggregate.h"
#include "src/query/hierarchy.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/serve/admission.h"
#include "src/serve/loadgen.h"
#include "src/serve/query_service.h"
#include "src/serve/scheduler.h"
#include "src/shard/sharded_network_file.h"
#include "src/storage/snapshot_manager.h"

namespace ccam {
namespace {

using serve::AdmissionController;
using serve::DrrScheduler;
using serve::LoadgenOptions;
using serve::QueryService;
using serve::QueryServiceOptions;
using serve::QueuedRequest;
using serve::ServeOp;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServeTicketPtr;
using serve::TokenBucket;

Network TestNetwork() {
  RoadMapOptions gen;
  gen.rows = 24;
  gen.cols = 24;
  gen.nodes_to_remove = 6;
  gen.seed = 2024;
  return GenerateRoadMap(gen);
}

std::unique_ptr<Ccam> MakeFile(const Network& net, size_t page_size,
                               size_t pool_pages, bool overlay) {
  AccessMethodOptions options;
  options.page_size = page_size;
  options.buffer_pool_pages = pool_pages;
  if (overlay) options.hierarchy_overlay = true;
  auto am = std::make_unique<Ccam>(options, CcamCreateMode::kStatic);
  EXPECT_TRUE(am->Create(net).ok());
  return am;
}

QueuedRequest MakeQueued(uint32_t tenant, uint64_t seq = 0) {
  QueuedRequest item;
  item.request.tenant = tenant;
  item.request.route.nodes = {0};
  item.enqueue_us = seq;
  item.ticket = std::make_shared<serve::ServeTicket>();
  return item;
}

// --- DRR scheduler -------------------------------------------------------

TEST(DrrSchedulerTest, PopConservesDepth) {
  DrrScheduler sched(/*quantum=*/8);
  for (int i = 0; i < 3; ++i) sched.Enqueue(MakeQueued(1));
  for (int i = 0; i < 2; ++i) sched.Enqueue(MakeQueued(2));
  sched.Enqueue(MakeQueued(3));
  EXPECT_EQ(sched.depth(), 6u);
  EXPECT_EQ(sched.TenantDepth(1), 3u);

  QueuedRequest item;
  for (size_t left = 5; sched.Pop(&item); --left) {
    EXPECT_EQ(sched.depth(), left);
  }
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.TenantDepth(1), 0u);
  item.request.tenant = 99;
  EXPECT_FALSE(sched.Pop(&item));  // empty pop leaves `out` alone
  EXPECT_EQ(item.request.tenant, 99u);
}

TEST(DrrSchedulerTest, RoundRobinAlternatesTenants) {
  DrrScheduler sched(/*quantum=*/1);
  for (int i = 0; i < 3; ++i) sched.Enqueue(MakeQueued(1));
  for (int i = 0; i < 3; ++i) sched.Enqueue(MakeQueued(2));
  std::vector<uint32_t> order;
  QueuedRequest item;
  while (sched.Pop(&item)) order.push_back(item.request.tenant);
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 2, 1, 2, 1, 2}));
}

// Backlogged tenants take turns of one quantum each; the last turns are
// what is left. Within a tenant, requests leave in arrival order.
TEST(DrrSchedulerTest, BackloggedTenantsTakeQuantumSizedTurns) {
  DrrScheduler sched(/*quantum=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    sched.Enqueue(MakeQueued(1, i));
    sched.Enqueue(MakeQueued(2, i));
  }
  std::vector<std::pair<uint32_t, int>> turns;  // {tenant, requests}
  std::map<uint32_t, uint64_t> next_seq;
  QueuedRequest item;
  while (sched.Pop(&item)) {
    const uint32_t tenant = item.request.tenant;
    EXPECT_EQ(item.enqueue_us, next_seq[tenant]++) << "tenant " << tenant;
    if (turns.empty() || turns.back().first != tenant) {
      turns.push_back({tenant, 0});
    }
    ++turns.back().second;
  }
  EXPECT_EQ(turns, (std::vector<std::pair<uint32_t, int>>{
                       {1, 8}, {2, 8}, {1, 8}, {2, 8}, {1, 4}, {2, 4}}));
}

// --- Admission control ---------------------------------------------------

TEST(TokenBucketTest, RefillsAtRateUpToBurst) {
  TokenBucket bucket(/*rate=*/10.0, /*burst=*/5.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));          // burst exhausted
  EXPECT_FALSE(bucket.TryAcquire(50000));      // +0.5 tokens: still < 1
  EXPECT_TRUE(bucket.TryAcquire(100000));      // +1.0 token at 100 ms
  EXPECT_FALSE(bucket.TryAcquire(100000));
  // A long idle period caps at burst, not unbounded credit.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire(10000000));
  EXPECT_FALSE(bucket.TryAcquire(10000000));
}

TEST(TokenBucketTest, FractionalAccrualIsNeverTruncatedOverTenThousandTicks) {
  // Accrual regression: an awkward rate polled at an awkward interval, so
  // every refill leaves a fractional remainder. The integer ledger carries
  // the remainder instead of truncating it, keeping the admitted count
  // within 1% of configured-rate * elapsed (here it is exact up to the
  // final partial token).
  const double rate = 7.3;
  const double burst = 2.0;
  TokenBucket bucket(rate, burst);
  // Drain the burst first so the bucket is never full mid-run (a full
  // bucket legitimately forfeits accrual; that is policy, not loss).
  uint64_t admitted = 0;
  while (bucket.TryAcquire(0)) ++admitted;
  EXPECT_EQ(admitted, 2u);
  const uint64_t tick_us = 1370;  // 0.010001 tokens per tick
  const int kTicks = 10000;
  for (int i = 1; i <= kTicks; ++i) {
    if (bucket.TryAcquire(static_cast<uint64_t>(i) * tick_us)) ++admitted;
  }
  const double elapsed_s = kTicks * tick_us / 1e6;  // 13.7 s
  const double expected = burst + rate * elapsed_s;  // 102.01
  EXPECT_NEAR(static_cast<double>(admitted), expected, 0.01 * rate * elapsed_s)
      << "admitted rate drifted more than 1% from configured";
  EXPECT_EQ(admitted, 102u);  // exact: the carry loses nothing
}

TEST(TokenBucketTest, SubUnitBurstNeverStarves) {
  // Regression: a burst below one token used to cap the bucket beneath
  // the cost of a single request, so the balance could never reach 1 and
  // a positive-rate tenant was starved forever. Capacity is now floored
  // at one token: one initial admit, then exactly the configured rate.
  TokenBucket bucket(/*rate=*/0.5, /*burst=*/0.5);
  uint64_t admitted = 0;
  for (int i = 0; i <= 1000; ++i) {  // 100 s in 100 ms ticks
    if (bucket.TryAcquire(static_cast<uint64_t>(i) * 100000)) ++admitted;
  }
  EXPECT_EQ(admitted, 51u);  // 1 (floored burst) + 0.5/s * 100 s
}

TEST(AdmissionControllerTest, SubQpsTenantIsAdmittedAtItsConfiguredRate) {
  // Controller-level view of the same regression: tenant_burst defaults
  // to tenant_rate, so every sub-1-qps tenant used to inherit a
  // sub-unit burst and never pass the rate gate.
  AdmissionController::Options options;
  options.tenant_rate = 0.25;
  AdmissionController admission(options);
  AdmissionController::RejectGate gate;
  uint64_t admitted = 0;
  for (int i = 0; i <= 1200; ++i) {  // 120 s in 100 ms ticks
    // Each admitted request has left the queue before the next tick.
    if (admission.Admit(7, static_cast<uint64_t>(i) * 100000, 0, 0, &gate)
            .ok()) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 31u);  // 1 (floored burst) + 0.25/s * 120 s
}

TEST(AdmissionControllerTest, ThreeGatesRejectTyped) {
  AdmissionController::Options options;
  options.max_queue_depth = 4;
  options.max_tenant_depth = 2;
  options.tenant_rate = 10.0;
  options.tenant_burst = 100.0;
  AdmissionController admission(options);

  // The caller's run queue is the one ledger: `queued` and the per-tenant
  // counts stand in for it, updated as each admitted request enqueues.
  size_t queued = 0;
  std::map<uint32_t, size_t> tenant_queued;
  auto admit = [&](uint32_t tenant, AdmissionController::RejectGate* gate) {
    Status s = admission.Admit(tenant, 0, queued, tenant_queued[tenant], gate);
    if (s.ok()) {
      ++queued;
      ++tenant_queued[tenant];
    }
    return s;
  };
  AdmissionController::RejectGate gate;
  EXPECT_TRUE(admit(1, &gate).ok());
  EXPECT_TRUE(admit(1, &gate).ok());
  Status s = admit(1, &gate);  // tenant depth gate
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_EQ(gate, AdmissionController::RejectGate::kTenantDepth);

  EXPECT_TRUE(admit(2, &gate).ok());
  EXPECT_TRUE(admit(3, &gate).ok());
  s = admit(4, &gate);  // global depth gate
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_EQ(gate, AdmissionController::RejectGate::kQueueFull);

  queued = 0;  // the queue drains
  tenant_queued.clear();
  // Tenant 1 already consumed tokens above; drain the rest of the burst.
  int admitted = 0;
  while (admission.Admit(1, 0, 0, 0, &gate).ok()) ++admitted;
  EXPECT_EQ(gate, AdmissionController::RejectGate::kRateLimit);
  EXPECT_GT(admitted, 0);
}

// --- Served vs serial equivalence oracle ---------------------------------

serve::ServeResponse Oracle(AccessMethod* session,
                            const ServeRequest& request) {
  ServeResponse response;
  switch (request.op) {
    case ServeOp::kRouteEval: {
      auto r = EvaluateRoute(session, request.route);
      if (r.ok()) {
        response.cost = r.value().total_cost;
        response.num_edges = r.value().num_edges;
      } else {
        response.status = r.status();
      }
      break;
    }
    case ServeOp::kAStar: {
      auto r = ShortestPathAStar(session, request.route.nodes.front(),
                                 request.route.nodes.back());
      if (r.ok()) {
        response.cost = r.value().cost;
        response.num_edges =
            r.value().path.empty() ? 0 : r.value().path.size() - 1;
        response.path = r.value().path;
      } else {
        response.status = r.status();
      }
      break;
    }
    case ServeOp::kHierarchy: {
      auto r = ShortestPathCH(session, request.route.nodes.front(),
                              request.route.nodes.back());
      if (r.ok()) {
        response.cost = r.value().cost;
        response.num_edges =
            r.value().path.empty() ? 0 : r.value().path.size() - 1;
        response.path = r.value().path;
      } else {
        response.status = r.status();
      }
      break;
    }
    case ServeOp::kAggregate: {
      auto r = AggregateRouteUnit(session, request.unit);
      if (r.ok()) {
        response.cost = r.value().total_edge_cost;
        response.num_edges = r.value().num_edges;
      } else {
        response.status = r.status();
      }
      break;
    }
  }
  return response;
}

// One store behind QueryService's one constructor, with the file its
// requests are built from and the disk counters the service's session
// reads must sum to.
struct ServedStore {
  std::string name;
  std::unique_ptr<Ccam> file;
  std::unique_ptr<SnapshotManager> manager;
  std::unique_ptr<SnapshotSession> pin;  // holds the store's one version
  std::unique_ptr<ShardedNetworkFile> sharded;
  ReadStore* store = nullptr;
  /// The file, the pinned version's file, or (sharded) the unsharded file
  /// of the same network: BuildRequestPool reads it.
  NetworkFile* requests_from = nullptr;

  /// The store's data-disk reads so far: the file's, the pinned
  /// version's, or the shards' sum.
  uint64_t DiskReads() const {
    return sharded != nullptr ? sharded->DataIoStats().reads
                              : requests_from->DataIoStats().reads;
  }
};

// A static CCAM file (with the CH overlay when `overlay`), a quiesced
// snapshot store and a 4-shard file (neither keeps an overlay) over the
// same network, page size and pool size.
std::vector<ServedStore> EveryStore(const Network& net, size_t page_size,
                                    size_t pool_pages, bool overlay) {
  std::vector<ServedStore> stores(3);
  stores[0].name = "file";
  stores[0].file = MakeFile(net, page_size, pool_pages, overlay);
  stores[0].store = stores[0].requests_from = stores[0].file.get();

  SnapshotOptions sopt;
  sopt.am.page_size = page_size;
  sopt.am.buffer_pool_pages = pool_pages;
  sopt.am.num_threads = 1;
  const char* tmp = std::getenv("TMPDIR");
  sopt.dir = std::string(tmp != nullptr ? tmp : "/tmp") +
             "/ccam_serve_test_store_" + std::to_string(page_size);
  std::error_code ec;
  std::filesystem::remove_all(sopt.dir, ec);
  auto manager = SnapshotManager::Create(sopt, net);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  if (!manager.ok()) return {};
  stores[1].name = "snapshot";
  stores[1].manager = std::move(*manager);
  stores[1].pin = stores[1].manager->OpenSession();
  stores[1].store = stores[1].manager.get();
  stores[1].requests_from = stores[1].pin->version()->file();

  ShardedOptions shopt;
  shopt.num_shards = 4;
  shopt.am.page_size = page_size;
  shopt.am.buffer_pool_pages = pool_pages;
  stores[2].name = "sharded";
  stores[2].sharded = std::make_unique<ShardedNetworkFile>(shopt);
  EXPECT_TRUE(stores[2].sharded->Create(net).ok());
  stores[2].file = MakeFile(net, page_size, pool_pages, /*overlay=*/false);
  stores[2].store = stores[2].sharded.get();
  stores[2].requests_from = stores[2].file.get();
  return stores;
}

TEST(QueryServiceTest, ServedMatchesSerialOracleAndConservesIo) {
  Network net = TestNetwork();
  for (size_t page_size : {512u, 2048u}) {
    for (ServedStore& row :
         EveryStore(net, page_size, /*pool_pages=*/16, /*overlay=*/true)) {
      SCOPED_TRACE(row.name + " page_size=" + std::to_string(page_size));
      ASSERT_EQ(row.requests_from->HasHierarchy(), row.name == "file");

      LoadgenOptions gen;
      gen.tenants = 6;
      gen.pool_size = 600;  // 500+ mixed requests, every operation served
      gen.zipf_theta = 0.8;
      gen.seed = 7 + page_size;
      std::vector<ServeRequest> pool =
          serve::BuildRequestPool(row.requests_from, gen);
      ASSERT_EQ(pool.size(), 600u);

      // Serial oracle on a plain session, before the service exists.
      std::vector<ServeResponse> expected;
      {
        auto session = row.store->OpenReadSession();
        for (const ServeRequest& request : pool) {
          expected.push_back(Oracle(session.get(), request));
        }
      }

      const uint64_t disk_before = row.DiskReads();
      const IoStats hier_before = row.requests_from->HierarchyIoStats();

      QueryServiceOptions options;
      options.num_workers = 8;
      options.max_queue_depth = 100000;  // nothing may be shed in this test
      options.max_tenant_depth = 100000;
      QueryService service(row.store, options);

      // Concurrent submitters, so the queue genuinely mixes tenants and
      // threads.
      constexpr int kSubmitters = 4;
      std::vector<std::vector<ServeTicketPtr>> tickets(kSubmitters);
      {
        std::vector<std::thread> submitters;
        for (int t = 0; t < kSubmitters; ++t) {
          submitters.emplace_back([&, t] {
            for (size_t i = t; i < pool.size(); i += kSubmitters) {
              tickets[t].push_back(service.Submit(pool[i]));
            }
          });
        }
        for (auto& thread : submitters) thread.join();
      }
      size_t mismatches = 0;
      for (int t = 0; t < kSubmitters; ++t) {
        size_t k = 0;
        for (size_t i = t; i < pool.size(); i += kSubmitters, ++k) {
          const ServeResponse& got = tickets[t][k]->Wait();
          const ServeResponse& want = expected[i];
          if (got.status.code() != want.status.code() ||
              got.cost != want.cost || got.num_edges != want.num_edges ||
              got.path != want.path) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u);

      service.Shutdown(/*drain=*/true);
      QueryService::Stats stats = service.GetStats();
      EXPECT_EQ(stats.submitted, pool.size());
      EXPECT_EQ(stats.completed, pool.size());
      EXPECT_EQ(stats.rejected, 0u);

      // Conservation: the service's per-session counters sum exactly to
      // the store's global disk-read deltas, data and overlay alike.
      EXPECT_EQ(service.TotalSessionIoStats().reads,
                row.DiskReads() - disk_before);
      EXPECT_EQ(service.TotalSessionHierarchyIoStats().reads,
                (row.requests_from->HierarchyIoStats() - hier_before).reads);
    }
  }
}

// A request whose origin the store does not hold completes at once with a
// typed NotFound: rejected, and never queued or executed.
TEST(QueryServiceTest, UnknownOriginIsRejectedNotFoundOnEveryStore) {
  Network net = TestNetwork();
  NodeId unstored = 0;
  for (NodeId id : net.NodeIds()) unstored = std::max(unstored, id + 1);
  for (ServedStore& row :
       EveryStore(net, 1024, /*pool_pages=*/16, /*overlay=*/false)) {
    SCOPED_TRACE(row.name);
    QueryService service(row.store, QueryServiceOptions{});
    ServeRequest request;
    request.op = ServeOp::kRouteEval;
    request.route.nodes = {unstored, unstored + 1};
    ServeTicketPtr ticket = service.Submit(request);
    const ServeResponse& response = ticket->Wait();
    EXPECT_TRUE(response.status.IsNotFound()) << response.status.ToString();
    EXPECT_EQ(response.batch_size, 0u);
    EXPECT_EQ(service.queue_depth(), 0u);
    service.Shutdown(/*drain=*/true);
    QueryService::Stats stats = service.GetStats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.admitted, 0u);
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(service.TotalSessionIoStats().reads, 0u);
  }
}

// --- Admission prefetch ---------------------------------------------------

// Submits `pool` from two threads at once and returns the tickets in pool
// order.
std::vector<ServeTicketPtr> SubmitAll(QueryService* service,
                                      const std::vector<ServeRequest>& pool) {
  std::vector<ServeTicketPtr> tickets(pool.size());
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = t; i < pool.size(); i += 2) {
        tickets[i] = service->Submit(pool[i]);
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  return tickets;
}

size_t CountMismatches(const std::vector<ServeTicketPtr>& tickets,
                       const std::vector<ServeResponse>& expected) {
  size_t mismatches = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const ServeResponse& got = tickets[i]->Wait();
    const ServeResponse& want = expected[i];
    if (got.status.code() != want.status.code() || got.cost != want.cost ||
        got.num_edges != want.num_edges || got.path != want.path) {
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(QueryServicePrefetchTest, MatchesSerialOracleAcrossPoolsAndPageSizes) {
  Network net = TestNetwork();
  for (size_t page_size : {512u, 1024u}) {
    for (size_t pool_pages : {1u, 2u, 8u, 64u}) {
      SCOPED_TRACE("page_size=" + std::to_string(page_size) +
                   " pool_pages=" + std::to_string(pool_pages));
      auto file = MakeFile(net, page_size, pool_pages, /*overlay=*/false);
      LoadgenOptions gen;
      gen.tenants = 4;
      gen.pool_size = 400;
      gen.seed = 11 + page_size + pool_pages;
      std::vector<ServeRequest> pool =
          serve::BuildRequestPool(file.get(), gen);
      std::vector<ServeResponse> expected;
      {
        auto session = file->OpenSession();
        for (const ServeRequest& request : pool) {
          expected.push_back(Oracle(session.get(), request));
        }
      }
      // Reads take long enough that requests queue behind 8 busy workers.
      file->disk()->SetSimulatedReadLatencyMicros(50);
      const IoStats disk_before = file->DataIoStats();

      // 8 workers asked for at every pool size; the service clamps them
      // to the pool's sizing rule (capacity / shards >= workers,
      // docs/INTERNALS.md "Shard count"): past it demand fetches would
      // fail with NoSpace, prefetch or not.
      QueryServiceOptions options;
      options.num_workers = 8;
      options.max_queue_depth = 100000;
      options.max_tenant_depth = 100000;
      QueryService service(file.get(), options);
      EXPECT_EQ(service.num_workers(),
                static_cast<int>(std::min<size_t>(
                    8, std::max<size_t>(1, pool_pages /
                                               file->buffer_pool()
                                                   ->num_shards()))));
      std::vector<ServeTicketPtr> tickets = SubmitAll(&service, pool);
      EXPECT_EQ(CountMismatches(tickets, expected), 0u);
      service.Shutdown(/*drain=*/true);

      QueryService::Stats stats = service.GetStats();
      EXPECT_EQ(stats.completed, pool.size());
      EXPECT_GT(stats.prefetched, 0u);
      // The prefetch session's loads are in the totals: session reads
      // still sum to the disk's.
      EXPECT_EQ(service.TotalSessionIoStats().reads,
                (file->DataIoStats() - disk_before).reads);
      for (const auto& [node, page] : file->PageMap()) {
        ASSERT_EQ(file->buffer_pool()->PinCount(page), 0) << "page " << page;
      }
    }
  }
}

// A request whose reads a prefetch batch started waits for that batch. A
// short read inside the batch must leave the waiting worker to read the
// page again itself, never fail the request.
TEST(QueryServicePrefetchTest, ShortReadInAPrefetchBatchLeavesAnswersExact) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/64, /*overlay=*/true);
  ASSERT_TRUE(file->HasHierarchy());

  // The blocker: a CH request, which reads only the overlay disk and so
  // hints nothing. The rest: route evaluations, whose first reads are
  // their routes' pages.
  LoadgenOptions gen;
  gen.tenants = 1;
  gen.pool_size = 64;
  gen.seed = 5;
  std::vector<ServeRequest> all = serve::BuildRequestPool(file.get(), gen);
  ServeRequest blocker;
  std::vector<ServeRequest> routes;
  for (const ServeRequest& request : all) {
    if (request.op == ServeOp::kHierarchy && blocker.route.nodes.empty()) {
      blocker = request;
    } else if (request.op == ServeOp::kRouteEval && routes.size() < 8) {
      routes.push_back(request);
    }
  }
  ASSERT_FALSE(blocker.route.nodes.empty());
  ASSERT_EQ(routes.size(), 8u);
  std::vector<ServeResponse> expected;
  ServeResponse blocker_expected;
  {
    auto session = file->OpenSession();
    blocker_expected = Oracle(session.get(), blocker);
    for (const ServeRequest& request : routes) {
      expected.push_back(Oracle(session.get(), request));
    }
  }
  ASSERT_TRUE(file->buffer_pool()->Reset().ok());
  ASSERT_TRUE(file->hierarchy()->pool()->Reset().ok());

  FaultInjector faults(1);
  file->disk()->SetFaultInjector(&faults);
  file->disk()->SetSimulatedReadLatencyMicros(20000);
  file->hierarchy()->disk()->SetSimulatedReadLatencyMicros(20000);
  const IoStats disk_before = file->DataIoStats();

  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(file.get(), options);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The one worker sleeps in the blocker's overlay reads, 20 ms each, so
  // the routes queue and Submit's prefetch is the data disk's only
  // reader: the first data read after arming is in its batch.
  ServeTicketPtr first = service.Submit(blocker);
  while (file->hierarchy()->disk()->stats().reads == 0) {
    std::this_thread::yield();
  }
  faults.Arm("disk.read", FaultAction{FaultAction::Kind::kShort,
                                      Status::Code::kIOError, 16},
             FaultTrigger::Once(1));
  std::vector<ServeTicketPtr> tickets;
  for (const ServeRequest& request : routes) {
    tickets.push_back(service.Submit(request));
  }
  // The faulted read happens while the worker is still inside the
  // blocker: Submit's prefetch made it.
  while (faults.HitCount("disk.read") == 0) std::this_thread::yield();
  EXPECT_FALSE(first->done());
  const ServeResponse& b = first->Wait();
  EXPECT_EQ(b.status.code(), blocker_expected.status.code());
  EXPECT_EQ(b.cost, blocker_expected.cost);
  EXPECT_EQ(CountMismatches(tickets, expected), 0u);
  service.Shutdown(/*drain=*/true);
  file->disk()->SetFaultInjector(nullptr);

  EXPECT_EQ(faults.FiringLog().size(), 1u);  // the fault did land
  EXPECT_EQ(service.GetStats().prefetched, routes.size());
  EXPECT_EQ(service.TotalSessionIoStats().reads,
            (file->DataIoStats() - disk_before).reads);
}

TEST(QueryServicePrefetchTest, CancellingShutdownWithHintsPendingNeverHangs) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/8, /*overlay=*/false);
  file->disk()->SetSimulatedReadLatencyMicros(2000);
  LoadgenOptions gen;
  gen.tenants = 2;
  gen.pool_size = 256;
  gen.seed = 17;
  std::vector<ServeRequest> pool = serve::BuildRequestPool(file.get(), gen);
  const IoStats disk_before = file->DataIoStats();

  QueryServiceOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 100000;
  options.max_tenant_depth = 100000;
  QueryService service(file.get(), options);
  std::vector<ServeTicketPtr> tickets = SubmitAll(&service, pool);
  // 2 ms reads: most requests still queue, their hints still pending.
  service.Shutdown(/*drain=*/false);

  uint64_t ok = 0, cancelled = 0;
  for (const ServeTicketPtr& ticket : tickets) {
    const ServeResponse& r = ticket->Wait();
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(r.status.IsOverloaded()) << r.status.ToString();
      ++cancelled;
    }
  }
  EXPECT_EQ(ok + cancelled, pool.size());
  EXPECT_GT(cancelled, 0u);
  QueryService::Stats stats = service.GetStats();
  EXPECT_GT(stats.prefetched, 0u);
  EXPECT_EQ(stats.completed + stats.rejected, pool.size());
  // Every worker is joined: nothing reads after Shutdown returns, and
  // every read, prefetch loads included, is charged to a session.
  const uint64_t reads = (file->DataIoStats() - disk_before).reads;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ((file->DataIoStats() - disk_before).reads, reads);
  EXPECT_EQ(service.TotalSessionIoStats().reads, reads);
  for (const auto& [node, page] : file->PageMap()) {
    ASSERT_EQ(file->buffer_pool()->PinCount(page), 0) << "page " << page;
  }
}

// --- Fairness: a flooding tenant cannot starve a polite one --------------

TEST(QueryServiceTest, FloodingTenantCannotStarvePoliteTenant) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);
  file->disk()->SetSimulatedReadLatencyMicros(100);

  LoadgenOptions gen;
  gen.tenants = 1;  // tenant ids are overwritten below
  gen.pool_size = 256;
  gen.seed = 99;
  std::vector<ServeRequest> pool = serve::BuildRequestPool(file.get(), gen);
  ASSERT_FALSE(pool.empty());

  QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 256;
  options.max_tenant_depth = 64;  // the hog's allowance
  QueryService service(file.get(), options);

  std::atomic<bool> hog_done{false};
  std::vector<ServeTicketPtr> hog_tickets;
  std::thread hog([&] {
    // Tenant 7 floods: 4000 submissions as fast as possible.
    for (int i = 0; i < 4000; ++i) {
      ServeRequest request = pool[i % pool.size()];
      request.tenant = 7;
      hog_tickets.push_back(service.Submit(std::move(request)));
    }
    hog_done.store(true);
  });

  // Tenant 1 is polite: few requests, gently paced.
  uint64_t worst_us = 0;
  uint64_t polite_rejected = 0;
  for (int i = 0; i < 50; ++i) {
    ServeRequest request = pool[(i * 5) % pool.size()];
    request.tenant = 1;
    auto t0 = std::chrono::steady_clock::now();
    ServeTicketPtr ticket = service.Submit(std::move(request));
    const ServeResponse& response = ticket->Wait();
    uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (response.status.IsOverloaded()) {
      ++polite_rejected;
    } else if (us > worst_us) {
      worst_us = us;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  hog.join();
  uint64_t hog_rejected = 0;
  for (const ServeTicketPtr& ticket : hog_tickets) {
    if (ticket->Wait().status.IsOverloaded()) ++hog_rejected;
  }
  service.Shutdown(/*drain=*/true);

  // The hog hit its per-tenant allowance (it was shed), while the polite
  // tenant was never rejected and never waited behind the hog's backlog:
  // its worst observed end-to-end latency stays far under the time the
  // hog's 64-deep allowance would take to drain serially ahead of it.
  EXPECT_GT(hog_rejected, 0u);
  EXPECT_EQ(polite_rejected, 0u);
  EXPECT_LT(worst_us, 250000u);  // 250 ms; generous for CI machines
}

// --- Work conservation: no worker idles while a request is queued -------

TEST(QueryServiceTest, IdleWorkerTakesQueuedRequestOfAnotherRegion) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);

  // Two origins on distinct even data pages: neither request's read
  // serves the other, yet both would land on worker 0 under a `page % 2`
  // dispatch.
  std::vector<NodeId> origins;
  PageId first_page = kInvalidPageId;
  for (const auto& [node, page] : file->PageMap()) {
    if (page % 2 != 0 || page == first_page) continue;
    origins.push_back(node);
    if (origins.size() == 2) break;
    first_page = page;
  }
  ASSERT_EQ(origins.size(), 2u);

  ASSERT_TRUE(file->buffer_pool()->Reset().ok());  // cold: both must read
  file->disk()->SetSimulatedReadLatencyMicros(40000);
  QueryServiceOptions options;
  options.num_workers = 2;
  QueryService service(file.get(), options);
  // Let both workers start and block on the empty queue, so thread start-up
  // is not mistaken for queueing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto submit = [&](NodeId origin) {
    ServeRequest request;
    request.route.nodes = {origin};
    return service.Submit(std::move(request));
  };
  const auto t0 = std::chrono::steady_clock::now();
  ServeTicketPtr first = submit(origins[0]);
  ServeTicketPtr second = submit(origins[1]);
  const ServeResponse& a = first->Wait();
  const ServeResponse& b = second->Wait();
  const uint64_t submit_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          t0.time_since_epoch())
          .count());
  service.Shutdown(/*drain=*/true);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();

  // The first request's execution spans at least one 40 ms cold read. The
  // second one must start on the idle worker instead of queueing behind it.
  const uint64_t first_exec_us = a.done_us - submit_us - a.queue_us;
  EXPECT_GE(first_exec_us, 40000u);
  EXPECT_LT(b.queue_us, first_exec_us / 2);
}

// --- Shutdown of an idle service never loses the wake-up -----------------

TEST(QueryServiceTest, IdleShutdownCyclesNeverHang) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);
  QueryServiceOptions options;
  options.num_workers = 4;
  // A lost notify leaves a worker blocked forever and this test hangs
  // in the pool's join until the ctest TIMEOUT fails it.
  for (int i = 0; i < 1000; ++i) {
    QueryService service(file.get(), options);
    service.Shutdown(/*drain=*/i % 2 == 0);
  }
}

// --- Overload + cancellation during shutdown (TSan hammer) ---------------

TEST(QueryServiceTest, OverloadAndShutdownCancellationHammer) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);
  file->disk()->SetSimulatedReadLatencyMicros(50);

  LoadgenOptions gen;
  gen.tenants = 4;
  gen.pool_size = 128;
  gen.seed = 31;
  std::vector<ServeRequest> pool = serve::BuildRequestPool(file.get(), gen);
  ASSERT_FALSE(pool.empty());

  QueryServiceOptions options;
  options.num_workers = 8;
  options.max_queue_depth = 64;  // tiny: force Overloaded rejections
  QueryService service(file.get(), options);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<ServeTicketPtr>> tickets(kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ServeRequest request = pool[(t * kPerThread + i) % pool.size()];
        request.tenant = static_cast<uint32_t>(t);
        tickets[t].push_back(service.Submit(std::move(request)));
      }
    });
  }
  // Cancel mid-stream: queued-but-unstarted work completes Overloaded.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Shutdown(/*drain=*/false);
  for (auto& thread : submitters) thread.join();

  uint64_t done = 0, overloaded = 0, ok = 0;
  for (const auto& per_thread : tickets) {
    for (const ServeTicketPtr& ticket : per_thread) {
      const ServeResponse& response = ticket->Wait();
      ++done;
      if (response.status.IsOverloaded()) {
        ++overloaded;
      } else if (response.status.ok()) {
        ++ok;
      }
    }
  }
  // Every ticket completes exactly once, and the books balance.
  EXPECT_EQ(done, static_cast<uint64_t>(kSubmitters * kPerThread));
  EXPECT_EQ(done, ok + overloaded);
  QueryService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.submitted, done);
  EXPECT_EQ(stats.completed + stats.rejected, done);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_GT(overloaded, 0u);  // the tiny queue really shed load
}

// --- One-session-per-thread debug assertion ------------------------------

#ifndef NDEBUG
TEST(QuerySessionDeathTest, SecondThreadTripsTheContractAssert) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);
  auto session = file->OpenSession();
  NodeId node = file->PageMap().begin()->first;
  ASSERT_TRUE(session->Find(node).ok());  // binds to this thread
  EXPECT_DEATH(
      {
        std::thread other([&] { (void)session->Find(node); });
        other.join();
      },
      "read session used from two threads");
}

TEST(QuerySessionTest, RebindToCurrentThreadMovesTheBinding) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);
  auto session = file->OpenSession();
  NodeId node = file->PageMap().begin()->first;
  ASSERT_TRUE(session->Find(node).ok());
  std::thread worker([&] {
    session->RebindToCurrentThread();  // deliberate single-threaded handoff
    EXPECT_TRUE(session->Find(node).ok());
  });
  worker.join();
}
#endif  // NDEBUG

}  // namespace
}  // namespace ccam
