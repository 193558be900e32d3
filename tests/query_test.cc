#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <tuple>
#include <unordered_map>

#include "src/common/fault_injector.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/request_context.h"
#include "src/core/ccam.h"
#include "src/core/query_session.h"
#include "src/graph/generator.h"
#include "src/query/aggregate.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "tests/demand_order.h"

namespace ccam {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Reference in-memory Dijkstra, for differential testing.
double ReferenceShortestPath(const Network& net, NodeId src, NodeId dst) {
  std::unordered_map<NodeId, double> dist;
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> open;
  open.push({0.0, src});
  dist[src] = 0.0;
  while (!open.empty()) {
    auto [d, u] = open.top();
    open.pop();
    if (d > dist[u] + 1e-12) continue;
    if (u == dst) return d;
    for (const AdjEntry& e : net.node(u).succ) {
      double nd = d + e.cost;
      auto it = dist.find(e.node);
      if (it == dist.end() || nd < it->second) {
        dist[e.node] = nd;
        open.push({nd, e.node});
      }
    }
  }
  return std::numeric_limits<double>::infinity();
}

/// What the reference search below settled, reached and relaxed.
struct ReferenceRun {
  SearchResult result;
  std::vector<std::pair<NodeId, double>> settled;  // in settle order
  size_t reached = 0;  // distinct nodes ever put on the frontier
  uint64_t relaxed = 0;  // successor edges relaxed (closed ones skipped)
};

/// The Get-successors-based best-first search the flat search used to
/// run, kept as the oracle for its read-once rewrite: reads the target and
/// the sources with Find(), then on every settled node fetches the node
/// plus all of its successors with GetSuccessors() and the node again with
/// Find() for the edge costs. Same (priority, node-id) order, closed-skip
/// and strict-improvement rules; `dst` = kInvalidNodeId searches to
/// exhaustion, `heuristic_weight` < 0 is Dijkstra.
ReferenceRun ReferenceBestFirst(AccessMethod* am,
                                const std::vector<NodeId>& sources,
                                NodeId dst, double heuristic_weight) {
  ReferenceRun run;
  IoStats before = am->DataIoStats();
  double tx = 0.0, ty = 0.0;
  if (dst != kInvalidNodeId) {
    auto rec = am->Find(dst);
    EXPECT_TRUE(rec.ok());
    tx = rec->x;
    ty = rec->y;
  }
  auto heuristic = [&](const NodeRecord& rec) {
    if (heuristic_weight < 0.0) return 0.0;
    return heuristic_weight * std::hypot(rec.x - tx, rec.y - ty);
  };
  std::map<NodeId, double> g, priority;
  std::map<NodeId, NodeId> parent;
  std::set<NodeId> closed;
  std::set<std::pair<double, NodeId>> open;  // (priority, id) order
  for (NodeId src : sources) {
    if (g.count(src)) continue;
    auto rec = am->Find(src);
    EXPECT_TRUE(rec.ok());
    g[src] = 0.0;
    priority[src] = heuristic(*rec);
    open.insert({priority[src], src});
  }
  while (!open.empty()) {
    auto [p, node] = *open.begin();
    open.erase(open.begin());
    closed.insert(node);
    ++run.result.nodes_expanded;
    run.settled.emplace_back(node, g[node]);
    if (node == dst) {
      run.result.cost = g[node];
      for (NodeId n = node;; n = parent[n]) {
        run.result.path.insert(run.result.path.begin(), n);
        if (!parent.count(n)) break;
      }
      break;
    }
    auto successors = am->GetSuccessors(node);
    auto expanded = am->Find(node);
    EXPECT_TRUE(successors.ok() && expanded.ok());
    for (const NodeRecord& succ : *successors) {
      if (!g.count(succ.id)) g[succ.id] = kInf;
      if (closed.count(succ.id)) continue;
      ++run.relaxed;
      double ng = g[node] + *expanded->SuccessorCost(succ.id);
      if (ng < g[succ.id]) {
        if (priority.count(succ.id)) open.erase({priority[succ.id], succ.id});
        g[succ.id] = ng;
        parent[succ.id] = node;
        priority[succ.id] = ng + heuristic(succ);
        open.insert({priority[succ.id], succ.id});
      }
    }
  }
  run.reached = g.size();
  run.result.page_accesses = (am->DataIoStats() - before).Accesses();
  return run;
}

/// Forwards every call to `inner` and counts each node's record reads
/// (Find and Get-A-successor). `on_get_a_successor`, when set, runs before
/// each Get-A-successor; a non-OK status fails that read instead.
class ReadCountingAccess : public AccessMethod {
 public:
  explicit ReadCountingAccess(AccessMethod* inner) : inner_(inner) {}

  std::function<Status(NodeId from, NodeId to)> on_get_a_successor;
  std::unordered_map<NodeId, int> reads;

  int MaxReads() const {
    int most = 0;
    for (const auto& kv : reads) most = std::max(most, kv.second);
    return most;
  }

  std::string Name() const override { return inner_->Name() + "/counted"; }
  Status Create(const Network& n) override { return inner_->Create(n); }
  Result<NodeRecord> Find(NodeId id) override {
    ++reads[id];
    return inner_->Find(id);
  }
  Result<NodeRecord> GetASuccessor(NodeId from, NodeId to) override {
    if (on_get_a_successor) {
      Status st = on_get_a_successor(from, to);
      if (!st.ok()) return st;
    }
    ++reads[to];
    return inner_->GetASuccessor(from, to);
  }
  Result<std::vector<NodeRecord>> GetSuccessors(NodeId id) override {
    return inner_->GetSuccessors(id);
  }
  Status InsertNode(const NodeRecord& r, ReorgPolicy p) override {
    return inner_->InsertNode(r, p);
  }
  Status DeleteNode(NodeId id, ReorgPolicy p) override {
    return inner_->DeleteNode(id, p);
  }
  Status InsertEdge(NodeId u, NodeId v, float c, ReorgPolicy p) override {
    return inner_->InsertEdge(u, v, c, p);
  }
  Status DeleteEdge(NodeId u, NodeId v, ReorgPolicy p) override {
    return inner_->DeleteEdge(u, v, p);
  }
  IoStats DataIoStats() const override { return inner_->DataIoStats(); }
  void ResetIoStats() override { inner_->ResetIoStats(); }
  const NodePageMap& PageMap() const override { return inner_->PageMap(); }
  BufferPool* buffer_pool() override { return inner_->buffer_pool(); }
  bool LastOpChangedStructure() const override {
    return inner_->LastOpChangedStructure();
  }
  size_t NumDataPages() const override { return inner_->NumDataPages(); }
  size_t NumLiveNodes() const override { return inner_->NumLiveNodes(); }
  MetricsRegistry* metrics() const override { return inner_->metrics(); }
  RequestContext* request_context() const override {
    return inner_->request_context();
  }

 private:
  AccessMethod* inner_;
};

/// The nodes a best-first search reached: its sources and every successor
/// of a node it settled.
std::set<NodeId> ReachedNodes(const Network& net, const ReferenceRun& run,
                              const std::vector<NodeId>& sources) {
  std::set<NodeId> reached(sources.begin(), sources.end());
  for (const auto& [node, g] : run.settled) {
    for (const AdjEntry& e : net.node(node).succ) reached.insert(e.node);
  }
  return reached;
}

/// The benchmark's road map: a 64 x 64 grid, 1 KiB pages.
const Network& RoadMap64() {
  static const Network* net = [] {
    RoadMapOptions gen;
    gen.rows = 64;
    gen.cols = 64;
    gen.nodes_to_remove = 16;
    gen.seed = 1995;
    return new Network(GenerateRoadMap(gen));
  }();
  return *net;
}

/// Seeded node pairs 1500 to 3000 units apart (15 to 30 blocks).
std::vector<std::pair<NodeId, NodeId>> LongPairs(const Network& net, int count,
                                                 uint64_t seed) {
  const std::vector<NodeId> ids = net.NodeIds();
  Random rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (static_cast<int>(pairs.size()) < count) {
    NodeId a = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    NodeId b = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    double d = std::hypot(net.node(a).x - net.node(b).x,
                          net.node(a).y - net.node(b).y);
    if (d >= 1500.0 && d <= 3000.0) pairs.emplace_back(a, b);
  }
  return pairs;
}

class QueryTest : public ::testing::Test {
 protected:
  QueryTest() : net_(GenerateMinneapolisLikeMap(1995)) {
    AccessMethodOptions options;
    options.page_size = 1024;
    options.buffer_pool_pages = 8;
    am_ = std::make_unique<Ccam>(options, CcamCreateMode::kStatic);
    EXPECT_TRUE(am_->Create(net_).ok());
  }

  Network net_;
  std::unique_ptr<Ccam> am_;
};

TEST_F(QueryTest, RouteEvalComputesTotalCost) {
  auto routes = GenerateRandomWalkRoutes(net_, 5, 12, 3);
  for (const Route& route : routes) {
    auto result = EvaluateRoute(am_.get(), route);
    ASSERT_TRUE(result.ok());
    double expected = 0.0;
    for (size_t i = 0; i + 1 < route.nodes.size(); ++i) {
      float c;
      ASSERT_TRUE(net_.EdgeCost(route.nodes[i], route.nodes[i + 1], &c).ok());
      expected += c;
    }
    EXPECT_NEAR(result->total_cost, expected, 1e-3);
    EXPECT_EQ(result->num_edges, route.nodes.size() - 1);
  }
}

TEST_F(QueryTest, RouteEvalFailsOnBrokenRoute) {
  Route bad;
  bad.nodes = {0, 999999};
  EXPECT_FALSE(EvaluateRoute(am_.get(), bad).ok());
  // A pair of nodes with no edge also fails.
  NodeId u = 0, v = 600;
  ASSERT_FALSE(net_.HasEdge(u, v));
  Route noedge;
  noedge.nodes = {u, v};
  EXPECT_FALSE(EvaluateRoute(am_.get(), noedge).ok());
}

TEST_F(QueryTest, EmptyRouteIsFree) {
  auto result = EvaluateRoute(am_.get(), Route{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->page_accesses, 0u);
}

TEST_F(QueryTest, RouteEvalIoMatchesCostFormulaWithOnePageBuffer) {
  // The paper's model: 1 + (L-1)(1-alpha) with one data-page buffer.
  AccessMethodOptions options;
  options.page_size = 2048;
  options.buffer_pool_pages = 1;
  Ccam am(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(net_).ok());
  double alpha = ComputeCrr(net_, am.PageMap());

  auto routes = GenerateRandomWalkRoutes(net_, 100, 20, 9);
  uint64_t total = 0;
  for (const Route& r : routes) {
    ASSERT_TRUE(am.buffer_pool()->Reset().ok());
    auto res = EvaluateRoute(&am, r);
    ASSERT_TRUE(res.ok());
    total += res->page_accesses;
  }
  double actual = static_cast<double>(total) / routes.size();
  double predicted = 1 + 19 * (1 - alpha);
  // Random-walk locality makes actual <= predicted, but the same order.
  EXPECT_LT(actual, predicted * 1.15);
  EXPECT_GT(actual, predicted * 0.4);
}

TEST_F(QueryTest, DijkstraMatchesReferenceCosts) {
  for (auto [src, dst] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1000}, {5, 900}, {250, 750}, {42, 43}}) {
    auto result = ShortestPathDijkstra(am_.get(), src, dst);
    ASSERT_TRUE(result.ok());
    double expected = ReferenceShortestPath(net_, src, dst);
    ASSERT_TRUE(result->Found());
    EXPECT_NEAR(result->cost, expected, expected * 1e-5 + 1e-6);
    // Path endpoints and continuity.
    EXPECT_EQ(result->path.front(), src);
    EXPECT_EQ(result->path.back(), dst);
    for (size_t i = 0; i + 1 < result->path.size(); ++i) {
      EXPECT_TRUE(net_.HasEdge(result->path[i], result->path[i + 1]));
    }
  }
}

TEST_F(QueryTest, AStarFindsSameCostWithFewerExpansions) {
  NodeId src = 0, dst = 1000;
  auto dij = ShortestPathDijkstra(am_.get(), src, dst);
  auto astar = ShortestPathAStar(am_.get(), src, dst, 0.7);
  ASSERT_TRUE(dij.ok());
  ASSERT_TRUE(astar.ok());
  ASSERT_TRUE(astar->Found());
  EXPECT_NEAR(astar->cost, dij->cost, dij->cost * 1e-6);
  EXPECT_LT(astar->nodes_expanded, dij->nodes_expanded);
}

// The read-once search settles exactly what the Get-successors-based loop
// settled, in the same order, and reads no node's record twice. A search
// whose misses fit in the pool harvests nothing, so it reads exactly the
// distinct reached nodes, plus the target when it was never reached:
// Find(target) + Find(source) + one Get-A-successor per other reached node.
//
// Its page accesses are bounded per pair only up to LRU's one anomaly: the
// reference re-reads the expanded node on every settle, which keeps that
// page most-recently used, and a string of fewer references can miss where
// a longer one hit (LRU is a stack algorithm in the pool size, not in the
// reference string). So a pair may exceed the reference by one page, on at
// most 1% of pairs, and the total must fall by at least 40%.
TEST(SearchOracleTest, ReadOnceSearchMatchesGetSuccessorsLoop) {
  const Network net = GenerateMinneapolisLikeMap(1995);
  const std::vector<NodeId> ids = net.NodeIds();
  for (size_t page_size : {1024u, 4096u}) {
    AccessMethodOptions options;
    options.page_size = page_size;
    options.buffer_pool_pages = 8;
    Ccam am(options, CcamCreateMode::kStatic);
    MetricsRegistry reg;
    am.SetMetrics(&reg);
    ASSERT_TRUE(am.Create(net).ok());
    MetricCounter* settled = reg.GetCounter("query.search.settled");
    MetricCounter* relaxed = reg.GetCounter("query.search.relaxed");
    Random rng(page_size);
    uint64_t new_accesses = 0, ref_accesses = 0;
    int above_reference = 0;
    const int kPairs = 300;
    for (int i = 0; i < kPairs; ++i) {
      NodeId src = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
      NodeId dst = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
      double weight = i % 3 == 0 ? -1.0 : 0.7;
      SCOPED_TRACE(::testing::Message() << page_size << " B, pair " << i
                                        << ": " << src << " -> " << dst);

      ASSERT_TRUE(am.buffer_pool()->Reset().ok());
      BufferPool::Counters pool_before = am.buffer_pool()->GetCounters();
      uint64_t settled_before = settled->value();
      uint64_t relaxed_before = relaxed->value();
      ReadCountingAccess counted(&am);
      auto got = weight < 0.0 ? ShortestPathDijkstra(&counted, src, dst)
                              : ShortestPathAStar(&counted, src, dst, weight);
      BufferPool::Counters pool_after = am.buffer_pool()->GetCounters();
      ASSERT_TRUE(got.ok());

      ASSERT_TRUE(am.buffer_pool()->Reset().ok());
      ReferenceRun ref = ReferenceBestFirst(&am, {src}, dst, weight);
      EXPECT_EQ(got->cost, ref.result.cost);
      EXPECT_EQ(got->path, ref.result.path);
      EXPECT_EQ(got->nodes_expanded, ref.result.nodes_expanded);
      EXPECT_EQ(settled->value() - settled_before, ref.settled.size());
      EXPECT_EQ(relaxed->value() - relaxed_before, ref.relaxed);
      EXPECT_LE(got->page_accesses, ref.result.page_accesses + 1);
      if (got->page_accesses > ref.result.page_accesses) ++above_reference;
      EXPECT_EQ(counted.MaxReads(), 1);
      if (got->page_accesses <= options.buffer_pool_pages) {
        EXPECT_EQ((pool_after.hits + pool_after.misses) -
                      (pool_before.hits + pool_before.misses),
                  ref.reached + (ref.result.Found() ? 0 : 1));
      }
      new_accesses += got->page_accesses;
      ref_accesses += ref.result.page_accesses;
    }
    EXPECT_LE(above_reference * 100, kPairs);
    EXPECT_LE(new_accesses * 10, ref_accesses * 6);
  }
}

// Once a search outgrows the pool it harvests each page it misses, so on
// cold 8-page pools long searches read, in total, within 15% of the same
// searches on cold pools that hold the whole file (each page read once).
// The rest are pages read before the search outgrew the pool, and records
// that no successor arc inside their page leads to (~14% here; without
// the harvest it is ~4.5x).
TEST(PageHarvestTest, LongSearchesReadEachPageAboutOnce) {
  const Network& net = RoadMap64();
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 8;
  Ccam small(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(small.Create(net).ok());
  options.buffer_pool_pages = small.NumDataPages();
  Ccam whole(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(whole.Create(net).ok());
  uint64_t small_reads = 0, whole_reads = 0;
  int i = 0;
  for (auto [src, dst] : LongPairs(net, 40, 15)) {
    double weight = i++ % 4 == 0 ? -1.0 : 0.7;
    SCOPED_TRACE(::testing::Message() << src << " -> " << dst);
    std::vector<SearchResult> got;
    for (Ccam* am : {&small, &whole}) {
      ASSERT_TRUE(am->buffer_pool()->Reset().ok());
      auto res = ShortestPathAStar(am, src, dst, weight);
      ASSERT_TRUE(res.ok());
      got.push_back(*res);
    }
    EXPECT_EQ(got[0].path, got[1].path);
    EXPECT_EQ(got[0].nodes_expanded, got[1].nodes_expanded);
    small_reads += got[0].page_accesses;
    whole_reads += got[1].page_accesses;
  }
  EXPECT_GT(small_reads, 8u * 40);  // the searches do outgrow the pool
  EXPECT_LE(small_reads * 100, whole_reads * 115);
}

/// A long pair on `RoadMap64()` whose cold search on `am` harvests a node
/// it never reaches; returns {src, dst, that node}.
std::tuple<NodeId, NodeId, NodeId> HarvestedUnreachedNode(AccessMethod* am) {
  for (auto [src, dst] : LongPairs(RoadMap64(), 20, 16)) {
    EXPECT_TRUE(am->buffer_pool()->Reset().ok());
    ReadCountingAccess counted(am);
    EXPECT_TRUE(ShortestPathAStar(&counted, src, dst).ok());
    EXPECT_TRUE(am->buffer_pool()->Reset().ok());
    std::set<NodeId> reached = ReachedNodes(
        RoadMap64(), ReferenceBestFirst(am, {src}, dst, 0.7), {src});
    NodeId victim = kInvalidNodeId;
    for (const auto& kv : counted.reads) {
      if (kv.first != dst && !reached.count(kv.first)) {
        victim = std::min(victim, kv.first);
      }
    }
    if (victim != kInvalidNodeId) return {src, dst, victim};
  }
  ADD_FAILURE() << "no search harvested an unreached node";
  return {kInvalidNodeId, kInvalidNodeId, kInvalidNodeId};
}

// A harvest read that fails is dropped: the search still succeeds with the
// identical result.
TEST(PageHarvestTest, FailedHarvestReadChangesNothing) {
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 8;
  Ccam am(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(RoadMap64()).ok());
  auto [src, dst, victim] = HarvestedUnreachedNode(&am);
  ASSERT_NE(victim, kInvalidNodeId);

  ASSERT_TRUE(am.buffer_pool()->Reset().ok());
  auto want = ShortestPathAStar(&am, src, dst);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(am.buffer_pool()->Reset().ok());
  ReadCountingAccess failing(&am);
  int failed = 0;
  failing.on_get_a_successor = [&](NodeId, NodeId to) {
    if (to != victim) return Status::OK();
    ++failed;
    return Status::IOError("injected harvest failure");
  };
  auto got = ShortestPathAStar(&failing, src, dst);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(failed, 0);
  EXPECT_EQ(got->cost, want->cost);
  EXPECT_EQ(got->path, want->path);
  EXPECT_EQ(got->nodes_expanded, want->nodes_expanded);
}

// A context cancelled during a harvest ends the search with Cancelled,
// never with a partial path.
TEST(PageHarvestTest, CancelDuringHarvestYieldsCancelled) {
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 8;
  Ccam am(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(RoadMap64()).ok());
  auto [src, dst, victim] = HarvestedUnreachedNode(&am);
  ASSERT_NE(victim, kInvalidNodeId);

  ASSERT_TRUE(am.buffer_pool()->Reset().ok());
  auto session = am.OpenSession();
  RequestContext ctx;
  session->SetRequestContext(&ctx);
  ReadCountingAccess cancelling(session.get());
  cancelling.on_get_a_successor = [&](NodeId, NodeId to) {
    if (to == victim) ctx.Cancel();  // a harvest read: `to` is never reached
    return Status::OK();
  };
  auto got = ShortestPathAStar(&cancelling, src, dst);
  EXPECT_TRUE(ctx.cancelled());
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCancelled()) << got.status().ToString();
}

TEST_F(QueryTest, SearchToSelfIsFree) {
  auto res = ShortestPathDijkstra(am_.get(), 7, 7);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->cost, 0.0);
  EXPECT_EQ(res->path, std::vector<NodeId>{7});
}

TEST_F(QueryTest, SearchMissingNodeFails) {
  EXPECT_FALSE(ShortestPathDijkstra(am_.get(), 0, 999999).ok());
  EXPECT_FALSE(ShortestPathDijkstra(am_.get(), 999999, 0).ok());
}

TEST_F(QueryTest, RouteUnitAggregation) {
  auto routes = GenerateRandomWalkRoutes(net_, 1, 15, 21);
  ASSERT_EQ(routes.size(), 1u);
  RouteUnit unit;
  unit.name = "route 21";
  double expected_total = 0.0;
  for (size_t i = 0; i + 1 < routes[0].nodes.size(); ++i) {
    unit.edges.emplace_back(routes[0].nodes[i], routes[0].nodes[i + 1]);
    float c;
    ASSERT_TRUE(
        net_.EdgeCost(routes[0].nodes[i], routes[0].nodes[i + 1], &c).ok());
    expected_total += c;
  }
  auto agg = AggregateRouteUnit(am_.get(), unit);
  ASSERT_TRUE(agg.ok());
  EXPECT_NEAR(agg->total_edge_cost, expected_total, 1e-3);
  EXPECT_EQ(agg->num_edges, unit.edges.size());
  EXPECT_GE(agg->max_edge_cost, agg->min_edge_cost);
  EXPECT_GT(agg->num_nodes, 0u);
}

TEST_F(QueryTest, EmptyRouteUnit) {
  auto agg = AggregateRouteUnit(am_.get(), RouteUnit{"empty", {}});
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->num_edges, 0u);
  EXPECT_EQ(agg->total_edge_cost, 0.0);
}

TEST_F(QueryTest, TourEvaluationClosesTheLoop) {
  // Find a short cycle: a bidirectional edge gives u -> v -> u.
  NodeId u = kInvalidNodeId, v = kInvalidNodeId;
  for (const auto& e : net_.Edges()) {
    if (net_.HasEdge(e.to, e.from)) {
      u = e.from;
      v = e.to;
      break;
    }
  }
  ASSERT_NE(u, kInvalidNodeId);
  Route tour;
  tour.nodes = {u, v};  // open: EvaluateTour must close it
  auto res = EvaluateTour(am_.get(), tour);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->num_edges, 2u);
  float c1, c2;
  ASSERT_TRUE(net_.EdgeCost(u, v, &c1).ok());
  ASSERT_TRUE(net_.EdgeCost(v, u, &c2).ok());
  EXPECT_NEAR(res->total_cost, double{c1} + double{c2}, 1e-4);

  // A tour is the route evaluation of the closed route: same cost, edges
  // and page accesses, each run from a cold pool.
  Route closed;
  closed.nodes = {u, v, u};
  ASSERT_TRUE(am_->buffer_pool()->Reset().ok());
  auto toured = EvaluateTour(am_.get(), tour);
  ASSERT_TRUE(am_->buffer_pool()->Reset().ok());
  auto routed = EvaluateRoute(am_.get(), closed);
  ASSERT_TRUE(toured.ok() && routed.ok());
  EXPECT_EQ(toured->total_cost, routed->total_cost);
  EXPECT_EQ(toured->num_edges, routed->num_edges);
  EXPECT_EQ(toured->page_accesses, routed->page_accesses);
  EXPECT_GT(toured->page_accesses, 0u);
}

TEST_F(QueryTest, TourTooShortRejected) {
  Route tiny;
  tiny.nodes = {3};
  EXPECT_TRUE(EvaluateTour(am_.get(), tiny).status().IsInvalidArgument());
}

TEST_F(QueryTest, LocationAllocationServesReachableDemands) {
  std::vector<NodeId> facilities{10, 500, 900};
  std::vector<NodeId> demands;
  for (NodeId id = 0; id < 1079; id += 25) demands.push_back(id);
  auto res = EvaluateLocationAllocation(am_.get(), facilities, demands);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->num_served, demands.size() * 9 / 10);
  EXPECT_GT(res->total_cost, 0.0);
  EXPECT_GE(res->max_cost, res->total_cost / res->num_served);
  // A facility node itself is served at distance 0.
  auto only_facility = EvaluateLocationAllocation(am_.get(), {10}, {10});
  ASSERT_TRUE(only_facility.ok());
  EXPECT_EQ(only_facility->num_served, 1u);
  EXPECT_EQ(only_facility->total_cost, 0.0);
}

TEST_F(QueryTest, LocationAllocationNeedsFacilities) {
  EXPECT_TRUE(EvaluateLocationAllocation(am_.get(), {}, {1})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(QueryTest, MultiSourceDistancesAreShortest) {
  std::vector<NodeId> sources{0, 1000};
  auto res = MultiSourceDistances(am_.get(), sources);
  ASSERT_TRUE(res.ok());
  // Same settle order and distances as the Get-successors-based loop.
  ReferenceRun ref =
      ReferenceBestFirst(am_.get(), sources, kInvalidNodeId, -1.0);
  EXPECT_EQ(res->distances, ref.settled);
  std::unordered_map<NodeId, double> dist;
  for (const auto& [node, d] : res->distances) dist[node] = d;
  for (NodeId probe : {57u, 333u, 808u}) {
    double expected = std::min(ReferenceShortestPath(net_, 0, probe),
                               ReferenceShortestPath(net_, 1000, probe));
    if (std::isinf(expected)) {
      EXPECT_EQ(dist.count(probe), 0u);
    } else {
      ASSERT_TRUE(dist.count(probe)) << probe;
      EXPECT_NEAR(dist[probe], expected, expected * 1e-5 + 1e-6);
    }
  }
}

// --- Read-ahead ------------------------------------------------------------

TEST(ReadAheadTest, LruReadAheadMatchesDemandOrderExactly) {
  RoadMapOptions gen;
  gen.rows = 40;
  gen.cols = 40;
  gen.seed = 20;
  const Network net = GenerateRoadMap(gen);
  const auto routes = GenerateRandomWalkRoutes(net, 40, 65, 21);
  const auto units = WalkUnits(net, 40, 30, 22);
  for (size_t page_size : {512, 1024, 2048}) {
    for (size_t pool_pages : {1, 2, 3, 8, 64}) {
      SCOPED_TRACE("page " + std::to_string(page_size) + ", pool " +
                   std::to_string(pool_pages));
      AccessMethodOptions options;
      options.page_size = page_size;
      options.buffer_pool_pages = pool_pages;
      options.buffer_pool_shards = pool_pages == 64 ? 4 : 1;
      options.num_threads = 1;
      Ccam file(options, CcamCreateMode::kStatic);
      ASSERT_TRUE(file.Create(net).ok());
      auto session = file.OpenSession();
      DemandOrderAccess demand(&file);

      struct Run {
        std::vector<QueryOutcome> outcomes;
        uint64_t disk_reads = 0;
        BufferPool::Counters counters;
      };
      auto run = [&](AccessMethod* am) {
        EXPECT_TRUE(file.buffer_pool()->Reset().ok());
        file.buffer_pool()->ResetCounters();
        file.ResetIoStats();
        session->ResetIoStats();
        Run r;
        r.outcomes = RunInterleaved(am, routes, units);
        r.disk_reads = file.DataIoStats().reads;
        r.counters = file.buffer_pool()->GetCounters();
        return r;
      };
      const Run want = run(&demand);
      const Run direct = run(&file);
      EXPECT_EQ(direct.outcomes, want.outcomes);
      EXPECT_EQ(direct.disk_reads, want.disk_reads);
      EXPECT_EQ(direct.counters.hits, want.counters.hits);
      EXPECT_EQ(direct.counters.misses, want.counters.misses);
      const Run charged = run(session.get());
      EXPECT_EQ(charged.outcomes, want.outcomes);
      EXPECT_EQ(charged.disk_reads, want.disk_reads);
      EXPECT_EQ(session->DataIoStats().reads, charged.disk_reads);
      EXPECT_EQ(charged.counters.hits, want.counters.hits);
      EXPECT_EQ(charged.counters.misses, want.counters.misses);
    }
  }
}

TEST(ReadAheadTest, FifoAndClockPoolsAreUntouched) {
  const Network net = GenerateMinneapolisLikeMap(1995);
  const auto routes = GenerateRandomWalkRoutes(net, 2, 40, 5);
  const std::vector<NodeId>& nodes = routes[1].nodes;
  for (ReplacementPolicy policy :
       {ReplacementPolicy::kFifo, ReplacementPolicy::kClock}) {
    SCOPED_TRACE(ReplacementPolicyName(policy));
    AccessMethodOptions options;
    options.buffer_pool_pages = 8;
    options.replacement = policy;
    Ccam file(options, CcamCreateMode::kStatic);
    ASSERT_TRUE(file.Create(net).ok());
    ASSERT_TRUE(EvaluateRoute(&file, routes[0]).ok());  // a warm pool
    auto session = file.OpenSession();
    const BufferPool::Counters before = file.buffer_pool()->GetCounters();
    const uint64_t reads = file.DataIoStats().reads;
    const size_t buffered = file.buffer_pool()->NumBuffered();
    const std::vector<ReadHint> hints = FindHints(nodes);
    EXPECT_EQ(file.ReadAhead(hints.data(), hints.size()), nodes.size());
    EXPECT_EQ(session->ReadAhead(hints.data(), hints.size()), nodes.size());
    const BufferPool::Counters after = file.buffer_pool()->GetCounters();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(file.DataIoStats().reads, reads);
    EXPECT_EQ(session->DataIoStats().reads, 0u);
    EXPECT_EQ(file.buffer_pool()->NumBuffered(), buffered);
  }
  // The LRU contrast: from a cold pool one call loads a whole window, each
  // load a miss, and covers at least the first entry.
  AccessMethodOptions options;
  options.buffer_pool_pages = 8;
  Ccam file(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(file.Create(net).ok());
  ASSERT_TRUE(file.buffer_pool()->Reset().ok());
  file.buffer_pool()->ResetCounters();
  file.ResetIoStats();
  const size_t covered = file.ReadAhead(FindHints(nodes).data(), nodes.size());
  EXPECT_GE(covered, 1u);
  EXPECT_LE(covered, nodes.size());
  EXPECT_GE(file.DataIoStats().reads, 2u);
  EXPECT_EQ(file.buffer_pool()->misses(), file.DataIoStats().reads);
  EXPECT_EQ(file.buffer_pool()->hits(), 0u);
}

// A hint over the rest of a long route maps entries only until one does
// not fit the pool's window, so hinting every window of a route costs
// the route once, not once per window.
TEST(ReadAheadTest, HintMapsOnlyItsWindow) {
  const Network net = GenerateMinneapolisLikeMap(1995);
  const Route route = GenerateRandomWalkRoutes(net, 1, 65, 9)[0];
  AccessMethodOptions options;
  options.buffer_pool_pages = 1;
  Ccam file(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(file.Create(net).ok());
  const std::vector<ReadHint> hints = FindHints(route.nodes);
  size_t mapped = 0;
  const size_t covered =
      file.SharedReadAhead(hints.data(), hints.size(), nullptr, [&](NodeId) {
        ++mapped;
        return false;
      });
  EXPECT_GE(covered, 1u);
  EXPECT_LT(covered, hints.size());
  EXPECT_EQ(mapped, covered + 1);  // the first entry that does not fit
}

TEST(ReadAheadTest, ShortReadInABatchLeavesResultsIdentical) {
  const Network net = GenerateMinneapolisLikeMap(1995);
  const auto routes = GenerateRandomWalkRoutes(net, 30, 65, 31);
  AccessMethodOptions options;
  options.buffer_pool_pages = 8;
  Ccam file(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(file.Create(net).ok());

  auto evaluate_all = [&](QuerySession* session) {
    std::vector<QueryOutcome> out;
    for (const Route& route : routes) {
      auto res = EvaluateRoute(session, route);
      EXPECT_TRUE(res.ok()) << res.status().ToString();
      if (res.ok()) out.emplace_back(res->total_cost, res->page_accesses);
    }
    return out;
  };
  ASSERT_TRUE(file.buffer_pool()->Reset().ok());
  const auto oracle = evaluate_all(file.OpenSession().get());

  // The first route's first window holds at least two missing pages, so
  // read 2 of a cold pool is part of a batch.
  ASSERT_TRUE(file.buffer_pool()->Reset().ok());
  file.ResetIoStats();
  file.ReadAhead(FindHints(routes[0].nodes).data(),
                 routes[0].nodes.size());
  ASSERT_GE(file.DataIoStats().reads, 2u);

  for (const char* schedule :
       {"disk.read=short:64@2", "disk.read=short:64@every9"}) {
    SCOPED_TRACE(schedule);
    ASSERT_TRUE(file.buffer_pool()->Reset().ok());
    FaultInjector faults(7);
    file.SetFaultInjector(&faults);
    ASSERT_TRUE(faults.Configure(schedule).ok());
    const IoStats disk_before = file.DataIoStats();
    auto session = file.OpenSession();
    EXPECT_EQ(evaluate_all(session.get()), oracle);
    EXPECT_FALSE(faults.FiringLog().empty());
    EXPECT_EQ(session->DataIoStats().reads,
              (file.DataIoStats() - disk_before).reads);
    EXPECT_EQ(file.quarantine()->size(), 0u);
    file.SetFaultInjector(nullptr);
  }
}

// Searches hint their endpoint Finds and each settle's unread successors.
// On LRU pools every answer, page access, disk read and pool counter
// equals demand order's, for the file and a session, including searches
// that outgrow the pool and harvest (a hint's load counts as its read's
// miss there). FIFO and CLOCK pools read nothing ahead.
TEST(SearchReadAheadTest, SearchesMatchDemandOrderExactly) {
  RoadMapOptions gen;
  gen.rows = 40;
  gen.cols = 40;
  gen.seed = 20;
  const Network net = GenerateRoadMap(gen);
  const auto pairs = RandomPairs(net, 16, 23);
  struct Config {
    size_t page_size;
    size_t pool_pages;
    ReplacementPolicy policy;
  };
  std::vector<Config> configs;
  for (size_t page_size : {512, 1024}) {
    for (size_t pool_pages : {1, 2, 3, 8, 64}) {
      configs.push_back({page_size, pool_pages, ReplacementPolicy::kLru});
    }
  }
  configs.push_back({1024, 8, ReplacementPolicy::kFifo});
  configs.push_back({1024, 8, ReplacementPolicy::kClock});
  for (const Config& config : configs) {
    SCOPED_TRACE(std::string(ReplacementPolicyName(config.policy)) +
                 ", page " + std::to_string(config.page_size) + ", pool " +
                 std::to_string(config.pool_pages));
    AccessMethodOptions options;
    options.page_size = config.page_size;
    options.buffer_pool_pages = config.pool_pages;
    options.buffer_pool_shards = config.pool_pages == 64 ? 4 : 1;
    options.replacement = config.policy;
    options.num_threads = 1;
    Ccam file(options, CcamCreateMode::kStatic);
    ASSERT_TRUE(file.Create(net).ok());
    auto session = file.OpenSession();
    DemandOrderAccess demand(&file);

    struct Run {
      std::vector<QueryOutcome> outcomes;
      uint64_t disk_reads = 0;
      BufferPool::Counters counters;
    };
    auto run = [&](AccessMethod* am) {
      EXPECT_TRUE(file.buffer_pool()->Reset().ok());
      file.buffer_pool()->ResetCounters();
      file.ResetIoStats();
      session->ResetIoStats();
      Run r;
      r.outcomes = RunSearches(am, pairs);
      r.disk_reads = file.DataIoStats().reads;
      r.counters = file.buffer_pool()->GetCounters();
      return r;
    };
    const Run want = run(&demand);
    EXPECT_TRUE(SomeSearchOutgrewPool(want.outcomes, config.pool_pages));
    for (AccessMethod* am : {static_cast<AccessMethod*>(&file),
                             static_cast<AccessMethod*>(session.get())}) {
      SCOPED_TRACE(am->Name());
      const Run got = run(am);
      EXPECT_EQ(got.outcomes, want.outcomes);
      EXPECT_EQ(got.disk_reads, want.disk_reads);
      EXPECT_EQ(got.counters.hits, want.counters.hits);
      EXPECT_EQ(got.counters.misses, want.counters.misses);
      if (config.policy != ReplacementPolicy::kLru) {
        EXPECT_EQ(got.counters.ahead_misses, 0u);
      }
    }
    EXPECT_EQ(session->DataIoStats().reads, file.DataIoStats().reads);
  }
}

/// Forwards every call, read-ahead included, and notes one disk read that
/// falls inside a settle hint's batch: the second page of the first settle
/// hint that loads two or more pages (disk reads counted from 1).
class SettleBatchProbe : public DemandOrderAccess {
 public:
  SettleBatchProbe(AccessMethod* inner, Ccam* file)
      : DemandOrderAccess(inner), inner_(inner), file_(file) {}

  size_t ReadAhead(const ReadHint* hints, size_t n) override {
    const uint64_t before = file_->DataIoStats().reads;
    const size_t covered = inner_->ReadAhead(hints, n);
    if (batch_read == 0 && hints[0].from != kInvalidNodeId &&
        file_->DataIoStats().reads >= before + 2) {
      batch_read = before + 2;
    }
    return covered;
  }

  uint64_t batch_read = 0;

 private:
  AccessMethod* inner_;
  Ccam* file_;
};

// A short read that lands inside a settle's read-ahead batch drops that
// load; the demand fetch re-reads the page, so the answers are those of a
// fault-free run. The fault-free run finds a disk read inside a settle
// batch, and the faulted runs repeat its reads up to that point.
TEST(SearchReadAheadTest, ShortReadInASettleBatchLeavesAnswersIdentical) {
  const Network net = GenerateMinneapolisLikeMap(1995);
  const auto pairs = RandomPairs(net, 24, 41);
  AccessMethodOptions options;
  options.buffer_pool_pages = 8;
  Ccam file(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(file.Create(net).ok());
  // Answers only: the accesses of a faulted run differ by the re-reads.
  auto answers = [](const std::vector<QueryOutcome>& outcomes) {
    std::vector<double> out;
    for (size_t i = 0; i < outcomes.size(); i += 2) {
      out.push_back(outcomes[i].first);
      out.push_back(static_cast<double>(outcomes[i + 1].first));
    }
    return out;
  };
  auto cold_run = [&](uint64_t* batch_read) {
    EXPECT_TRUE(file.buffer_pool()->Reset().ok());
    file.ResetIoStats();
    auto session = file.OpenSession();
    SettleBatchProbe probe(session.get(), &file);
    auto out = answers(RunSearches(&probe, pairs));
    EXPECT_EQ(session->DataIoStats().reads, file.DataIoStats().reads);
    if (batch_read != nullptr) *batch_read = probe.batch_read;
    return out;
  };
  uint64_t batch_read = 0;
  const auto oracle = cold_run(&batch_read);
  ASSERT_GT(batch_read, 0u);

  for (const std::string& schedule :
       {"disk.read=short:64@" + std::to_string(batch_read),
        std::string("disk.read=short:64@every7"),
        std::string("disk.read=short:64@every9")}) {
    SCOPED_TRACE(schedule);
    FaultInjector faults(7);
    file.SetFaultInjector(&faults);
    ASSERT_TRUE(faults.Configure(schedule).ok());
    EXPECT_EQ(cold_run(nullptr), oracle);
    EXPECT_FALSE(faults.FiringLog().empty());
    EXPECT_EQ(file.quarantine()->size(), 0u);
    file.SetFaultInjector(nullptr);
  }
}

}  // namespace
}  // namespace ccam
