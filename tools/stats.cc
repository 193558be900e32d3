// stats: runs a representative workload against a CCAM file with the
// metrics registry attached and dumps every collected series — the
// quickest way to see the observability layer end to end.
//
// The workload is the full stack: a static CCAM-S create, an insert/delete
// churn phase, and one of each query operator (route evaluation, A*
// search, route-unit aggregation, reachability traversal, spatial window).
// Afterwards the tool verifies that every metric family the stack is
// instrumented with (buffer_pool.*, disk.*, query.*) collected at least
// one nonzero sample, and exits nonzero otherwise — so it doubles as a
// smoke test that the instrumentation stays wired through every layer.
//
// Usage: stats [--json]
//   default : human-readable table (MetricsRegistry::DumpText)
//   --json  : full catalog as JSON, including histogram buckets

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/ccam.h"
#include "src/core/query_session.h"
#include "src/graph/generator.h"
#include "src/graph/route.h"
#include "src/query/aggregate.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/query/spatial.h"
#include "src/query/traversal.h"

namespace ccam {
namespace {

int Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "stats: %s failed: %s\n", what, s.ToString().c_str());
  return 1;
}

int Run(bool json) {
  // The paper's evaluation network (33x33 jittered grid minus 10 nodes).
  Network net = GenerateRoadMap(RoadMapOptions{});

  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 16;
  Ccam am(options, CcamCreateMode::kStatic);

  MetricsRegistry metrics;
  am.SetMetrics(&metrics);

  Status s = am.Create(net);
  if (!s.ok()) return Fail("create", s);

  // Update churn: delete and re-insert a sample of nodes. This feeds the
  // disk write series and the pool's writeback counters.
  std::vector<NodeId> ids = net.NodeIds();
  for (size_t i = 0; i < ids.size(); i += 97) {
    auto rec = am.Find(ids[i]);
    if (!rec.ok()) return Fail("find", rec.status());
    s = am.DeleteNode(ids[i], ReorgPolicy::kFirstOrder);
    if (!s.ok()) return Fail("delete", s);
    s = am.InsertNode(*rec, ReorgPolicy::kSecondOrder);
    if (!s.ok()) return Fail("insert", s);
  }

  // One of each query operator, all through the metrics-attached file so
  // the query.* spans record.
  std::vector<Route> routes = GenerateRandomWalkRoutes(net, 32, 24, 7);
  for (const Route& r : routes) {
    auto res = EvaluateRoute(&am, r);
    if (!res.ok()) return Fail("route eval", res.status());
  }
  {
    const Route& r = routes.front();
    auto res = ShortestPathAStar(&am, r.nodes.front(), r.nodes.back());
    if (!res.ok()) return Fail("a* search", res.status());
  }
  {
    RouteUnit unit;
    unit.name = "route-0";
    const Route& r = routes.front();
    for (size_t i = 0; i + 1 < r.nodes.size(); ++i) {
      unit.edges.emplace_back(r.nodes[i], r.nodes[i + 1]);
    }
    auto res = AggregateRouteUnit(&am, unit);
    if (!res.ok()) return Fail("aggregate", res.status());
  }
  {
    auto res = ReachableFrom(&am, ids.front(), /*max_depth=*/4);
    if (!res.ok()) return Fail("traversal", res.status());
  }
  {
    auto engine = SpatialQueryEngine::Build(&am);
    if (!engine.ok()) return Fail("spatial build", engine.status());
    auto res = (*engine)->WindowQuery(0, 0, 800, 800);
    if (!res.ok()) return Fail("window query", res.status());
  }

  if (json) {
    std::printf("%s\n", metrics.ExportJson().c_str());
  } else {
    metrics.DumpText(stdout);
  }

  // Acceptance check: every instrumented family produced data.
  const char* families[] = {"buffer_pool.", "disk.", "query."};
  std::vector<MetricsRegistry::Sample> samples = metrics.Samples();
  int missing = 0;
  for (const char* family : families) {
    bool nonzero = false;
    for (const auto& sample : samples) {
      if (sample.name.rfind(family, 0) != 0) continue;
      if (sample.count > 0 || sample.gauge != 0) {
        nonzero = true;
        break;
      }
    }
    if (!nonzero) {
      std::fprintf(stderr, "stats: no nonzero %s* series collected\n",
                   family);
      missing = 1;
    }
  }
  return missing;
}

}  // namespace
}  // namespace ccam

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json]\n", argv[0]);
      return 2;
    }
  }
  return ccam::Run(json);
}
