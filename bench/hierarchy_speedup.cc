// Hierarchy speedup: page accesses and bytes read per long route query,
// flat search vs the contraction-hierarchy overlay.
//
// The flat searches (Dijkstra, A*) touch a node record for every expansion,
// so a corner-to-corner query over a large road map sweeps most of the data
// file through an 8-page pool. The CH overlay replaces that sweep with two
// short climbs of the shortcut graph whose top levels live on a handful of
// hot pages — the bench measures exactly that, in the paper's currency of
// page accesses, on coordinate-extreme (longest) pairs with the pools
// dropped cold before every query. The overlay's page size doubles until
// its widest record fits, so an overlay access can move more bytes than a
// data access: every access is also counted in bytes (accesses x that
// pool's page size). The overlay build is timed apart from the data file's
// Create.
//
// Sides default to {32, 64, 91} (the upper half of the scale bench's
// sweep); override with a comma-separated CCAM_HIER_SIDES. Every cell but
// the wall-clock ms columns, which stdout keeps, is also emitted into
// BENCH_hierarchy_speedup.json (bench_util schema); scripts/check_perf.sh
// compares the access counts exactly — they are deterministic.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/query/hierarchy.h"
#include "src/query/search.h"

namespace ccam {
namespace bench {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<int> Sides() {
  std::vector<int> sides;
  if (const char* env = std::getenv("CCAM_HIER_SIDES")) {
    const char* p = env;
    while (*p != '\0') {
      char* end = nullptr;
      long v = std::strtol(p, &end, 10);
      if (end == p) break;
      if (v > 1) sides.push_back(static_cast<int>(v));
      p = (*end == ',') ? end + 1 : end;
    }
  }
  if (sides.empty()) sides = {32, 64, 91};
  return sides;
}

/// The longest queries the map offers: nodes sorted by x+y, the i-th
/// lowest corner paired with the i-th highest.
std::vector<std::pair<NodeId, NodeId>> ExtremePairs(const Network& net,
                                                    size_t count) {
  std::vector<NodeId> ids = net.NodeIds();
  std::stable_sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    const NetworkNode& na = net.node(a);
    const NetworkNode& nb = net.node(b);
    return na.x + na.y < nb.x + nb.y;
  });
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (size_t i = 0; i < count && i < ids.size() / 2; ++i) {
    pairs.emplace_back(ids[i], ids[ids.size() - 1 - i]);
  }
  return pairs;
}

struct AlgoStats {
  uint64_t accesses = 0;
  uint64_t bytes = 0;
  double ms = 0.0;
  double cost_sum = 0.0;
};

int Run() {
  std::printf("Hierarchy speedup: page accesses per corner-to-corner "
              "query, cold 8-page pools (block = 1 KiB)\n\n");
  TablePrinter queries({"side", "nodes", "algorithm", "pairs",
                        "total accesses", "mean accesses", "mean KiB read",
                        "mean ms"});
  TablePrinter summary({"side", "nodes", "A* accesses", "CH accesses",
                        "access speedup", "A* KiB", "CH KiB",
                        "byte speedup", "CH matches Dijkstra"});
  TablePrinter build({"side", "nodes", "shortcuts", "overlay pages",
                      "overlay page size", "create ms", "overlay build ms"});
  BenchJsonWriter json("hierarchy_speedup");

  const size_t kPairs = 8;
  for (int side : Sides()) {
    RoadMapOptions gen;
    gen.rows = side;
    gen.cols = side;
    gen.nodes_to_remove = side / 4;
    gen.seed = 1000 + side;
    Network net = GenerateRoadMap(gen);

    AccessMethodOptions options;
    options.page_size = 1024;
    options.buffer_pool_pages = 8;
    Ccam am(options, CcamCreateMode::kStatic);
    auto t0 = std::chrono::steady_clock::now();
    Status created = am.Create(net);
    const double create_ms = MsSince(t0);
    t0 = std::chrono::steady_clock::now();
    if (created.ok()) created = am.BuildHierarchyOverlay();
    const double overlay_ms = MsSince(t0);
    if (!created.ok() || !am.HasHierarchy()) {
      std::fprintf(stderr, "side %d: create failed: %s\n", side,
                   created.message().c_str());
      return 1;
    }
    const HierarchyOverlay::BuildInfo& info = am.hierarchy()->build_info();
    build.AddRow({std::to_string(side), std::to_string(net.NumNodes()),
                  std::to_string(info.shortcuts), std::to_string(info.pages),
                  std::to_string(info.page_size), Fmt(create_ms, 1),
                  Fmt(overlay_ms, 1)});

    std::vector<std::pair<NodeId, NodeId>> pairs = ExtremePairs(net, kPairs);
    // Every query starts with both pools cold: access counts measure the
    // structure, not residue from the previous query.
    auto cold = [&] {
      am.buffer_pool()->Reset();
      am.hierarchy()->pool()->Reset();
      am.ResetIoStats();
      am.hierarchy()->ResetStats();
    };

    std::vector<double> oracle_costs;
    bool matches = true;
    auto run_algo = [&](const char* name) {
      AlgoStats stats;
      for (size_t i = 0; i < pairs.size(); ++i) {
        cold();
        auto q0 = std::chrono::steady_clock::now();
        Result<SearchResult> res =
            std::string(name) == "dijkstra"
                ? ShortestPathDijkstra(&am, pairs[i].first, pairs[i].second)
            : std::string(name) == "astar"
                ? ShortestPathAStar(&am, pairs[i].first, pairs[i].second)
                : ShortestPathCH(&am, pairs[i].first, pairs[i].second);
        stats.ms += MsSince(q0);
        if (!res.ok()) {
          std::fprintf(stderr, "side %d: %s %u->%u failed: %s\n", side, name,
                       pairs[i].first, pairs[i].second,
                       res.status().message().c_str());
          continue;
        }
        // A removed-node map can isolate a corner; the search still did
        // comparable work, and the oracle records the unreachability so CH
        // must reproduce it (cost -1 = unreachable).
        stats.accesses += res->page_accesses;
        stats.bytes += am.DataIoStats().Accesses() * options.page_size +
                       am.HierarchyIoStats().Accesses() * info.page_size;
        stats.cost_sum += res->Found() ? res->cost : 0.0;
        if (std::string(name) == "dijkstra") {
          oracle_costs.push_back(res->Found() ? res->cost : -1.0);
        } else if (std::string(name) == "ch" && i < oracle_costs.size()) {
          double dj = oracle_costs[i];
          if (dj < 0.0) {
            if (res->Found()) matches = false;
          } else if (!res->Found() ||
                     std::abs(res->cost - dj) > 1e-6 * (1.0 + dj)) {
            matches = false;
          }
        }
      }
      queries.AddRow({std::to_string(side), std::to_string(net.NumNodes()),
                      name, std::to_string(pairs.size()),
                      std::to_string(stats.accesses),
                      Fmt(static_cast<double>(stats.accesses) /
                              static_cast<double>(pairs.size()),
                          1),
                      Fmt(static_cast<double>(stats.bytes) / 1024.0 /
                              static_cast<double>(pairs.size()),
                          1),
                      Fmt(stats.ms / static_cast<double>(pairs.size()), 3)});
      return stats;
    };

    AlgoStats dj = run_algo("dijkstra");
    AlgoStats astar = run_algo("astar");
    AlgoStats ch = run_algo("ch");
    (void)dj;
    auto ratio = [](uint64_t a, uint64_t b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    summary.AddRow({std::to_string(side), std::to_string(net.NumNodes()),
                    std::to_string(astar.accesses),
                    std::to_string(ch.accesses),
                    Fmt(ratio(astar.accesses, ch.accesses), 2),
                    std::to_string(astar.bytes / 1024),
                    std::to_string(ch.bytes / 1024),
                    Fmt(ratio(astar.bytes, ch.bytes), 2),
                    matches ? "true" : "false"});
  }

  queries.Print();
  json.AddTable("query_accesses", queries, {"mean ms"});
  std::printf("\nData file Create and overlay build, timed apart\n\n");
  build.Print();
  json.AddTable("overlay_build", build, {"create ms", "overlay build ms"});
  std::printf("\nSummary: A* vs CH page accesses and bytes read on the same "
              "cold pools\n\n");
  summary.Print();
  json.AddTable("speedup", summary);
  std::printf(
      "\nExpected shape: flat-search accesses grow with the map (the "
      "frontier sweeps the data file); CH accesses stay near the overlay's "
      "top levels, so the access speedup widens with scale — ~6x at the "
      "largest side. Overlay pages grow with the widest record, so the byte "
      "speedup is smaller. \"CH matches Dijkstra\" must read true: the "
      "overlay is an index, never an approximation.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ccam

int main() { return ccam::bench::Run(); }
