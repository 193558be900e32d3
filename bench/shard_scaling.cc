// Shard scaling: the same route workload replayed against the sharded
// network file at 1 / 2 / 4 / 8 shards, against an unsharded oracle.
//
// What the table shows, in the paper's currency of page accesses: the
// single-shard configuration is the unsharded file (same partitioner, same
// pages — the accounting must match the baseline exactly), and each
// doubling of the shard count trades a larger halo (boundary-node copies)
// for smaller per-shard files. Route results must be identical at every
// shard count — sharding is a layout, never an approximation — so the
// "mismatches" column must read 0 throughout.
//
// Route count defaults to 200; override with CCAM_SHARD_ROUTES (the
// check_perf.sh smoke run uses a small value). Every cell is also emitted
// into BENCH_shard_scaling.json (bench_util schema) except the
// wall-clock/qps columns, which stdout keeps: scripts/check_perf.sh
// compares the deterministic columns (reads, cut edges, crossings, halo,
// mismatches) exactly.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/ccam.h"
#include "src/core/query_session.h"
#include "src/graph/generator.h"
#include "src/graph/route.h"
#include "src/query/route_eval.h"
#include "src/shard/shard_query.h"
#include "src/shard/sharded_network_file.h"

namespace ccam {
namespace bench {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int RouteCount() {
  if (const char* env = std::getenv("CCAM_SHARD_ROUTES")) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return 200;
}

int Run() {
  const int kRoutes = RouteCount();
  Network net = GenerateMinneapolisLikeMap(1995);
  std::vector<Route> routes =
      GenerateRandomWalkRoutes(net, kRoutes, /*length=*/12, /*seed=*/7);

  std::printf("Shard scaling: %d random-walk routes over %zu nodes / %zu "
              "edges, cold 8-page pools per shard (block = 1 KiB)\n\n",
              kRoutes, net.NumNodes(), net.NumEdges());

  AccessMethodOptions base;
  base.page_size = 1024;
  base.buffer_pool_pages = 8;

  // Unsharded oracle: answers and the 1-shard accounting baseline.
  Ccam oracle(base, CcamCreateMode::kStatic);
  Status created = oracle.Create(net);
  if (!created.ok()) {
    std::fprintf(stderr, "oracle create failed: %s\n",
                 created.message().c_str());
    return 1;
  }
  auto oracle_session = oracle.OpenSession();
  std::vector<RouteEvalResult> expected;
  expected.reserve(routes.size());
  for (const Route& route : routes) {
    auto r = EvaluateRoute(oracle_session.get(), route);
    if (!r.ok()) {
      std::fprintf(stderr, "oracle route failed: %s\n",
                   r.status().message().c_str());
      return 1;
    }
    expected.push_back(*r);
  }
  const uint64_t oracle_reads = oracle_session->DataIoStats().reads;

  TablePrinter table({"shards", "pages", "cut edges", "halo records",
                      "cross-shard routes", "cut crossings", "reads",
                      "mismatches", "create ms", "eval ms", "qps"});
  BenchJsonWriter json("shard_scaling");

  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardedOptions sopts;
    sopts.num_shards = shards;
    sopts.am = base;
    ShardedNetworkFile file(sopts);
    auto t0 = std::chrono::steady_clock::now();
    created = file.Create(net);
    double create_ms = MsSince(t0);
    if (!created.ok()) {
      std::fprintf(stderr, "%u shards: create failed: %s\n", shards,
                   created.message().c_str());
      return 1;
    }
    file.ResetIoStats();

    auto session = file.OpenSession();
    size_t multi = 0;
    size_t mismatches = 0;
    uint64_t crossings = 0;
    auto e0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < routes.size(); ++i) {
      auto got = EvaluateRouteSharded(session.get(), routes[i]);
      if (!got.ok()) {
        std::fprintf(stderr, "%u shards: route failed: %s\n", shards,
                     got.status().message().c_str());
        return 1;
      }
      if (got->fanout > 1) ++multi;
      crossings += got->cut_crossings;
      double want = expected[i].total_cost;
      double diff = got->eval.total_cost - want;
      if (diff < 0) diff = -diff;
      if (got->eval.num_edges != expected[i].num_edges ||
          diff > 1e-9 * (1.0 + want)) {
        ++mismatches;
      }
    }
    double eval_ms = MsSince(e0);
    uint64_t reads = session->DataIoStats().reads;

    table.AddRow(
        {std::to_string(shards), std::to_string(file.NumDataPages()),
         std::to_string(file.NumCutEdges()),
         std::to_string(file.TotalHaloRecords()), std::to_string(multi),
         std::to_string(crossings), std::to_string(reads),
         std::to_string(mismatches), Fmt(create_ms, 1), Fmt(eval_ms, 1),
         Fmt(eval_ms > 0.0 ? 1000.0 * routes.size() / eval_ms : 0.0, 0)});

    if (mismatches != 0) {
      std::fprintf(stderr, "%u shards: %zu route mismatches\n", shards,
                   mismatches);
      return 1;
    }
    if (shards == 1 && reads != oracle_reads) {
      std::fprintf(stderr,
                   "1-shard accounting diverged from the unsharded file: "
                   "%llu reads vs %llu\n",
                   static_cast<unsigned long long>(reads),
                   static_cast<unsigned long long>(oracle_reads));
      return 1;
    }
  }

  table.Print();
  json.AddTable("scaling", table, {"create ms", "eval ms", "qps"});
  std::printf(
      "\nExpected shape: 1 shard reproduces the unsharded file exactly "
      "(same pages, same reads — enforced above). As shards double, cut "
      "edges and halo records grow and cross-shard routes pay stitching "
      "reads at the halo boundary, while per-shard files shrink. "
      "\"mismatches\" must read 0 at every shard count: the shard layout "
      "never changes an answer.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ccam

int main() { return ccam::bench::Run(); }
