// ccam_cli — command-line front end for the CCAM library.
//
// Usage:
//   ccam_cli generate --out map.net [--rows 33] [--cols 33] [--seed 1995]
//   ccam_cli create   --net map.net --image file.img [--page-size 1024]
//                     [--partitioner ratio-cut|fm|kl|random]
//                     [--mode static|incremental] [--weighted]
//   ccam_cli stats    --net map.net --image file.img [--page-size 1024]
//   ccam_cli find     --net map.net --image file.img --id 42
//   ccam_cli route    --net map.net --image file.img --from 0 --to 100
//   ccam_cli window   --net map.net --image file.img
//                     --xmin 0 --ymin 0 --xmax 500 --ymax 500
//   ccam_cli replay   --net map.net --image file.img --trace ops.txt
//                     [--policy first-order|second-order|higher-order]
//   ccam_cli serve    --net map.net --image file.img [--workers 8]
//                     [--qps 2000] [--duration-ms 1000] [--tenants 4]
//                     [--theta 0.9] [--rate-limit 0]
//                     (open-loop load against the in-process QueryService;
//                     reports qps, latency percentiles, reject rate,
//                     hit rate, and the conservation check)
//   ccam_cli shard    --net map.net [--shards 4] [--routes 64]
//                     (coarse-partitions the network into N shard files,
//                     evaluates sample routes sharded vs unsharded, and
//                     reports per-shard occupancy, halo counts and cut
//                     crossings; nonzero exit on any result mismatch)
//
// The `.net` file is the text network format (src/graph/graph_io.h); the
// `.img` file is a CCAM disk image (NetworkFile::SaveImage).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "src/core/ccam.h"
#include "src/core/file_stats.h"
#include "src/graph/generator.h"
#include "src/graph/graph_io.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/query/spatial.h"
#include "src/query/trace.h"
#include "src/serve/loadgen.h"
#include "src/serve/query_service.h"
#include "src/shard/sharded_network_file.h"

namespace ccam {
namespace cli {
namespace {

/// Minimal --flag value parser; flags may appear in any order.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--weighted") == 0) {
        flags_[argv[i] + 2] = true;  // boolean flag, no value
        continue;
      }
      if (std::strncmp(argv[i], "--", 2) == 0 && i + 1 < argc) {
        values_[argv[i] + 2] = argv[i + 1];
        ++i;
      } else {
        std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
        std::exit(2);
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// Strict numeric parsing: atol/atof silently read garbage as 0, which
  /// let a typo'd flag value run a different query and exit 0. A value
  /// that does not parse in full is a usage error (exit 2, stderr).
  long GetInt(const std::string& key, long fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    long v = std::strtol(it->second.c_str(), &end, 10);
    if (errno != 0 || end == it->second.c_str() || *end != '\0') {
      std::fprintf(stderr, "flag --%s: '%s' is not an integer\n",
                   key.c_str(), it->second.c_str());
      std::exit(2);
    }
    return v;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (errno != 0 || end == it->second.c_str() || *end != '\0') {
      std::fprintf(stderr, "flag --%s: '%s' is not a number\n", key.c_str(),
                   it->second.c_str());
      std::exit(2);
    }
    return v;
  }
  bool GetFlag(const std::string& key) const { return flags_.count(key) > 0; }

  std::string Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;
};

void Die(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

PartitionAlgorithm ParsePartitioner(const std::string& name) {
  if (name == "ratio-cut") return PartitionAlgorithm::kRatioCut;
  if (name == "fm") return PartitionAlgorithm::kFm;
  if (name == "kl") return PartitionAlgorithm::kKl;
  if (name == "random") return PartitionAlgorithm::kRandom;
  std::fprintf(stderr, "unknown partitioner '%s'\n", name.c_str());
  std::exit(2);
}

Network LoadNet(const std::string& path) {
  auto net = LoadNetwork(path);
  if (!net.ok()) {
    std::fprintf(stderr, "loading %s: %s\n", path.c_str(),
                 net.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*net);
}

AccessMethodOptions OptionsFrom(const Args& args) {
  AccessMethodOptions options;
  options.page_size = static_cast<size_t>(args.GetInt("page-size", 1024));
  options.buffer_pool_pages =
      static_cast<size_t>(args.GetInt("buffer-pages", 8));
  options.partitioner =
      ParsePartitioner(args.GetString("partitioner", "ratio-cut"));
  options.use_access_weights = args.GetFlag("weighted");
  options.maintain_bptree_index = true;
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  return options;
}

std::unique_ptr<Ccam> OpenFile(const Args& args) {
  auto am = std::make_unique<Ccam>(OptionsFrom(args),
                                   CcamCreateMode::kStatic);
  Die(am->OpenImage(args.Require("image")), "open image");
  return am;
}

int CmdGenerate(const Args& args) {
  RoadMapOptions gen;
  gen.rows = static_cast<int>(args.GetInt("rows", 33));
  gen.cols = static_cast<int>(args.GetInt("cols", 33));
  if (gen.rows < 2 || gen.cols < 2) {
    std::fprintf(stderr, "generate: --rows/--cols must be >= 2\n");
    return 2;
  }
  gen.seed = static_cast<uint64_t>(args.GetInt("seed", 1995));
  gen.nodes_to_remove = static_cast<int>(
      args.GetInt("remove", gen.rows * gen.cols / 100));
  Network net = GenerateRoadMap(gen);
  Die(SaveNetwork(net, args.Require("out")), "save network");
  std::printf("wrote %zu nodes / %zu edges to %s\n", net.NumNodes(),
              net.NumEdges(), args.Require("out").c_str());
  return 0;
}

int CmdCreate(const Args& args) {
  Network net = LoadNet(args.Require("net"));
  CcamCreateMode mode = args.GetString("mode", "static") == "incremental"
                            ? CcamCreateMode::kIncremental
                            : CcamCreateMode::kStatic;
  Ccam am(OptionsFrom(args), mode);
  Die(am.Create(net), "create");
  Die(am.SaveImage(args.Require("image")), "save image");
  std::printf("%s: %zu records on %zu pages, CRR %.4f, WCRR %.4f -> %s\n",
              am.Name().c_str(), am.PageMap().size(), am.NumDataPages(),
              ComputeCrr(net, am.PageMap()), ComputeWcrr(net, am.PageMap()),
              args.Require("image").c_str());
  return 0;
}

int CmdStats(const Args& args) {
  Network net = LoadNet(args.Require("net"));
  auto am = OpenFile(args);
  auto stats = CollectFileStats(am.get(), net);
  Die(stats.status(), "collect stats");
  std::fputs(stats->ToString().c_str(), stdout);
  return 0;
}

int CmdFind(const Args& args) {
  Network net = LoadNet(args.Require("net"));
  (void)net;
  auto am = OpenFile(args);
  NodeId id = static_cast<NodeId>(args.GetInt("id", 0));
  auto rec = am->Find(id);
  Die(rec.status(), "find");
  std::printf("node %u at (%.2f, %.2f), payload %zu bytes\n", rec->id,
              rec->x, rec->y, rec->payload.size());
  std::printf("  successors:");
  for (const AdjEntry& e : rec->succ) {
    std::printf(" %u(%.1f)", e.node, e.cost);
  }
  std::printf("\n  predecessors:");
  for (const AdjEntry& e : rec->pred) {
    std::printf(" %u(%.1f)", e.node, e.cost);
  }
  std::printf("\n");
  return 0;
}

int CmdRoute(const Args& args) {
  Network net = LoadNet(args.Require("net"));
  (void)net;
  auto am = OpenFile(args);
  NodeId from = static_cast<NodeId>(args.GetInt("from", 0));
  NodeId to = static_cast<NodeId>(args.GetInt("to", 0));
  auto res = ShortestPathAStar(am.get(), from, to);
  Die(res.status(), "route");
  if (!res->Found()) {
    std::fprintf(stderr, "no route from %u to %u\n", from, to);
    return 1;
  }
  std::printf("route %u -> %u: cost %.2f, %zu hops, %zu nodes expanded, "
              "%llu data-page accesses\n",
              from, to, res->cost, res->path.size() - 1,
              res->nodes_expanded,
              static_cast<unsigned long long>(res->page_accesses));
  std::printf("  path:");
  for (NodeId id : res->path) std::printf(" %u", id);
  std::printf("\n");
  return 0;
}

int CmdWindow(const Args& args) {
  Network net = LoadNet(args.Require("net"));
  (void)net;
  auto am = OpenFile(args);
  auto engine = SpatialQueryEngine::Build(am.get());
  Die(engine.status(), "build spatial index");
  auto res = (*engine)->WindowQuery(
      args.GetDouble("xmin", 0), args.GetDouble("ymin", 0),
      args.GetDouble("xmax", 0), args.GetDouble("ymax", 0));
  Die(res.status(), "window query");
  std::printf("%zu nodes in window (%llu data-page accesses, %llu index "
              "entries scanned):\n",
              res->records.size(),
              static_cast<unsigned long long>(res->data_page_accesses),
              static_cast<unsigned long long>(res->entries_scanned));
  for (const NodeRecord& rec : res->records) {
    std::printf("  %u (%.1f, %.1f)\n", rec.id, rec.x, rec.y);
  }
  return 0;
}

int CmdReplay(const Args& args) {
  Network net = LoadNet(args.Require("net"));
  (void)net;
  auto am = OpenFile(args);
  auto ops = LoadTrace(args.Require("trace"));
  Die(ops.status(), "load trace");
  ReorgPolicy policy = ReorgPolicy::kFirstOrder;
  std::string p = args.GetString("policy", "first-order");
  if (p == "second-order") policy = ReorgPolicy::kSecondOrder;
  if (p == "higher-order") policy = ReorgPolicy::kHigherOrder;
  auto report = ReplayTrace(am.get(), *ops, policy);
  Die(report.status(), "replay");
  std::fputs(report->ToString().c_str(), stdout);
  return 0;
}

int CmdServe(const Args& args) {
  Network net = LoadNet(args.Require("net"));
  (void)net;
  auto am = OpenFile(args);

  serve::LoadgenOptions load;
  load.tenants = static_cast<uint32_t>(args.GetInt("tenants", 4));
  load.offered_qps = args.GetDouble("qps", 2000.0);
  load.duration_sec = args.GetDouble("duration-ms", 1000.0) * 1e-3;
  load.zipf_theta = args.GetDouble("theta", 0.9);
  load.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  std::vector<serve::ServeRequest> pool =
      serve::BuildRequestPool(am.get(), load);
  if (pool.empty()) {
    std::fprintf(stderr, "serve: empty request pool\n");
    return 1;
  }

  serve::QueryServiceOptions options;
  options.num_workers = static_cast<int>(args.GetInt("workers", 8));
  options.max_queue_depth =
      static_cast<size_t>(args.GetInt("queue-depth", 1024));
  options.tenant_rate = args.GetDouble("rate-limit", 0.0);
  serve::QueryService service(am.get(), options);
  serve::LoadReport report =
      serve::RunLoad(&service, am.get(), pool, load);
  service.Shutdown(/*drain=*/true);

  std::printf(
      "served %llu/%llu requests in %.2fs (%d workers, %u tenants)\n"
      "  qps %.0f, p50 %llu us, p95 %llu us, p99 %llu us\n"
      "  reject rate %.3f, failed %llu, hit rate %.3f\n"
      "  session reads %llu, disk reads %llu, conserved: %s\n",
      static_cast<unsigned long long>(report.completed),
      static_cast<unsigned long long>(report.submitted), report.elapsed_sec,
      service.num_workers(), load.tenants, report.qps,
      static_cast<unsigned long long>(report.p50_us),
      static_cast<unsigned long long>(report.p95_us),
      static_cast<unsigned long long>(report.p99_us), report.reject_rate,
      static_cast<unsigned long long>(report.failed),
      report.hit_rate,
      static_cast<unsigned long long>(report.session_reads),
      static_cast<unsigned long long>(report.disk_reads),
      report.conserved ? "yes" : "NO");
  return report.conserved && report.completed > 0 ? 0 : 1;
}

int CmdShard(const Args& args) {
  Network net = LoadNet(args.Require("net"));
  long shards = args.GetInt("shards", 4);
  if (shards < 1 || (shards & (shards - 1)) != 0) {
    std::fprintf(stderr, "shard: --shards must be a power of two >= 1\n");
    return 2;
  }
  ShardedOptions sopts;
  sopts.num_shards = static_cast<uint32_t>(shards);
  sopts.am = OptionsFrom(args);
  ShardedNetworkFile sharded(sopts);
  Die(sharded.Create(net), "create shards");

  Ccam baseline(sopts.am, CcamCreateMode::kStatic);
  Die(baseline.Create(net), "create baseline");

  int count = static_cast<int>(args.GetInt("routes", 64));
  std::vector<Route> routes = GenerateShortestPathRoutes(
      net, count, /*min_length=*/4, sopts.am.seed);
  auto session = sharded.OpenSession();
  auto oracle = baseline.OpenSession();
  size_t mismatches = 0;
  size_t multi = 0;
  for (const Route& route : routes) {
    auto got = EvaluateRoute(session.get(), route);
    auto want = EvaluateRoute(oracle.get(), route);
    Die(got.status(), "sharded route");
    Die(want.status(), "baseline route");
    if (sharded.router().PlanFor(route.nodes).shards.size() > 1) ++multi;
    if (got->total_cost != want->total_cost ||
        got->num_edges != want->num_edges) {
      ++mismatches;
    }
  }

  std::printf("%u shards over %zu nodes / %zu edges "
              "(%llu directed cut edges)\n",
              sharded.num_shards(), net.NumNodes(), net.NumEdges(),
              static_cast<unsigned long long>(sharded.NumCutEdges()));
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    std::printf("  shard %u: %zu owned, %zu halo, %zu pages, "
                "%llu session reads\n",
                s, sharded.router().OwnedBy(s).size(),
                sharded.NumHaloRecords(s), sharded.shard(s)->NumDataPages(),
                static_cast<unsigned long long>(
                    session->ShardIoStats(s).reads));
  }
  std::printf("%d routes evaluated (%zu cross-shard), %llu cut crossings, "
              "%zu mismatches vs unsharded\n",
              count, multi,
              static_cast<unsigned long long>(session->CutCrossings()),
              mismatches);
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "shard: %zu routes disagreed with the unsharded file\n",
                 mismatches);
    return 1;
  }
  return 0;
}

int Usage() {
  std::fputs(
      "usage: ccam_cli <generate|create|stats|find|route|window|replay|"
      "serve|shard> [--flag value ...]\n"
      "see the header comment of tools/ccam_cli.cc for details\n",
      stderr);
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  // Reject unknown subcommands before flag parsing, so a typo'd command
  // reports itself instead of a confusing flag error (and always exits 2).
  static const char* kCommands[] = {"generate", "create", "stats",
                                    "find",     "route",  "window",
                                    "replay",   "serve",  "shard"};
  bool known = false;
  for (const char* c : kCommands) known = known || cmd == c;
  if (!known) {
    std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
    return Usage();
  }
  Args args(argc, argv);
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "create") return CmdCreate(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "find") return CmdFind(args);
  if (cmd == "route") return CmdRoute(args);
  if (cmd == "window") return CmdWindow(args);
  if (cmd == "replay") return CmdReplay(args);
  if (cmd == "serve") return CmdServe(args);
  return CmdShard(args);
}

}  // namespace
}  // namespace cli
}  // namespace ccam

int main(int argc, char** argv) { return ccam::cli::Main(argc, argv); }
