// Benchmark program: runs one named workload, checks every answer, and
// prints the run-condition stamp followed by one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --names <name:unit,...> [--commit <id>] [--work-dir <dir>]
//
// --names lists the metrics to print with their units (BENCHMARK.json's
// end_to_end metrics for --trace 0, its per_layer metrics for --trace 1).
// A missing end-to-end metric, or one measured in another unit, fails the
// run; a per-layer metric whose layer the workload does not exercise
// prints as 0.
#include <malloc.h>
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::vector<perfbench::MetricSpec> SplitNames(const std::string& s) {
  std::vector<perfbench::MetricSpec> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    const size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0) return {};
    out.push_back({item.substr(0, colon), item.substr(colon + 1)});
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_hotspot|query_cpu|snapshot_rw|shard_routes --seed N "
               "--seconds S --trace 0|1 --names name:unit,... [--commit ID] "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to run an assert-enabled build (no "
               "NDEBUG); configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif
  perfbench::Args args;
  std::vector<perfbench::MetricSpec> names;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0.0) return Usage("bad --seconds");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else if (key == "--names") {
      names = SplitNames(value);
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags come in pairs");
  if (names.empty()) return Usage("--names is required");

  void (*run)(const perfbench::Args&, perfbench::Report*) = nullptr;
  if (args.workload == "serve_hotspot") run = perfbench::RunServeHotspot;
  if (args.workload == "query_cpu") run = perfbench::RunQueryCpu;
  if (args.workload == "snapshot_rw") run = perfbench::RunSnapshotRw;
  if (args.workload == "shard_routes") run = perfbench::RunShardRoutes;
  if (run == nullptr) return Usage("unknown --workload");

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage("cannot create --work-dir");

  // Sleeps (the simulated disk's read latency, the open-loop generator)
  // overshoot by the thread's timer slack, 50 us by default. Threads
  // inherit it at creation, so setting it here covers the service's
  // workers too.
  const bool slack_set = prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0) == 0;

  // glibc gives threads arenas of their own, made as threads first
  // allocate and kept after they exit, and how much each arena holds
  // depends on how the host happened to schedule the threads: with them,
  // snapshot_rw's peak_rss_mb spread 0.11 over four runs. One arena makes
  // the peak follow what the program allocates (spread 0.02). Set before
  // any thread starts.
  const bool one_arena = mallopt(M_ARENA_MAX, 1) == 1;

  perfbench::Report report;
  report.Stamp("timer_slack_ns", slack_set ? "1" : "default");
  report.Stamp("malloc_arenas", one_arena ? "1" : "default");
  report.Stamp("cpu_rotation_ms",
               std::to_string(perfbench::kRotateNs / 1000000) +
                   " (single-threaded CPU work moves round the CPUs)");
  report.Stamp("workload", args.workload);
  report.Stamp("seed", std::to_string(args.seed));
  report.Stamp("seconds", std::to_string(args.seconds));
  report.Stamp("trace", args.trace ? "1" : "0");
  report.Stamp("build_type", PERFBENCH_BUILD_TYPE " (NDEBUG)");
  report.Stamp("nproc", std::to_string(perfbench::HostCores()));
  report.Stamp("commit", args.commit);
  report.Stamp("page_size", std::to_string(perfbench::kPageSize));
  report.Stamp("map", std::to_string(perfbench::kMapSide) + "x" +
                          std::to_string(perfbench::kMapSide) +
                          " GenerateRoadMap grid, map seed " +
                          std::to_string(perfbench::kMapSeed));
  report.Stamp("flush_policy",
               "delta log acknowledges at fflush without fsync; the "
               "simulated disk is in memory and its read latency a sleep. "
               "Numbers are this sandbox's, not a device's.");
  run(args, &report);

  if (args.trace) {
    for (const perfbench::MetricSpec& m : names) {
      if (!report.Has(m.name)) report.Set(m.name, 0.0, m.unit);
    }
  }
  report.Print(names);
  return report.correct() ? 0 : 1;
}
