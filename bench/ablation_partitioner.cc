// Ablation: the two-way partitioner behind cluster-nodes-into-pages.
//
// The paper adopts Cheng & Wei's ratio-cut "as the basis for our
// connectivity based clustering method" and notes that "other graph
// partitioning methods can also be used" and that "M-way partitioning may
// be used to further improve the result". This ablation quantifies those
// choices: CRR, page count and clustering wall-clock for ratio-cut / FM /
// KL / random, each with and without a pairwise M-way refinement pass.
// A second table sweeps the clustering thread count per partitioner
// (assignments are bit-identical at every count, so only time varies).
// BENCH_ablation_partitioner.json holds counts only (CRR, pages, the
// "same pages" flag); the wall-clock columns go to stdout, so two runs'
// artifacts diff exactly.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/partition/recursive_bisection.h"
#include "src/storage/page.h"

namespace ccam {
namespace bench {
namespace {

NodePageMap ToMap(const std::vector<std::vector<NodeId>>& pages) {
  NodePageMap map;
  for (size_t p = 0; p < pages.size(); ++p) {
    for (NodeId id : pages[p]) map[id] = static_cast<PageId>(p);
  }
  return map;
}

int Run() {
  Network net = PaperNetwork();
  std::printf("Ablation: partitioning heuristic behind "
              "cluster-nodes-into-pages (block = 1 KiB)\n\n");

  BenchJsonWriter json("ablation_partitioner");
  TablePrinter table({"Partitioner", "CRR", "+refined CRR", "pages",
                      "cluster ms", "refine ms"});
  for (PartitionAlgorithm algo :
       {PartitionAlgorithm::kRatioCut, PartitionAlgorithm::kFm,
        PartitionAlgorithm::kKl, PartitionAlgorithm::kRandom}) {
    ClusterOptions options;
    options.page_capacity = 1024 - SlottedPage::kHeaderSize;
    options.per_record_overhead = SlottedPage::kSlotOverhead;
    options.algorithm = algo;
    options.seed = 42;

    auto t0 = std::chrono::steady_clock::now();
    auto pages = ClusterNodesIntoPages(net, net.NodeIds(), options);
    auto t1 = std::chrono::steady_clock::now();
    if (!pages.ok()) {
      std::fprintf(stderr, "clustering failed: %s\n",
                   pages.status().ToString().c_str());
      return 1;
    }
    double crr = ComputeCrr(net, ToMap(*pages));

    std::vector<std::vector<NodeId>> refined = *pages;
    auto t2 = std::chrono::steady_clock::now();
    RefinePagesPairwise(net, &refined, options, 2);
    auto t3 = std::chrono::steady_clock::now();
    double crr_refined = ComputeCrr(net, ToMap(refined));

    auto ms = [](auto a, auto b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    table.AddRow({PartitionAlgorithmName(algo), Fmt(crr, 4),
                  Fmt(crr_refined, 4), std::to_string(pages->size()),
                  Fmt(ms(t0, t1), 1), Fmt(ms(t2, t3), 1)});
  }
  table.Print();
  json.AddTable("partitioners", table, {"cluster ms", "refine ms"});
  std::printf(
      "\nExpected shape: ratio-cut and FM well above random; pairwise "
      "refinement never hurts and mostly helps; random clustering is the "
      "floor.\n");

  // Thread sweep: cluster + refine wall-clock per partitioner. The pages
  // are identical at every thread count by construction; the "same" column
  // verifies that rather than assuming it.
  const std::vector<int> thread_counts = BenchThreadCounts();
  std::vector<std::string> sweep_ms_headers;
  for (int t : thread_counts) {
    sweep_ms_headers.push_back("t=" + std::to_string(t) + " ms");
  }
  TablePrinter threads_table([&] {
    std::vector<std::string> headers = {"Partitioner"};
    headers.insert(headers.end(), sweep_ms_headers.begin(),
                   sweep_ms_headers.end());
    headers.push_back("same pages");
    return headers;
  }());
  for (PartitionAlgorithm algo :
       {PartitionAlgorithm::kRatioCut, PartitionAlgorithm::kFm,
        PartitionAlgorithm::kKl, PartitionAlgorithm::kRandom}) {
    ClusterOptions options;
    options.page_capacity = 1024 - SlottedPage::kHeaderSize;
    options.per_record_overhead = SlottedPage::kSlotOverhead;
    options.algorithm = algo;
    options.seed = 42;

    std::vector<std::string> row = {PartitionAlgorithmName(algo)};
    std::vector<std::vector<NodeId>> reference;
    bool identical = true;
    for (int threads : thread_counts) {
      options.num_threads = threads;
      auto t0 = std::chrono::steady_clock::now();
      auto pages = ClusterNodesIntoPages(net, net.NodeIds(), options);
      if (!pages.ok()) {
        row.push_back("fail");
        identical = false;
        continue;
      }
      RefinePagesPairwise(net, &*pages, options, 2);
      auto t1 = std::chrono::steady_clock::now();
      row.push_back(
          Fmt(std::chrono::duration<double, std::milli>(t1 - t0).count(), 1));
      if (reference.empty()) {
        reference = std::move(*pages);
      } else if (*pages != reference) {
        identical = false;
      }
    }
    row.push_back(identical ? "yes" : "NO");
    threads_table.AddRow(std::move(row));
  }
  std::printf("\nCluster + refine wall-clock vs thread count "
              "(CCAM_BENCH_THREADS to override)\n\n");
  threads_table.Print();
  json.AddTable("thread_sweep", threads_table, sweep_ms_headers);
  std::printf(
      "\nSpeedup requires real cores; on a single-CPU host the sweep "
      "demonstrates the determinism contract only.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ccam

int main() { return ccam::bench::Run(); }
