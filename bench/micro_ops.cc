// Wall-clock microbenchmarks (google-benchmark) for the core operations.
//
// The paper's metric is page accesses, not time; these benchmarks cover
// the CPU side the paper leaves to future work ("the CPU cost for
// reorganization should be taken into account"): operation latency per
// access method, clustering cost per partitioner, and reorganization cost
// per policy.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/partition/recursive_bisection.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/storage/page.h"

namespace ccam {
namespace bench {
namespace {

std::unique_ptr<NetworkFile> BuildAm(Method m, size_t page_size = 1024) {
  AccessMethodOptions options;
  options.page_size = page_size;
  options.buffer_pool_pages = 8;
  auto am = MakeMethod(m, options);
  Network net = PaperNetwork();
  Status s = am->Create(net);
  if (!s.ok()) std::abort();
  return am;
}

void BM_Find(benchmark::State& state) {
  auto am = BuildAm(static_cast<Method>(state.range(0)));
  Random rng(1);
  Network net = PaperNetwork();
  auto ids = net.NodeIds();
  for (auto _ : state) {
    NodeId id = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    auto rec = am->Find(id);
    benchmark::DoNotOptimize(rec);
  }
}
BENCHMARK(BM_Find)
    ->Arg(static_cast<int>(Method::kCcamS))
    ->Arg(static_cast<int>(Method::kDfs))
    ->Arg(static_cast<int>(Method::kBfs))
    ->Arg(static_cast<int>(Method::kGrid));

void BM_GetSuccessors(benchmark::State& state) {
  auto am = BuildAm(static_cast<Method>(state.range(0)));
  Random rng(2);
  Network net = PaperNetwork();
  auto ids = net.NodeIds();
  for (auto _ : state) {
    NodeId id = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    auto succ = am->GetSuccessors(id);
    benchmark::DoNotOptimize(succ);
  }
}
BENCHMARK(BM_GetSuccessors)
    ->Arg(static_cast<int>(Method::kCcamS))
    ->Arg(static_cast<int>(Method::kBfs));

void BM_RouteEvaluation(benchmark::State& state) {
  auto am = BuildAm(static_cast<Method>(state.range(0)));
  Network net = PaperNetwork();
  auto routes = GenerateRandomWalkRoutes(net, 64, 30, 5);
  size_t i = 0;
  for (auto _ : state) {
    auto res = EvaluateRoute(am.get(), routes[i++ % routes.size()]);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_RouteEvaluation)
    ->Arg(static_cast<int>(Method::kCcamS))
    ->Arg(static_cast<int>(Method::kBfs));

void BM_InsertDeleteCycle(benchmark::State& state) {
  auto am = BuildAm(Method::kCcamS);
  Network net = PaperNetwork();
  auto ids = net.NodeIds();
  Random rng(3);
  ReorgPolicy policy = static_cast<ReorgPolicy>(state.range(0));
  for (auto _ : state) {
    NodeId id = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    auto rec = am->Find(id);
    if (!rec.ok()) continue;
    Status s1 = am->DeleteNode(id, policy);
    Status s2 = am->InsertNode(*rec, policy);
    benchmark::DoNotOptimize(s1);
    benchmark::DoNotOptimize(s2);
  }
}
BENCHMARK(BM_InsertDeleteCycle)
    ->Arg(static_cast<int>(ReorgPolicy::kFirstOrder))
    ->Arg(static_cast<int>(ReorgPolicy::kSecondOrder))
    ->Arg(static_cast<int>(ReorgPolicy::kHigherOrder));

void BM_ClusterNodesIntoPages(benchmark::State& state) {
  Network net = PaperNetwork();
  ClusterOptions options;
  options.page_capacity = 1024 - SlottedPage::kHeaderSize;
  options.per_record_overhead = SlottedPage::kSlotOverhead;
  options.algorithm = static_cast<PartitionAlgorithm>(state.range(0));
  for (auto _ : state) {
    auto pages = ClusterNodesIntoPages(net, net.NodeIds(), options);
    benchmark::DoNotOptimize(pages);
  }
}
BENCHMARK(BM_ClusterNodesIntoPages)
    ->Arg(static_cast<int>(PartitionAlgorithm::kRatioCut))
    ->Arg(static_cast<int>(PartitionAlgorithm::kFm))
    ->Arg(static_cast<int>(PartitionAlgorithm::kKl))
    ->Arg(static_cast<int>(PartitionAlgorithm::kRandom))
    ->Unit(benchmark::kMillisecond);

void BM_StaticCreate(benchmark::State& state) {
  Network net = PaperNetwork();
  for (auto _ : state) {
    AccessMethodOptions options;
    options.page_size = static_cast<size_t>(state.range(0));
    Ccam am(options, CcamCreateMode::kStatic);
    Status s = am.Create(net);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_StaticCreate)->Arg(512)->Arg(1024)->Arg(4096)->Unit(
    benchmark::kMillisecond);

// --- Search core (4-ary heap + open addressing) ---------------------------

void BM_DijkstraCore(benchmark::State& state) {
  AccessMethodOptions options;
  options.page_size = 1024;
  // A pool big enough to hold the file keeps the loop CPU-bound: the
  // benchmark measures the search core, not the pager.
  options.buffer_pool_pages = 256;
  Ccam am(options, CcamCreateMode::kStatic);
  Network net = PaperNetwork();
  if (!am.Create(net).ok()) std::abort();
  auto ids = net.NodeIds();
  Random rng(4);
  for (auto _ : state) {
    NodeId src = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    NodeId dst = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    auto res = ShortestPathDijkstra(&am, src, dst);
    benchmark::DoNotOptimize(res);
  }
}
// The Arg keeps the recorded series name, BM_DijkstraCore/1.
BENCHMARK(BM_DijkstraCore)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace ccam

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to the repository
// root's BENCH_micro_ops.json (google-benchmark's own JSON schema) so this
// target emits a machine-readable artifact alongside the TablePrinter
// benches. Explicit --benchmark_out flags win.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=" + ccam::bench::BenchJsonDir() +
                         "/BENCH_micro_ops.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  std::vector<char*> args(argv, argv + argc);
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
