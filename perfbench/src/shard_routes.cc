// shard_routes: closed loop, one client thread, over a 4-shard
// ShardedNetworkFile with an 8-page pool per shard. Long walks run through
// EvaluateRouteSharded / AggregateRouteUnitSharded and A* runs on the
// facade session; every answer is checked against the unsharded file.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "perfbench/src/common.h"
#include "src/common/metrics.h"
#include "src/partition/partition.h"
#include "src/query/search.h"
#include "src/shard/shard_query.h"
#include "src/shard/sharded_network_file.h"

namespace perfbench {
namespace {

using ccam::serve::ServeOp;
using ccam::serve::ServeRequest;

constexpr uint32_t kShards = 4;
constexpr size_t kShardPoolPages = 8;
/// Simulated read latency of every shard's disk. Without it the run is a
/// single thread of CPU work, whose speed on this shared host wanders by a
/// quarter from one run to the next; with it the time follows the reads
/// the shard layer makes.
constexpr uint32_t kReadLatencyUs = 50;
/// Stitched routes add per-segment sums, so their costs may differ from
/// the unsharded running sum in the last bits (the repository's own shard
/// oracle compares them within 4 ulps, too).
constexpr double kStitchTolerance = 1e-12;

struct RouteStats {
  uint64_t routes = 0;
  uint64_t fanout_sum = 0;
  uint64_t crossing = 0;     // routes with fanout > 1
  uint64_t crossings = 0;    // cut crossings, summed
  uint64_t page_accesses[4] = {};
  uint64_t count[4] = {};
};

struct Phase {
  std::vector<double> latency_us[4];  // by operation, in time order
  std::vector<double> all_us;         // every operation, in time order
  std::vector<uint64_t> done_ns;      // completion times of OK calls
  uint64_t start_ns = 0, end_ns = 0;
  OutcomeCounts outcomes;
  RouteStats routes;
  ccam::IoStats session_io;
  std::vector<uint64_t> shard_reads;
  uint64_t disk_reads = 0;
  uint64_t op_ns = 0, core_ns = 0;  // A* on the facade: the wrapped calls
  uint64_t core_calls_by[TimedAccess::kCalls] = {};
  uint64_t core_ns_by[TimedAccess::kCalls] = {};
  StealLog steal;
  SpanLog spans;
};

void RunPhase(ccam::ShardedNetworkFile* sharded,
              const std::vector<ServeRequest>& requests,
              const std::vector<Answer>& oracle, double seconds, bool traced,
              Phase* phase) {
  auto session = sharded->OpenSession();
  TimedAccess timed(session.get());
  if (traced) timed.AttachSpans(&phase->spans);
  ccam::AccessMethod* facade =
      traced ? static_cast<ccam::AccessMethod*>(&timed) : session.get();
  const ccam::IoStats disk_before = sharded->DataIoStats();
  StealSampler sampler(&phase->steal);
  phase->start_ns = NowNs();
  const uint64_t end_ns =
      phase->start_ns + static_cast<uint64_t>(seconds * 1e9);
  phase->end_ns = end_ns;
  size_t i = 0;
  uint64_t seq = 0;
  while (NowNs() < end_ns) {
    const ServeRequest& r = requests[i];
    const int op = OpIndex(r.op);
    Answer got;
    uint64_t pages = 0;
    size_t fanout = 0;
    uint64_t crossings = 0;
    const uint64_t a = NowNs();
    int64_t span = -1;
    if (traced) {
      span = phase->spans.Add({seq, kOpNames[op], a, a, -1});
      timed.SetParent(seq, span);
    }
    switch (r.op) {
      case ServeOp::kRouteEval: {
        auto res = ccam::EvaluateRouteSharded(session.get(), r.route);
        if (res.ok()) {
          got.cost = res.value().eval.total_cost;
          got.num_edges = res.value().eval.num_edges;
          pages = res.value().eval.page_accesses;
          fanout = res.value().fanout;
          crossings = res.value().cut_crossings;
        } else {
          got.status = res.status();
        }
        break;
      }
      case ServeOp::kAggregate: {
        auto res =
            ccam::AggregateRouteUnitSharded(session.get(), r.unit, &fanout);
        if (res.ok()) {
          got.cost = res.value().total_edge_cost;
          got.num_edges = res.value().num_edges;
          pages = res.value().page_accesses;
        } else {
          got.status = res.status();
        }
        break;
      }
      default: {
        CallDetail d;
        got = ExecuteDirect(facade, r, &d);
        pages = d.page_accesses;
        break;
      }
    }
    const uint64_t b = NowNs();
    phase->spans.End(span, b);
    if (traced) phase->op_ns += b - a;
    ++seq;
    const bool match = got.status.ok() &&
                       SameAnswer(got, oracle[i], kStitchTolerance);
    const Outcome o = Classify(got.status, match);
    phase->outcomes.Add(o);
    if (!got.status.ok()) LogFailed(kOpNames[op], got.status);
    if (o == Outcome::kMismatch && phase->outcomes.mismatch <= 5) {
      std::fprintf(stderr, "mismatch: request %zu (%s) cost %.17g vs %.17g\n",
                   i, kOpNames[op], got.cost, oracle[i].cost);
    }
    if (o == Outcome::kOk) {
      phase->latency_us[op].push_back(static_cast<double>(b - a) / 1e3);
      phase->all_us.push_back(phase->latency_us[op].back());
      phase->done_ns.push_back(b);
      RouteStats& rs = phase->routes;
      rs.page_accesses[op] += pages;
      ++rs.count[op];
      if (r.op != ServeOp::kAStar) {
        ++rs.routes;
        rs.fanout_sum += fanout;
        if (fanout > 1) ++rs.crossing;
        rs.crossings += crossings;
      }
    }
    if (++i == requests.size()) i = 0;
  }
  phase->session_io = session->DataIoStats();
  phase->disk_reads = (sharded->DataIoStats() - disk_before).reads;
  for (uint32_t s = 0; s < sharded->num_shards(); ++s) {
    phase->shard_reads.push_back(session->ShardIoStats(s).reads);
  }
  phase->core_ns = timed.total_ns();
  for (int k = 0; k < TimedAccess::kCalls; ++k) {
    phase->core_calls_by[k] = timed.calls(static_cast<TimedAccess::Call>(k));
    phase->core_ns_by[k] = timed.ns(static_cast<TimedAccess::Call>(k));
  }
}

}  // namespace

void RunShardRoutes(const Args& args, Report* report) {
  const ccam::Network net = MakeMap();
  report->Stamp("map_nodes", std::to_string(net.NumNodes()));
  report->Stamp("clients", "1");
  report->Stamp("shards", std::to_string(kShards));
  report->Stamp("pool_pages", std::to_string(kShardPoolPages) + " per shard");
  report->Stamp("read_latency_us", std::to_string(kReadLatencyUs));

  ccam::ShardedOptions so;
  so.num_shards = kShards;
  so.am.page_size = kPageSize;
  so.am.buffer_pool_pages = kShardPoolPages;
  so.am.num_threads = 1;
  std::unique_ptr<ccam::ShardedNetworkFile> sharded;
  std::vector<double> builds;
  // The shard builds run on one thread (num_threads = 1).
  std::optional<CpuRotation> rotation(std::in_place, kRotateNs);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sharded.reset();
    auto file = std::make_unique<ccam::ShardedNetworkFile>(so);
    const auto t0 = std::chrono::steady_clock::now();
    const ccam::Status st = file->Create(net);
    builds.push_back(SecondsSince(t0));
    if (!st.ok()) {
      report->Fail("set-up: " + st.ToString());
      return;
    }
    sharded = std::move(file);
  }
  rotation.reset();
  report->Set("setup_s", Median(builds), "s");
  report->Set("shard.build_s", Median(builds), "s");
  report->Set("core.data_pages", static_cast<double>(sharded->NumDataPages()),
              "count");
  report->Set("core.crr", ccam::ComputeCrr(net, sharded->PageMap()), "ratio");
  report->Set("space_bytes_per_node",
              static_cast<double>(sharded->NumDataPages() * kPageSize) /
                  static_cast<double>(sharded->router().NumOwnedNodes()),
              "B");

  RequestOptions ro;
  ro.count = 4096;
  ro.mix = {0.4, 0.2, 0.4, 0.0};
  ro.walk_hops = 64;
  ro.uniform_od = true;
  ro.od_min = 1000.0;  // 10 to 20 blocks apart on the 100-unit grid
  ro.od_max = 2000.0;
  const auto requests = MakeRequests(net, ro, args.seed * 7919 + 4);

  // Oracle: the unsharded file, same page size and pool.
  std::vector<Answer> oracle;
  {
    ccam::Ccam plain(so.am, ccam::CcamCreateMode::kStatic);
    if (!plain.Create(net).ok()) {
      report->Fail("oracle: create failed");
      return;
    }
    auto session = plain.OpenSession();
    for (const ServeRequest& r : requests) {
      oracle.push_back(ExecuteDirect(session.get(), r));
      if (!oracle.back().status.ok()) {
        report->Fail("oracle: " + oracle.back().status.ToString());
        return;
      }
    }
  }

  for (uint32_t s = 0; s < kShards; ++s) {
    sharded->shard(s)->disk()->SetSimulatedReadLatencyMicros(kReadLatencyUs);
  }
  const double measure_s = args.seconds * (args.trace ? 0.5 : 1.0);
  Phase phase;
  RunPhase(sharded.get(), requests, oracle, measure_s, false, &phase);
  report->outcomes.Merge(phase.outcomes);
  if (phase.outcomes.mismatch > 0) report->Fail("mismatch vs unsharded file");
  if (phase.session_io.reads != phase.disk_reads) {
    report->Fail("IoStats conservation: session reads " +
                 std::to_string(phase.session_io.reads) + " != disk reads " +
                 std::to_string(phase.disk_reads));
  }
  const LatencySummary lat =
      Summarize(phase.all_us, phase.done_ns, phase.steal);
  if (!SupportsPercentile(lat.n, 0.99)) report->Fail("too few samples");
  report->Set("query_p50_us", lat.p50, "us");
  report->Set("query_p99_us", lat.p99, "us");
  const double ok = std::max<double>(1.0, phase.outcomes.ok);
  const double qps =
      QuietRate(phase.done_ns, phase.start_ns, phase.end_ns, phase.steal);
  report->Set("throughput_qps", qps, "1/s");
  report->Set("capacity_qps", qps, "1/s");
  report->Set("ok_share", 1.0 - phase.outcomes.failed_share(), "ratio");
  report->Set("failed_share", phase.outcomes.failed_share(), "ratio");
  report->Set("page_reads_per_query", phase.disk_reads / ok, "count");

  const RouteStats& rs = phase.routes;
  const double routes = std::max<double>(1.0, rs.routes);
  report->Set("shard.fanout_mean", rs.fanout_sum / routes, "count");
  report->Set("shard.cross_share", rs.crossing / routes, "ratio");
  report->Set("shard.crossings_per_route", rs.crossings / routes, "count");
  double max_reads = 0.0, sum_reads = 0.0;
  for (uint64_t r : phase.shard_reads) {
    max_reads = std::max(max_reads, static_cast<double>(r));
    sum_reads += static_cast<double>(r);
  }
  report->Set("shard.read_imbalance",
              sum_reads == 0 ? 0.0 : max_reads / (sum_reads / kShards),
              "ratio");
  for (int op = 0; op < 4; ++op) {
    if (rs.count[op] == 0) continue;
    const std::string base = std::string("query.") + kOpNames[op];
    report->Set(base + ".p50_us", PercentileOf(phase.latency_us[op], 0.5),
                "us");
    report->Set(base + ".p99_us", PercentileOf(phase.latency_us[op], 0.99),
                "us");
    report->Set(base + ".page_accesses",
                static_cast<double>(rs.page_accesses[op]) / rs.count[op],
                "count");
  }

  if (args.trace) {
    auto pool_counters = [&] {
      ccam::BufferPool::Counters sum;
      for (uint32_t s = 0; s < sharded->num_shards(); ++s) {
        const auto c = sharded->shard(s)->buffer_pool()->GetCounters();
        sum.hits += c.hits;
        sum.misses += c.misses;
      }
      return sum;
    };
    const auto pool_before = pool_counters();
    ccam::MetricsRegistry reg;
    sharded->SetMetrics(&reg);
    Phase traced;
    RunPhase(sharded.get(), requests, oracle, measure_s, true, &traced);
    sharded->SetMetrics(nullptr);
    report->outcomes.Merge(traced.outcomes);
    if (traced.outcomes.mismatch > 0) report->Fail("mismatch (traced)");
    for (int k = 0; k < TimedAccess::kCalls; ++k) {
      report->Set(std::string(TimedAccess::kCallNames[k]) + ".ns",
                  traced.core_calls_by[k] == 0
                      ? 0.0
                      : static_cast<double>(traced.core_ns_by[k]) /
                            traced.core_calls_by[k],
                  "ns");
    }
    report->Set("query.self_share",
                traced.op_ns == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(traced.core_ns) / traced.op_ns,
                "ratio");
    const double q = std::max<double>(1.0, traced.outcomes.ok);
    report->Set("storage.pool.evictions_per_query",
                reg.GetCounter("buffer_pool.eviction")->value() / q, "count");
    report->Set("storage.disk.read_p50_us",
                static_cast<double>(
                    reg.GetHistogram("disk.read_us")->Percentile(0.5)),
                "us");
    const auto pool_after = pool_counters();
    const uint64_t hits = pool_after.hits - pool_before.hits;
    const uint64_t misses = pool_after.misses - pool_before.misses;
    report->Set("storage.pool.hit_rate",
                hits + misses == 0
                    ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(hits + misses),
                "ratio");
    const double a = lat.p50;
    const double b = Summarize(traced.all_us, traced.done_ns, traced.steal).p50;
    report->Set("trace.overhead_pct", a > 0 ? 100.0 * (b / a - 1.0) : 0.0, "%");
    WriteTrace(args.work_dir + "/trace_shard_routes.json", {&traced.spans});
  }
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace perfbench
