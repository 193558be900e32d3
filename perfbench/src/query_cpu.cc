// query_cpu: closed loop, one QuerySession per client thread, no serve
// layer. Both pools hold the whole file and reads have no simulated
// latency, so operator compute, record decode and pool-hit latching decide
// the result.
#include <algorithm>
#include <optional>
#include <thread>

#include "perfbench/src/common.h"
#include "src/common/metrics.h"
#include "src/core/query_session.h"
#include "src/partition/partition.h"

namespace perfbench {
namespace {

using ccam::serve::ServeRequest;

/// Pages in each pool: more than the data file and the overlay of the
/// kMapSide map ever use, so every page is a hit once warm.
constexpr size_t kWholeFilePages = 4096;

/// Client threads. One: with three, the clients slowed each other down
/// (p50 93 us against 55 us alone on a 4-vCPU host) by an amount that
/// changed from run to run with how the host placed them, and the latency
/// tail spread by a quarter over ten runs.
constexpr int kClients = 1;

/// Bound on one client's calls of one operation per second, for reserving
/// sample storage (about 6,000 calls of all kinds run per second).
constexpr double kMaxOpsPerSecond = 20000.0;

/// What one client thread measured.
struct ClientResult {
  /// (completion ns, latency us) of OK calls, by operation. The latency
  /// is the CPU time the client thread spent in the call (ThreadCpuNs):
  /// with no simulated I/O the call never waits off the CPU except when
  /// the host takes the CPU away, which wall time would count.
  std::vector<std::pair<uint64_t, double>> latency_us[4];
  OutcomeCounts outcomes;
  uint64_t expanded[4] = {};
  ccam::IoStats io, hier_io;
  uint64_t op_ns = 0;  // time inside operator calls (traced only)
  uint64_t core_calls[TimedAccess::kCalls] = {};
  uint64_t core_ns[TimedAccess::kCalls] = {};
  SpanLog spans;
};

struct Phase {
  std::vector<ClientResult> clients;
  uint64_t start_ns = 0, end_ns = 0;
  StealLog steal;
  uint64_t disk_reads = 0;
  uint64_t pool_hits = 0, pool_misses = 0;

  uint64_t ok() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c.outcomes.ok;
    return n;
  }
  /// OK completions per second (QuietRate).
  double Rate() const {
    std::vector<uint64_t> done;
    for (const auto& c : clients) {
      for (const auto& v : c.latency_us) {
        for (const auto& [t, us] : v) done.push_back(t);
      }
    }
    return QuietRate(done, start_ns, end_ns, steal);
  }
  /// Latency summary of operation `op` (-1 = all) across clients.
  LatencySummary Summary(int op = -1) const {
    std::vector<uint64_t> times;
    const std::vector<double> v = Latencies(op, &times);
    return Summarize(v, times, steal);
  }
  /// Latencies of operation `op` (-1 = all) across clients, in time order,
  /// with their completion times.
  std::vector<double> Latencies(int op, std::vector<uint64_t>* times) const {
    std::vector<std::pair<uint64_t, double>> all;
    for (const auto& c : clients) {
      for (int k = 0; k < 4; ++k) {
        if (op < 0 || op == k) {
          all.insert(all.end(), c.latency_us[k].begin(), c.latency_us[k].end());
        }
      }
    }
    std::sort(all.begin(), all.end());
    std::vector<double> out;
    out.reserve(all.size());
    for (const auto& [t, us] : all) {
      out.push_back(us);
      times->push_back(t);
    }
    return out;
  }
};

Phase RunClients(ccam::Ccam* file, const std::vector<ServeRequest>& requests,
                 const std::vector<Answer>& oracle, int threads,
                 double seconds, bool traced) {
  Phase phase;
  phase.clients.resize(threads);
  const ccam::IoStats disk_before = file->DataIoStats();
  const auto pool_before = file->buffer_pool()->GetCounters();
  // Stopped (joined) before `phase` is returned, which may move it.
  std::optional<StealSampler> sampler(std::in_place, &phase.steal);
  phase.start_ns = NowNs();
  const uint64_t end_ns =
      phase.start_ns + static_cast<uint64_t>(seconds * 1e9);
  phase.end_ns = end_ns;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ClientResult& me = phase.clients[t];
      // Room for every sample up front: a vector that doubled mid-run
      // would move the peak resident set by whether it crossed a power
      // of two.
      for (auto& v : me.latency_us) {
        v.reserve(static_cast<size_t>(seconds * kMaxOpsPerSecond));
      }
      auto session = file->OpenSession();
      TimedAccess timed(session.get());
      if (traced) timed.AttachSpans(&me.spans);
      ccam::AccessMethod* am =
          traced ? static_cast<ccam::AccessMethod*>(&timed) : session.get();
      size_t i = requests.size() * t / threads;
      uint64_t seq = 0;
      // Left on one virtual CPU, a single client's throughput spread 0.30
      // over ten runs.
      const CpuRotation rotation(kRotateNs);
      while (NowNs() < end_ns) {
        const ServeRequest& r = requests[i];
        const int op = OpIndex(r.op);
        CallDetail detail;
        int64_t span = -1;
        const uint64_t req_id = (static_cast<uint64_t>(t) << 40) | seq++;
        const uint64_t a = NowNs();
        const uint64_t cpu_a = ThreadCpuNs();
        if (traced) {
          span = me.spans.Add({req_id, kOpNames[op], a, a, -1});
          timed.SetParent(req_id, span);
        }
        Answer got = ExecuteDirect(am, r, &detail);
        const uint64_t cpu_b = ThreadCpuNs();
        const uint64_t b = NowNs();
        me.spans.End(span, b);
        if (traced) me.op_ns += b - a;
        const Outcome o =
            Classify(got.status, got.status.ok() && SameAnswer(got, oracle[i]));
        me.outcomes.Add(o);
        if (!got.status.ok()) LogFailed(kOpNames[op], got.status);
        if (o == Outcome::kOk) {
          me.latency_us[op].emplace_back(
              b, static_cast<double>(cpu_b - cpu_a) / 1e3);
          me.expanded[op] += detail.expanded;
        }
        if (++i == requests.size()) i = 0;
      }
      me.io = session->DataIoStats();
      me.hier_io = session->HierarchyIoStats();
      for (int c = 0; c < TimedAccess::kCalls; ++c) {
        me.core_calls[c] = timed.calls(static_cast<TimedAccess::Call>(c));
        me.core_ns[c] = timed.ns(static_cast<TimedAccess::Call>(c));
      }
    });
  }
  for (auto& th : pool) th.join();
  sampler.reset();
  phase.disk_reads = (file->DataIoStats() - disk_before).reads;
  const auto pool_after = file->buffer_pool()->GetCounters();
  phase.pool_hits = pool_after.hits - pool_before.hits;
  phase.pool_misses = pool_after.misses - pool_before.misses;
  return phase;
}

}  // namespace

void RunQueryCpu(const Args& args, Report* report) {
  const ccam::Network net = MakeMap();
  report->Stamp("map_nodes", std::to_string(net.NumNodes()));
  const int threads = kClients;
  report->Stamp("clients", std::to_string(threads));
  report->Stamp("pool_pages", std::to_string(kWholeFilePages) +
                                  " data + overlay (whole file)");
  report->Stamp("read_latency_us", "0");

  ccam::AccessMethodOptions o;
  o.page_size = kPageSize;
  o.buffer_pool_pages = kWholeFilePages;
  BuiltFile built =
      BuildServingFile(net, o, args.work_dir + "/query_cpu.img", report);
  if (built.file == nullptr) return;
  ccam::Ccam* file = built.file.get();
  report->Set("setup_s", built.setup_s, "s");
  report->Set("core.create_s", built.median.create_s, "s");
  report->Set("core.overlay_build_s", built.median.overlay_build_s, "s");
  report->Set("core.open_s", built.median.open_s, "s");
  report->Set("core.crr", ccam::ComputeCrr(net, file->PageMap()), "ratio");
  report->Set("core.data_pages", static_cast<double>(file->NumDataPages()),
              "count");
  report->Set("space_bytes_per_node",
              static_cast<double>((file->NumDataPages() +
                                   file->hierarchy()->NumPages()) *
                                  kPageSize) /
                  static_cast<double>(file->NumLiveNodes()),
              "B");

  RequestOptions ro;
  ro.count = 4096;
  ro.mix = {0.3, 0.1, 0.3, 0.3};
  ro.walk_hops = 64;
  ro.uniform_od = true;
  ro.od_min = 1500.0;  // 15 to 25 blocks apart on the 100-unit grid
  ro.od_max = 2500.0;
  const auto requests = MakeRequests(net, ro, args.seed * 7919 + 3);

  // Oracle: a serial pass on a second instance of the image with the
  // default 8-page pools, cold. Its data-page reads per query are the
  // paper's cost metric for this query mix (the timed phase itself reads
  // nothing once its whole-file pools are warm).
  std::vector<Answer> oracle;
  std::vector<double> pages_by_op[4];
  uint64_t oracle_reads = 0;
  {
    ccam::AccessMethodOptions small;
    small.page_size = kPageSize;
    auto cold = OpenImage(built.image_path, small);
    if (cold == nullptr) {
      report->Fail("oracle: cannot open image");
      return;
    }
    auto session = cold->OpenSession();
    const ccam::IoStats disk_before = cold->DataIoStats();
    for (const ServeRequest& r : requests) {
      CallDetail d;
      oracle.push_back(ExecuteDirect(session.get(), r, &d));
      pages_by_op[OpIndex(r.op)].push_back(static_cast<double>(d.page_accesses));
      if (!oracle.back().status.ok()) {
        report->Fail("oracle: " + oracle.back().status.ToString());
        return;
      }
    }
    oracle_reads = session->DataIoStats().reads;
    if (oracle_reads != (cold->DataIoStats() - disk_before).reads) {
      report->Fail("IoStats conservation (oracle pass)");
    }
  }
  report->Set("page_reads_per_query",
              static_cast<double>(oracle_reads) / requests.size(), "count");
  for (int op = 0; op < 4; ++op) {
    double sum = 0.0;
    for (double v : pages_by_op[op]) sum += v;
    report->Set(std::string("query.") + kOpNames[op] + ".page_accesses",
                pages_by_op[op].empty() ? 0.0 : sum / pages_by_op[op].size(),
                "count");
  }

  // Warm both pools with one serial pass.
  {
    auto session = file->OpenSession();
    for (const ServeRequest& r : requests) (void)ExecuteDirect(session.get(), r);
  }

  const double measure_s = args.seconds * (args.trace ? 0.5 : 1.0);
  Phase phase = RunClients(file, requests, oracle, threads, measure_s, false);
  // Read before the summaries below make their sorted copies.
  const double peak_rss_mb = PeakRssMiB();
  uint64_t session_reads = 0;
  for (const auto& c : phase.clients) {
    report->outcomes.Merge(c.outcomes);
    session_reads += c.io.reads;
  }
  if (session_reads != phase.disk_reads) {
    report->Fail("IoStats conservation: session reads " +
                 std::to_string(session_reads) + " != disk reads " +
                 std::to_string(phase.disk_reads));
  }
  if (report->outcomes.mismatch > 0) report->Fail("oracle mismatch");
  const LatencySummary lat = phase.Summary();
  if (!SupportsPercentile(lat.n, 0.99)) report->Fail("too few samples");
  report->Set("query_p50_us", lat.p50, "us");
  report->Set("query_p99_us", lat.p99, "us");
  const double qps = phase.Rate();
  report->Set("throughput_qps", qps, "1/s");
  report->Set("capacity_qps", qps, "1/s");
  report->Set("ok_share", 1.0 - report->outcomes.failed_share(), "ratio");
  report->Set("failed_share", report->outcomes.failed_share(), "ratio");
  const double hits = static_cast<double>(phase.pool_hits);
  const double total = hits + static_cast<double>(phase.pool_misses);
  report->Set("storage.pool.hit_rate", total == 0 ? 0.0 : hits / total,
              "ratio");
  uint64_t hier_reads = 0;
  for (const auto& c : phase.clients) hier_reads += c.hier_io.reads;
  report->Set("storage.hier.reads_per_query",
              static_cast<double>(hier_reads) /
                  std::max<double>(1.0, phase.ok()),
              "count");
  for (int op = 0; op < 4; ++op) {
    const LatencySummary s = phase.Summary(op);
    uint64_t expanded = 0;
    for (const auto& c : phase.clients) expanded += c.expanded[op];
    const std::string base = std::string("query.") + kOpNames[op];
    report->Set(base + ".p50_us", s.p50, "us");
    report->Set(base + ".p99_us", s.p99, "us");
    if (op == 1 || op == 2) {
      report->Set(base + ".expanded",
                  s.n == 0 ? 0.0 : static_cast<double>(expanded) / s.n,
                  "count");
    }
  }

  if (args.trace) {
    ccam::MetricsRegistry reg;
    file->SetMetrics(&reg);
    Phase traced = RunClients(file, requests, oracle, threads, measure_s, true);
    file->SetMetrics(nullptr);
    uint64_t op_ns = 0, calls = 0, core_ns = 0, queries = 0;
    uint64_t calls_by[TimedAccess::kCalls] = {};
    uint64_t ns_by[TimedAccess::kCalls] = {};
    std::vector<const SpanLog*> logs;
    for (const auto& c : traced.clients) {
      report->outcomes.Merge(c.outcomes);
      op_ns += c.op_ns;
      queries += c.outcomes.attempted();
      for (int k = 0; k < TimedAccess::kCalls; ++k) {
        calls_by[k] += c.core_calls[k];
        ns_by[k] += c.core_ns[k];
        calls += c.core_calls[k];
        core_ns += c.core_ns[k];
      }
      logs.push_back(&c.spans);
    }
    if (report->outcomes.mismatch > 0) report->Fail("oracle mismatch (traced)");
    for (int k = 0; k < TimedAccess::kCalls; ++k) {
      report->Set(std::string(TimedAccess::kCallNames[k]) + ".ns",
                  calls_by[k] == 0 ? 0.0
                                   : static_cast<double>(ns_by[k]) / calls_by[k],
                  "ns");
    }
    report->Set("core.calls_per_query",
                static_cast<double>(calls) / std::max<uint64_t>(queries, 1),
                "count");
    report->Set("query.self_share",
                op_ns == 0 ? 0.0
                           : 1.0 - static_cast<double>(core_ns) / op_ns,
                "ratio");
    report->Set("storage.pool.evictions_per_query",
                reg.GetCounter("buffer_pool.eviction")->value() /
                    std::max<double>(1.0, traced.ok()),
                "count");
    const double p50_untraced = lat.p50;
    const double p50_traced = traced.Summary().p50;
    report->Set("trace.overhead_pct",
                p50_untraced > 0 ? 100.0 * (p50_traced / p50_untraced - 1.0)
                                 : 0.0,
                "%");
    WriteTrace(args.work_dir + "/trace_query_cpu.json", logs);
  }
  report->Set("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace perfbench
