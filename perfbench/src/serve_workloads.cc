// Open-loop workloads through the serving layer:
//   serve_hotspot - QueryService over one CCAM-S file with a CH overlay,
//                   a 64-page pool and a 100 us simulated read latency;
//   snapshot_rw   - QueryService in snapshot mode over a SnapshotManager
//                   store (64-page pools, 100 us simulated reads), beside
//                   one writer and periodic background reorgs.
// Both measure latency in a closed loop with a fixed number of requests in
// flight, then climb a fixed open-loop rate ladder for capacity, timing
// each ladder request from its due time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <optional>
#include <thread>

#include "perfbench/src/common.h"
#include "src/common/metrics.h"
#include "src/partition/partition.h"
#include "src/serve/query_service.h"
#include "src/storage/snapshot_manager.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ccam::IoStats;
using ccam::NodeId;
using ccam::serve::QueryService;
using ccam::serve::QueryServiceOptions;
using ccam::serve::ServeRequest;
using ccam::serve::ServeResponse;
using ccam::serve::ServeTicketPtr;

constexpr size_t kPoolPages = 64;
constexpr uint32_t kReadLatencyUs = 100;
constexpr uint32_t kTenants = 8;
constexpr uint64_t kQueueSampleUs = 20000;
/// The closed-loop nominal phase keeps this many requests in flight per
/// worker: enough to batch, few enough to stay below the knee.
constexpr size_t kOutstandingPerWorker = 2;
/// A phase whose generator ran later than this at p99 is invalid. Lag
/// includes time Submit itself blocks (in snapshot mode it takes the
/// manager's lock, which a publishing reorg holds for milliseconds), so
/// the bound sits above such stalls and catches a starved generator.
constexpr double kMaxGenLagP99Us = 10000.0;
/// snapshot_rw's read percentiles are medians over windows of this length.
/// A reorg starts with every fourth window; the rebuild takes 0.13 to
/// 0.24 s of it, a share that follows the host's speed, and the reads
/// beside it have a p99 two to three times the others'. The median window
/// is one without a rebuild; the rebuild windows' p99 is the per-layer
/// storage.snapshot.rebuild_read_p99_us.
constexpr double kLatencyWindowS = 0.5;

/// Writer of snapshot_rw: inserts pendant nodes, each with one edge into
/// an anchor node, and deletes them again oldest first. Each write changes
/// the anchor's record (its predecessor list), so reads near it go through
/// the version's overlay. No node has a pendant as a successor, so no
/// route, aggregate or shortest path between original nodes changes and
/// every read stays oracle-checkable. (Pendants joined both ways, which
/// readers can reach, expose a race in the overlay; see NOTES.md, "Known
/// open defects".)
class PendantWriter {
 public:
  PendantWriter(ccam::SnapshotManager* manager, const ccam::Network& net,
                std::vector<NodeId> anchors, uint64_t seed)
      : manager_(manager), net_(net), anchors_(std::move(anchors)),
        rng_(seed) {
    for (NodeId id : net.NodeIds()) next_id_ = std::max(next_id_, id + 1);
  }

  /// One write; returns its status and adds its duration to `write_us`.
  ccam::Status Step(std::vector<double>* write_us) {
    const bool insert = live_.size() < kMaxLive && (live_.empty() ||
                                                    rng_.Bernoulli(0.5));
    ccam::Status st;
    const uint64_t t0 = NowNs();
    if (insert) {
      const NodeId anchor =
          anchors_[rng_.Uniform(static_cast<uint32_t>(anchors_.size()))];
      const auto& a = net_.node(anchor);
      ccam::NodeRecord r;
      r.id = next_id_;
      r.x = a.x + 10.0;
      r.y = a.y + 10.0;
      r.payload = std::string(8, '\0');
      r.succ = {{anchor, 20.0f}};
      st = manager_->InsertNode(r);
      write_us->push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (st.ok()) live_.push_back(next_id_++);
    } else {
      st = manager_->DeleteNode(live_.front());
      write_us->push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (st.ok()) live_.pop_front();
    }
    return st;
  }

 private:
  static constexpr size_t kMaxLive = 64;
  ccam::SnapshotManager* manager_;
  const ccam::Network& net_;
  std::vector<NodeId> anchors_;
  ccam::Random rng_;
  NodeId next_id_ = 0;
  std::deque<NodeId> live_;
};

/// What the service runs over, plus the writer and reorg schedule of
/// snapshot_rw.
struct Target {
  ccam::Ccam* file = nullptr;                 // serve_hotspot
  ccam::SnapshotManager* manager = nullptr;   // snapshot_rw
  PendantWriter* writer = nullptr;
  double write_qps = 0.0;
  double reorg_period_s = 0.0;  // 0: no reorgs
  uint32_t read_latency_us = 0;  // snapshot_rw: set on every new version
  int workers = 1;
  ccam::MetricsRegistry* metrics = nullptr;   // traced phases only
  SpanLog* spans = nullptr;                   // traced phases only
};

struct PhaseResult {
  OutcomeCounts outcomes;
  std::vector<double> latency_us;  // OK reads, due time -> completion
  std::vector<uint64_t> ok_due_ns;   // due times of the same OK reads
  std::vector<uint64_t> ok_done_ns;  // and their completion times
  uint64_t start_ns = 0, end_ns = 0;  // the sending interval
  std::vector<double> lag_us;
  std::vector<double> write_us;
  std::vector<size_t> queue_depths;
  std::vector<double> submit_us, queue_wait_us, exec_us, occupancy;
  std::vector<double> reorg_s;
  size_t live_versions_max = 0;
  uint64_t swaps = 0;
  uint64_t delta_log_growth = 0;  // bytes appended by this phase's writes
  size_t backlog_end = 0;
  QueryService::Stats stats;
  IoStats session_io, session_hier_io;
  uint64_t disk_reads = 0;  // file mode: the file's disk-read delta
  StealLog steal;  // sampled with the queue depth
};

/// Gives the manager's current version the simulated read latency. Each
/// reorg publishes a version with a fresh disk, so the sender calls this
/// again when it sees a swap (reads in the moment between a publish and
/// that call, at most one request's wait, run without the latency).
void ApplyReadLatency(ccam::SnapshotManager* manager, uint32_t micros) {
  auto pin = manager->OpenSession();
  pin->version()->file()->disk()->SetSimulatedReadLatencyMicros(micros);
}

QueryServiceOptions ServiceOptions(int workers) {
  QueryServiceOptions o;
  o.num_workers = workers;
  o.max_queue_depth = 4096;
  o.max_batch = 16;
  return o;
}

uint64_t DeltaLogBytes(const ccam::SnapshotManager* m) {
  std::error_code ec;
  const auto size = fs::file_size(m->options().dir + "/delta.log", ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// One phase of `seconds`, sent from this thread (which also runs the
/// writer and the reorg schedule), every OK answer checked. Open loop
/// (`outstanding` = 0): Poisson arrivals at `rate_qps`, latency from each
/// request's due time. Closed loop: `outstanding` requests in flight, the
/// next sent when the oldest completes, latency from its send.
PhaseResult RunPhase(const Target& target,
                     const std::vector<ServeRequest>& requests,
                     const std::vector<Answer>& oracle, double rate_qps,
                     double seconds, ccam::Random* rng,
                     size_t outstanding = 0) {
  PhaseResult res;
  const IoStats disk_before =
      target.file != nullptr ? target.file->DataIoStats() : IoStats{};
  auto service = target.file != nullptr
                     ? std::make_unique<QueryService>(
                           target.file, ServiceOptions(target.workers))
                     : std::make_unique<QueryService>(
                           target.manager, ServiceOptions(target.workers));
  if (target.metrics != nullptr) service->SetMetrics(target.metrics);

  struct Sent {
    ServeTicketPtr ticket;
    uint64_t due_us;
    uint64_t submit_end_us;
    double submit_us;
    uint32_t index;
  };
  // Tickets not yet settled, oldest first. They are settled (checked and
  // recorded, then dropped) as soon as they complete, so the phase holds
  // only the responses in flight rather than every response it received.
  std::deque<Sent> pending;
  uint64_t settled = 0;
  const size_t max_samples = static_cast<size_t>(
      (outstanding > 0 ? 20000.0 : rate_qps) * seconds * 1.3) + 64;
  for (auto* v : {&res.latency_us, &res.lag_us, &res.submit_us,
                  &res.queue_wait_us, &res.exec_us, &res.occupancy}) {
    v->reserve(max_samples);
  }
  res.ok_due_ns.reserve(max_samples);
  res.ok_done_ns.reserve(max_samples);

  auto settle = [&](const Sent& s) {
    const ServeResponse& r = s.ticket->Wait();
    const bool match = r.status.ok() && SameAnswer(FromResponse(r),
                                                   oracle[s.index]);
    const Outcome o = Classify(r.status, match);
    res.outcomes.Add(o);
    if (!r.status.ok()) {
      LogFailed(ccam::serve::ServeOpName(requests[s.index].op), r.status);
    }
    if (o == Outcome::kMismatch && res.outcomes.mismatch <= 5) {
      std::fprintf(stderr, "mismatch: request %u (%s) cost %.9g vs %.9g\n",
                   s.index, ccam::serve::ServeOpName(requests[s.index].op),
                   r.cost, oracle[s.index].cost);
    }
    const uint64_t req = settled++;
    if (o != Outcome::kOk) return;
    res.latency_us.push_back(DueTimeLatencyUs(s.due_us, r.done_us));
    res.ok_due_ns.push_back(s.due_us * 1000);
    res.ok_done_ns.push_back(r.done_us * 1000);
    res.queue_wait_us.push_back(static_cast<double>(r.queue_us));
    const uint64_t exec_start = s.submit_end_us + r.queue_us;
    res.exec_us.push_back(r.done_us > exec_start
                              ? static_cast<double>(r.done_us - exec_start)
                              : 0.0);
    res.occupancy.push_back(static_cast<double>(r.batch_size));
    if (target.spans != nullptr) {
      const int64_t root = target.spans->Add(
          {req, "serve.request", s.due_us * 1000, r.done_us * 1000, -1});
      target.spans->Add({req, "serve.submit",
                         s.submit_end_us * 1000 -
                             static_cast<uint64_t>(s.submit_us * 1e3),
                         s.submit_end_us * 1000, root});
      target.spans->Add({req, "serve.queue", s.submit_end_us * 1000,
                         exec_start * 1000, root});
      target.spans->Add(
          {req, "serve.exec", exec_start * 1000, r.done_us * 1000, root});
    }
  };
  auto settle_done = [&] {
    while (!pending.empty() && pending.front().ticket->done()) {
      settle(pending.front());
      pending.pop_front();
    }
  };

  const uint64_t start = NowUs() + 1000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e6);
  const double mean_gap_us = rate_qps > 0.0 ? 1e6 / rate_qps : 0.0;
  double next_read = static_cast<double>(start);
  double next_write = target.writer != nullptr
                          ? static_cast<double>(start) + 0.5e6 / target.write_qps
                          : HUGE_VAL;
  double next_sample = static_cast<double>(start);
  double next_reorg = target.reorg_period_s > 0.0
                          ? static_cast<double>(start)
                          : HUGE_VAL;
  uint64_t reorgs_seen =
      target.manager != nullptr ? target.manager->ReorgCount() : 0;
  const uint64_t swaps_before = reorgs_seen;
  uint64_t reorg_started_us = 0;
  res.steal.Sample();
  if (target.manager != nullptr) {
    ApplyReadLatency(target.manager, target.read_latency_us);
  }
  uint64_t log_bytes =
      target.metrics != nullptr && target.manager != nullptr
          ? DeltaLogBytes(target.manager)
          : 0;
  // Gives a newly published version the read latency as soon as the
  // sender sees the swap, and times the reorg that published it.
  auto note_swap = [&] {
    if (target.manager == nullptr) return;
    const uint64_t seen = target.manager->ReorgCount();
    if (seen == reorgs_seen) return;
    ApplyReadLatency(target.manager, target.read_latency_us);
    if (reorg_started_us != 0) {
      res.reorg_s.push_back(static_cast<double>(NowUs() - reorg_started_us) /
                            1e6);
      reorg_started_us = 0;
    }
    reorgs_seen = seen;
  };
  res.start_ns = start * 1000;
  res.end_ns = end * 1000;
  for (;;) {
    const double due =
        std::min({next_read, next_write, next_sample, next_reorg});
    if (due >= static_cast<double>(end)) break;
    const uint64_t due_us = static_cast<uint64_t>(due);
    if (NowUs() < due_us) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::microseconds(due_us)));
    }
    note_swap();
    if (due == next_read) {
      if (outstanding > 0 && pending.size() >= outstanding) {
        (void)pending[pending.size() - outstanding].ticket->Wait();
        note_swap();
      }
      const uint32_t index =
          rng->Uniform(static_cast<uint32_t>(requests.size()));
      const uint64_t sent_us = NowUs();
      const uint64_t t0 = NowNs();
      ServeTicketPtr ticket = service->Submit(requests[index]);
      const uint64_t t1 = NowNs();
      res.lag_us.push_back(GeneratorLagUs(due_us, sent_us));
      res.submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      pending.push_back({std::move(ticket), outstanding > 0 ? sent_us : due_us,
                         sent_us + (t1 - t0) / 1000, res.submit_us.back(),
                         index});
      settle_done();
      if (outstanding > 0) {
        next_read = static_cast<double>(NowUs());
      } else {
        double u = rng->NextDouble();
        if (u <= 0.0) u = 1e-12;
        next_read += -std::log(u) * mean_gap_us;
      }
    } else if (due == next_write) {
      const ccam::Status st = target.writer->Step(&res.write_us);
      if (!st.ok()) LogFailed("write", st);
      res.outcomes.Add(Classify(st, true));
      if (target.metrics != nullptr) {
        const uint64_t now_bytes = DeltaLogBytes(target.manager);
        if (now_bytes > log_bytes) res.delta_log_growth += now_bytes - log_bytes;
        log_bytes = now_bytes;
      }
      next_write += 1e6 / target.write_qps;
    } else if (due == next_sample) {
      res.queue_depths.push_back(service->queue_depth());
      res.steal.Sample();
      if (target.manager != nullptr) {
        res.live_versions_max = std::max(res.live_versions_max,
                                         target.manager->LiveVersionCount());
      }
      next_sample += static_cast<double>(kQueueSampleUs);
    } else {
      if (reorg_started_us == 0 &&
          target.manager->StartBackgroundReorg().ok()) {
        reorg_started_us = NowUs();
      }
      next_reorg += target.reorg_period_s * 1e6;
    }
  }
  res.backlog_end = service->queue_depth();
  if (target.manager != nullptr && reorg_started_us != 0) {
    if (!target.manager->WaitForReorg().ok()) {
      res.outcomes.Add(Outcome::kOtherError);
    }
    res.reorg_s.push_back(static_cast<double>(NowUs() - reorg_started_us) /
                          1e6);
  }

  for (const Sent& s : pending) settle(s);
  pending.clear();
  service->Shutdown(/*drain=*/true);
  res.stats = service->GetStats();
  res.session_io = service->TotalSessionIoStats();
  res.session_hier_io = service->TotalSessionHierarchyIoStats();
  if (target.file != nullptr) {
    res.disk_reads = (target.file->DataIoStats() - disk_before).reads;
  }
  if (target.manager != nullptr) {
    res.swaps = target.manager->ReorgCount() - swaps_before;
  }
  return res;
}

/// p99 of how late the generator sent an open-loop phase's requests.
double LagP99(const PhaseResult& res) { return PercentileOf(res.lag_us, 0.99); }

/// Fixed rate ladder and limits of one workload.
struct LadderSpec {
  Ladder ladder;
  LadderLimits limits;
  /// A step offers at least step_requests (enough for a p99 with ten
  /// samples beyond it) and lasts at least min_step_s: a backlog that grows
  /// by a few percent of the rate then lifts the step's p99 past the limit.
  double step_requests = 1200;
  double min_step_s = 0.8;
};

double MeasureCapacity(const Target& target,
                       const std::vector<ServeRequest>& requests,
                       const std::vector<Answer>& oracle,
                       const LadderSpec& spec, ccam::Random* rng,
                       Report* report) {
  const int grow_slack = 2 * target.workers * 16;  // workers x max_batch
  return FindCapacity(spec.ladder, spec.limits, [&](double rate) {
    PhaseResult res = RunPhase(target, requests, oracle, rate,
                               std::max(spec.step_requests / rate,
                                        spec.min_step_s),
                               rng);
    StepResult step;
    step.rate_qps = rate;
    const LatencySummary lat =
        Summarize(res.latency_us, res.ok_due_ns, res.steal);
    step.p99_us = lat.p99;
    step.samples = lat.n;
    step.failed_share = res.outcomes.failed_share();
    step.lag_p99_us = LagP99(res);
    step.queue_growing = QueueGrowing(res.queue_depths, grow_slack);
    std::printf(
        "ladder rate %.0f qps: p50 %.0f us, p99 %.0f us over %zu, failed "
        "%.4f, queue %s, generator lag p99 %.0f us\n",
        rate, lat.p50, step.p99_us, step.samples, step.failed_share,
        step.queue_growing ? "growing" : "flat", step.lag_p99_us);
    report->outcomes.mismatch += res.outcomes.mismatch;
    if (res.outcomes.mismatch > 0) report->Fail("oracle mismatch in ladder");
    return step;
  });
}

/// Serial single-session answers for every request.
template <typename Session>
std::vector<Answer> SerialOracle(Session* session,
                                 const std::vector<ServeRequest>& requests) {
  std::vector<Answer> out;
  out.reserve(requests.size());
  for (const ServeRequest& r : requests) {
    out.push_back(ExecuteDirect(session, r));
  }
  return out;
}

void CheckOracleHealthy(const std::vector<Answer>& oracle, Report* report) {
  for (const Answer& a : oracle) {
    if (!a.status.ok()) {
      report->Fail("oracle: request failed serially: " + a.status.ToString());
      return;
    }
  }
}

/// End-to-end latency and throughput of the closed-loop nominal phase.
/// With `window_s` > 0, p50 and p99 are the medians of the percentiles of
/// each window of that length (MedianWindowPercentile); otherwise they are
/// Summarize's.
void ReportNominal(const PhaseResult& res, double window_s, Report* report) {
  LatencySummary lat = Summarize(res.latency_us, res.ok_due_ns, res.steal);
  if (window_s > 0.0) {
    const auto window_ns = static_cast<uint64_t>(window_s * 1e9);
    lat.p50 = MedianWindowPercentile(res.latency_us, res.ok_due_ns,
                                     res.start_ns, window_ns, 0.50);
    lat.p99 = MedianWindowPercentile(res.latency_us, res.ok_due_ns,
                                     res.start_ns, window_ns, 0.99);
  }
  if (!SupportsPercentile(lat.n, 0.99) || lat.p99 == 0.0) {
    report->Fail("too few samples for p99: " + std::to_string(lat.n));
  }
  report->Set("query_p50_us", lat.p50, "us");
  report->Set("query_p99_us", lat.p99, "us");
  report->Set("throughput_qps",
              QuietRate(res.ok_done_ns, res.start_ns, res.end_ns, res.steal),
              "1/s");
  report->Stamp("nominal_steal_ticks", std::to_string(res.steal.Total()));
}

/// p99 of the OK reads sent in every `stride`-th window of `window_s` from
/// the phase's start (the windows a periodic reorg starts in), pooled.
double StrideWindowP99(const PhaseResult& res, double window_s,
                       uint64_t stride) {
  const auto window_ns = static_cast<uint64_t>(window_s * 1e9);
  std::vector<double> picked;
  for (size_t i = 0; i < res.latency_us.size(); ++i) {
    const uint64_t t = res.ok_due_ns[i];
    if (t >= res.start_ns && (t - res.start_ns) / window_ns % stride == 0) {
      picked.push_back(res.latency_us[i]);
    }
  }
  return PercentileOf(picked, 0.99);
}

/// Generator-lag metrics of an open-loop phase at `rate_qps`. A phase
/// whose lag p99 exceeds kMaxGenLagP99Us is invalid (its arrivals were not
/// the ones asked for); it is run once more, and a second invalid phase
/// fails the run.
void ReportGenLag(const Target& target,
                  const std::vector<ServeRequest>& requests,
                  const std::vector<Answer>& oracle, double rate_qps,
                  double seconds, ccam::Random* rng, Report* report) {
  PhaseResult res = RunPhase(target, requests, oracle, rate_qps, seconds, rng);
  if (LagP99(res) > kMaxGenLagP99Us) {
    res = RunPhase(target, requests, oracle, rate_qps, seconds, rng);
  }
  report->outcomes.Merge(res.outcomes);
  if (res.outcomes.mismatch > 0) report->Fail("oracle mismatch (lag phase)");
  const double p99 = LagP99(res);
  report->Set("bench.gen_lag_p99_us", p99, "us");
  report->Set("bench.gen_lag_max_us", PercentileOf(res.lag_us, 1.0), "us");
  if (p99 > kMaxGenLagP99Us) {
    report->Fail("invalid run: generator lag p99 " + std::to_string(p99) +
                 " us exceeds " + std::to_string(kMaxGenLagP99Us) + " us");
  }
}

/// Per-layer serve metrics of a phase.
void ReportServeLayer(const PhaseResult& res, Report* report) {
  report->Set("serve.submit_us", PercentileOf(res.submit_us, 0.5), "us");
  report->Set("serve.queue_wait_p50_us", PercentileOf(res.queue_wait_us, 0.5),
              "us");
  report->Set("serve.queue_wait_p99_us",
              PercentileOf(res.queue_wait_us, 0.99), "us");
  report->Set("serve.exec_p50_us", PercentileOf(res.exec_us, 0.5), "us");
  double occ = 0.0;
  for (double o : res.occupancy) occ += o;
  report->Set("serve.batch_occupancy",
              res.occupancy.empty() ? 0.0 : occ / res.occupancy.size(),
              "count");
  const double completed = static_cast<double>(res.stats.completed);
  report->Set("serve.batched_share",
              completed == 0 ? 0.0 : res.stats.batched_requests / completed,
              "ratio");
  const double submitted = static_cast<double>(res.stats.submitted);
  report->Set("serve.rejected_share",
              submitted == 0 ? 0.0 : res.stats.rejected / submitted, "ratio");
  report->Set("serve.backlog_end", static_cast<double>(res.backlog_end),
              "count");
}

/// Registry-derived storage metrics of a traced phase.
void ReportRegistry(ccam::MetricsRegistry* reg, const PhaseResult& res,
                    Report* report) {
  const double ok = std::max<double>(1.0, res.outcomes.ok);
  const double hits = reg->GetCounter("buffer_pool.hit")->value();
  const double misses = reg->GetCounter("buffer_pool.miss")->value();
  report->Set("storage.pool.hit_rate",
              hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio");
  report->Set("storage.pool.evictions_per_query",
              reg->GetCounter("buffer_pool.eviction")->value() / ok, "count");
  report->Set("storage.disk.read_p50_us",
              static_cast<double>(
                  reg->GetHistogram("disk.read_us")->Percentile(0.5)),
              "us");
}

void SetFailedShare(const PhaseResult& res, Report* report) {
  report->Set("ok_share", 1.0 - res.outcomes.failed_share(), "ratio");
  report->Set("failed_share", res.outcomes.failed_share(), "ratio");
}

void NoteOverhead(const PhaseResult& untraced, const PhaseResult& traced,
                  Report* report) {
  const double a =
      Summarize(untraced.latency_us, untraced.ok_due_ns, untraced.steal).p50;
  const double b =
      Summarize(traced.latency_us, traced.ok_due_ns, traced.steal).p50;
  report->Set("trace.overhead_pct", a > 0 ? 100.0 * (b / a - 1.0) : 0.0, "%");
}

}  // namespace

// --- serve_hotspot ----------------------------------------------------------

void RunServeHotspot(const Args& args, Report* report) {
  constexpr double kNominalQps = 3000.0;  // warm-up, generator-lag phase
  const ccam::Network net = MakeMap();
  report->Stamp("map_nodes", std::to_string(net.NumNodes()));
  // The generator takes one core and one stays free for the host's own
  // work (on a virtual machine, a fully busy guest turns every stolen
  // millisecond into request latency).
  const int workers = std::max(1, HostCores() - 2);
  report->Stamp("workers", std::to_string(workers));
  report->Stamp("pool_pages", std::to_string(kPoolPages) + " data + " +
                                  std::to_string(kPoolPages) + " overlay");
  report->Stamp("read_latency_us", std::to_string(kReadLatencyUs));
  report->Stamp("nominal", std::to_string(kOutstandingPerWorker * workers) +
                               " requests in flight (closed loop)");

  ccam::AccessMethodOptions o;
  o.page_size = kPageSize;
  o.buffer_pool_pages = kPoolPages;
  BuiltFile built = BuildServingFile(
      net, o, args.work_dir + "/serve_hotspot.img", report);
  if (built.file == nullptr) return;
  ccam::Ccam* file = built.file.get();

  RequestOptions ro;
  ro.count = 4096;
  ro.mix = {0.5, 0.2, 0.2, 0.1};
  ro.walk_hops = 8;
  ro.zipf_theta = 1.1;
  ro.tenants = kTenants;
  const auto requests = MakeRequests(net, ro, args.seed * 7919 + 1);
  std::vector<Answer> oracle;
  {
    auto session = file->OpenSession();
    oracle = SerialOracle(session.get(), requests);
  }
  CheckOracleHealthy(oracle, report);
  (void)file->buffer_pool()->Reset();
  file->disk()->SetSimulatedReadLatencyMicros(kReadLatencyUs);

  Target target;
  target.file = file;
  target.workers = workers;
  ccam::Random rng(args.seed ^ 0x5eedULL);
  const double measure_s = args.seconds * (args.trace ? 0.4 : 0.5);
  (void)RunPhase(target, requests, oracle, kNominalQps, args.seconds * 0.1,
                 &rng);  // warm the pools
  PhaseResult nominal = RunPhase(target, requests, oracle, 0.0, measure_s,
                                 &rng, kOutstandingPerWorker * workers);
  report->outcomes.Merge(nominal.outcomes);
  if (nominal.session_io.reads != nominal.disk_reads) {
    report->Fail("IoStats conservation: session reads " +
                 std::to_string(nominal.session_io.reads) + " != disk reads " +
                 std::to_string(nominal.disk_reads));
  }
  if (nominal.outcomes.mismatch > 0) report->Fail("oracle mismatch");
  ReportNominal(nominal, 0.0, report);
  SetFailedShare(nominal, report);
  report->Set("setup_s", built.setup_s, "s");
  const double ok = std::max<double>(1.0, nominal.outcomes.ok);
  report->Set("page_reads_per_query", nominal.disk_reads / ok, "count");
  const size_t nodes = file->NumLiveNodes();
  report->Set("space_bytes_per_node",
              static_cast<double>((file->NumDataPages() +
                                   file->hierarchy()->NumPages()) *
                                  kPageSize) /
                  static_cast<double>(nodes),
              "B");

  report->Set("core.create_s", built.median.create_s, "s");
  report->Set("core.overlay_build_s", built.median.overlay_build_s, "s");
  report->Set("core.open_s", built.median.open_s, "s");
  report->Set("core.crr", ccam::ComputeCrr(net, file->PageMap()), "ratio");
  report->Set("core.data_pages", static_cast<double>(file->NumDataPages()),
              "count");

  // Before the capacity ladder, which overloads the service on purpose and
  // holds a backlog whose size depends on how far past the knee each
  // failing step went.
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  if (!args.trace) {
    LadderSpec spec;
    spec.ladder = {1000.0, 1.5, 1.05, 12};
    spec.limits.p99_limit_us = 20000.0;
    spec.limits.max_lag_p99_us = kMaxGenLagP99Us;
    report->Set("capacity_qps",
                MeasureCapacity(target, requests, oracle, spec, &rng, report),
                "1/s");
  } else {
    ReportGenLag(target, requests, oracle, kNominalQps, args.seconds * 0.1,
                 &rng, report);
    ccam::MetricsRegistry reg;
    SpanLog spans;
    file->SetMetrics(&reg);
    target.metrics = &reg;
    target.spans = &spans;
    PhaseResult traced = RunPhase(target, requests, oracle, 0.0, measure_s,
                                  &rng, kOutstandingPerWorker * workers);
    file->SetMetrics(nullptr);
    report->outcomes.Merge(traced.outcomes);
    if (traced.outcomes.mismatch > 0) report->Fail("oracle mismatch (traced)");
    ReportServeLayer(traced, report);
    ReportRegistry(&reg, traced, report);
    report->Set("storage.hier.reads_per_query",
                traced.session_hier_io.reads /
                    std::max<double>(1.0, traced.outcomes.ok),
                "count");
    NoteOverhead(nominal, traced, report);
    WriteTrace(args.work_dir + "/trace_serve_hotspot.json", {&spans});
  }
}

// --- snapshot_rw ------------------------------------------------------------

void RunSnapshotRw(const Args& args, Report* report) {
  constexpr double kNominalQps = 3000.0;  // warm-up, generator-lag phase
  constexpr double kWriteQps = 200.0;
  // One background reorg every kReorgPeriodS, so one latency window in
  // four holds a rebuild (see kLatencyWindowS).
  constexpr double kReorgPeriodS = 2.0;
  const ccam::Network net = MakeMap();
  report->Stamp("map_nodes", std::to_string(net.NumNodes()));
  // The generator thread (which also writes) and the background reorg
  // thread take two cores; the service gets the rest.
  const int workers = std::max(1, HostCores() - 2);
  report->Stamp("workers", std::to_string(workers));
  report->Stamp("pool_pages", std::to_string(kPoolPages) + " per version");
  report->Stamp("read_latency_us",
                std::to_string(kReadLatencyUs) + " (set on each new version)");
  report->Stamp("nominal", std::to_string(kOutstandingPerWorker * workers) +
                               " requests in flight (closed loop)");
  report->Stamp("write_qps", std::to_string(kWriteQps));
  report->Stamp("reorg_period_s", std::to_string(kReorgPeriodS));

  ccam::SnapshotOptions so;
  so.am.page_size = kPageSize;
  so.am.buffer_pool_pages = kPoolPages;
  so.am.num_threads = 1;
  std::unique_ptr<ccam::SnapshotManager> manager;
  std::vector<double> setups;
  // The clusterer runs on one thread (num_threads = 1).
  std::optional<CpuRotation> rotation(std::in_place, kRotateNs);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    manager.reset();
    so.dir = args.work_dir + "/snapshot_rw";
    std::error_code ec;
    fs::remove_all(so.dir, ec);
    fs::create_directories(so.dir, ec);
    const auto t0 = std::chrono::steady_clock::now();
    auto created = ccam::SnapshotManager::Create(so, net);
    setups.push_back(SecondsSince(t0));
    if (!created.ok()) {
      report->Fail("set-up: " + created.status().ToString());
      return;
    }
    manager = std::move(created).value();
  }
  rotation.reset();
  report->Set("setup_s", Median(setups), "s");
  report->Set("core.create_s", Median(setups), "s");

  RequestOptions ro;
  ro.count = 4096;
  ro.mix = {0.5, 0.25, 0.25, 0.0};  // the snapshot store has no CH overlay
  ro.walk_hops = 8;
  ro.zipf_theta = 1.1;
  ro.tenants = kTenants;
  const auto requests = MakeRequests(net, ro, args.seed * 7919 + 2);
  std::vector<Answer> oracle;
  {
    auto session = manager->OpenSession();
    oracle = SerialOracle(session.get(), requests);
  }
  CheckOracleHealthy(oracle, report);

  const std::vector<NodeId> anchors = LargestScc(net);
  PendantWriter writer(manager.get(), net, anchors, args.seed * 31 + 5);
  Target target;
  target.manager = manager.get();
  target.writer = &writer;
  target.write_qps = kWriteQps;
  target.reorg_period_s = kReorgPeriodS;
  target.read_latency_us = kReadLatencyUs;
  target.workers = workers;
  ccam::Random rng(args.seed ^ 0x5eedULL);
  // A longer nominal phase than serve_hotspot's: more latency windows for
  // the medians, and more rebuilds.
  const double measure_s = args.seconds * (args.trace ? 0.4 : 0.7);
  (void)RunPhase(target, requests, oracle, kNominalQps, args.seconds * 0.1,
                 &rng);
  PhaseResult nominal = RunPhase(target, requests, oracle, 0.0, measure_s,
                                 &rng, kOutstandingPerWorker * workers);
  report->outcomes.Merge(nominal.outcomes);
  if (nominal.outcomes.mismatch > 0) report->Fail("oracle mismatch");
  ReportNominal(nominal, kLatencyWindowS, report);
  report->Set("storage.snapshot.rebuild_read_p99_us",
              StrideWindowP99(nominal, kLatencyWindowS,
                              static_cast<uint64_t>(std::lround(
                                  kReorgPeriodS / kLatencyWindowS))),
              "us");
  report->Stamp("nominal_swaps", std::to_string(nominal.swaps));
  report->Stamp("nominal_reorg_s", std::to_string(Median(nominal.reorg_s)));
  SetFailedShare(nominal, report);
  const double ok = std::max<double>(1.0, nominal.outcomes.ok);
  report->Set("page_reads_per_query", nominal.session_io.reads / ok, "count");
  report->Set("write_p50_us", PercentileOf(nominal.write_us, 0.5), "us");
  report->Set("write_p99_us", PercentileOf(nominal.write_us, 0.99), "us");

  // Before the capacity ladder, which overloads the service on purpose and
  // holds a backlog whose size depends on how far past the knee each
  // failing step went.
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  if (!args.trace) {
    LadderSpec spec;
    spec.ladder = {1000.0, 1.5, 1.05, 12};
    spec.limits.p99_limit_us = 20000.0;
    spec.limits.max_lag_p99_us = kMaxGenLagP99Us;
    report->Set("capacity_qps",
                MeasureCapacity(target, requests, oracle, spec, &rng, report),
                "1/s");
  } else {
    ReportGenLag(target, requests, oracle, kNominalQps, args.seconds * 0.1,
                 &rng, report);
    ccam::MetricsRegistry reg;
    SpanLog spans;
    manager->SetMetrics(&reg);
    target.metrics = &reg;
    target.spans = &spans;
    PhaseResult traced = RunPhase(target, requests, oracle, 0.0, measure_s,
                                  &rng, kOutstandingPerWorker * workers);
    manager->SetMetrics(nullptr);
    report->outcomes.Merge(traced.outcomes);
    if (traced.outcomes.mismatch > 0) report->Fail("oracle mismatch (traced)");
    ReportServeLayer(traced, report);
    ReportRegistry(&reg, traced, report);
    report->Set("storage.snapshot.reorg_s", Median(traced.reorg_s), "s");
    report->Set("storage.snapshot.swaps", static_cast<double>(traced.swaps),
                "count");
    report->Set("storage.snapshot.live_versions_max",
                static_cast<double>(traced.live_versions_max), "count");
    report->Set("storage.delta_log.bytes_per_write",
                traced.write_us.empty()
                    ? 0.0
                    : static_cast<double>(traced.delta_log_growth) /
                          traced.write_us.size(),
                "B");
    NoteOverhead(nominal, traced, report);
    WriteTrace(args.work_dir + "/trace_snapshot_rw.json", {&spans});
  }

  // Conservation audit: with no reorg in flight, a fresh service's session
  // reads must equal the current version's disk-read delta. (Versions
  // retired during the timed phases take their disks with them.)
  if (!manager->WaitForReorg().ok()) report->Fail("background reorg failed");
  {
    auto pin = manager->OpenSession();
    ccam::Ccam* current = pin->version()->file();
    const IoStats before = current->DataIoStats();
    QueryService audit(manager.get(), ServiceOptions(workers));
    std::vector<ServeTicketPtr> tickets;
    for (size_t i = 0; i < 512; ++i) {
      tickets.push_back(audit.Submit(requests[i % requests.size()]));
    }
    for (size_t i = 0; i < tickets.size(); ++i) {
      const ServeResponse& r = tickets[i]->Wait();
      if (!r.status.ok() ||
          !SameAnswer(FromResponse(r), oracle[i % requests.size()])) {
        report->Fail("audit answer differs from oracle");
        break;
      }
    }
    audit.Shutdown(true);
    const uint64_t disk = (current->DataIoStats() - before).reads;
    const uint64_t sessions = audit.TotalSessionIoStats().reads;
    if (disk != sessions) {
      report->Fail("IoStats conservation: session reads " +
                   std::to_string(sessions) + " != disk reads " +
                   std::to_string(disk));
    }
    const size_t live = pin->NumLiveNodes();
    report->Set("space_bytes_per_node",
                static_cast<double>(current->NumDataPages() * kPageSize +
                                    DeltaLogBytes(manager.get())) /
                    static_cast<double>(std::max<size_t>(live, 1)),
                "B");
    report->Set("core.data_pages",
                static_cast<double>(current->NumDataPages()), "count");
    report->Set("core.crr", ccam::ComputeCrr(net, current->PageMap()),
                "ratio");
  }
}

}  // namespace perfbench
