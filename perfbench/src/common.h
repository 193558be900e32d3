// Shared pieces of the benchmark program: run arguments, the result
// document, input generation, the serial oracle, set-up timing, the
// span log and the timing AccessMethod wrapper used by traced runs.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <sched.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "perfbench/src/helpers.h"
#include "src/common/random.h"
#include "src/core/ccam.h"
#include "src/graph/network.h"
#include "src/serve/request.h"

namespace perfbench {

// --- Sizes shared by every workload (see NOTES.md for the reasons) -------

/// The road map is one fixed kMapSide x kMapSide GenerateRoadMap grid
/// (about 3,900 nodes after street removal) stored on 1 KiB pages. The map
/// and the popularity order of its hot spots are the same in every run;
/// --seed draws the requests, so runs differ by sample, not by city.
constexpr int kMapSide = 64;
constexpr uint64_t kMapSeed = 1995;
constexpr uint64_t kPopularitySeed = 2024;
constexpr size_t kPageSize = 1024;
/// Set-ups per run; setup_s reports their median.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string work_dir = ".bench_work";
};

/// Cores the workload may occupy: its own threads plus the service's
/// workers never exceed this.
int HostCores();

/// Microseconds / nanoseconds on the steady clock.
inline uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
/// CPU time of the calling thread, ns. On a kernel with paravirtual steal
/// accounting it excludes time the hypervisor took the CPU away, and it
/// never includes time the thread waited off the CPU.
inline uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}
inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMiB();

/// While alive, moves the thread that made it round the CPUs it may run
/// on, one step every `period_ns`, from a helper thread (so it works
/// across long library calls such as a set-up); restores the thread's CPU
/// mask when destroyed. On a shared host the virtual CPUs run at speeds
/// that differ by up to 1.7x and change over minutes; a single CPU-bound
/// thread left to the scheduler measures whichever CPU it stayed on, and a
/// rotating one gives each CPU an equal share of the work.
class CpuRotation {
 public:
  explicit CpuRotation(uint64_t period_ns);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  cpu_set_t original_;
  bool restore_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread mover_;
};
constexpr uint64_t kRotateNs = 50000000;

/// Writes a failed operation's status to standard error, so a run's
/// `failed` count can be traced to its cause; only the first
/// kLoggedFailures of a run are written.
constexpr int kLoggedFailures = 10;
void LogFailed(const std::string& what, const ccam::Status& status);

/// A metric the result must carry, with the unit BENCHMARK.json gives it.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The result of one run: metrics by name with unit, outcome counts, and
/// the run-condition stamp. Print() writes the stamp line and then the
/// result document as the last line of standard output.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  void Stamp(const std::string& key, const std::string& value) {
    stamp_[key] = value;
  }
  /// Records a correctness failure (oracle mismatch, broken conservation,
  /// failed set-up); the run then reports "correct": false.
  void Fail(const std::string& why);
  bool correct() const { return problems_.empty(); }

  OutcomeCounts outcomes;

  /// Keeps only the metrics in `specs` (in that order) and prints. A
  /// metric missing from the report, or set in another unit, fails the run.
  void Print(const std::vector<MetricSpec>& specs);

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> stamp_;
  std::vector<std::string> problems_;
};

// --- Inputs ---------------------------------------------------------------

/// The road map every workload runs on.
ccam::Network MakeMap();

/// Nodes of the map's largest strongly connected component, ascending.
/// Origins, destinations and walks stay inside it, so every OD pair is
/// reachable and no walk dead-ends.
std::vector<ccam::NodeId> LargestScc(const ccam::Network& net);

/// Operation mix by weight.
struct Mix {
  double route_eval = 0.0;
  double astar = 0.0;
  double aggregate = 0.0;
  double ch = 0.0;
};

/// Request generator options.
struct RequestOptions {
  size_t count = 4096;
  Mix mix;
  int walk_hops = 8;
  /// > 0: origins follow Zipf(theta) over page-sized spatial blocks of the
  /// grid (kBlockSide x kBlockSide intersections, roughly the records of
  /// one 1 KiB page) ranked in a fixed popularity order; 0: origins uniform
  /// over the component.
  double zipf_theta = 0.0;
  /// A* / CH pairs: true = a random destination in the component whose
  /// straight-line distance from the origin lies in [od_min, od_max] (the
  /// band keeps one pair's search cost close to another's, so a run's mean
  /// does not hang on a few cross-map pairs); false = the end of a walk
  /// from the origin.
  bool uniform_od = false;
  double od_min = 0.0;
  double od_max = 1e18;
  uint32_t tenants = 1;
};
constexpr int kBlockSide = 3;

std::vector<ccam::serve::ServeRequest> MakeRequests(
    const ccam::Network& net, const RequestOptions& options, uint64_t seed);

// --- Oracle and direct execution -----------------------------------------

/// The comparable part of an answer.
struct Answer {
  ccam::Status status;
  double cost = 0.0;
  uint64_t num_edges = 0;
  std::vector<ccam::NodeId> path;
};

/// Equal status, edge count and path, and equal cost (within `rel_tol`
/// of the larger magnitude; 0 = bit-identical).
bool SameAnswer(const Answer& a, const Answer& b, double rel_tol = 0.0);
Answer FromResponse(const ccam::serve::ServeResponse& r);

/// Details of one direct operator call, for the per-layer metrics.
struct CallDetail {
  uint64_t expanded = 0;
  uint64_t page_accesses = 0;
};

/// Runs `request` through the query operators on `am` (no serve layer).
Answer ExecuteDirect(ccam::AccessMethod* am,
                     const ccam::serve::ServeRequest& request,
                     CallDetail* detail = nullptr);

/// Index of a request's operation: 0 route_eval, 1 astar, 2 ch, 3 aggregate.
int OpIndex(ccam::serve::ServeOp op);
extern const char* const kOpNames[4];

// --- Set-up ----------------------------------------------------------------

/// Phases of building one CCAM-S file with its CH overlay and opening the
/// saved image with the serving pool sizes.
struct SetupTimes {
  double create_s = 0.0;
  double overlay_build_s = 0.0;
  double open_s = 0.0;  // SaveImage + OpenImage
  double total() const { return create_s + overlay_build_s + open_s; }
};

/// Builds the file kSetupReps times (each rep from scratch), keeping the
/// last one; reports the median rep and each phase's median.
struct BuiltFile {
  std::unique_ptr<ccam::Ccam> file;
  SetupTimes median;
  double setup_s = 0.0;
  std::string image_path;
};
BuiltFile BuildServingFile(const ccam::Network& net,
                           const ccam::AccessMethodOptions& open_options,
                           const std::string& image_path, Report* report);

/// Opens an instance of a saved image with its CH overlay sidecar.
std::unique_ptr<ccam::Ccam> OpenImage(const std::string& path,
                                      const ccam::AccessMethodOptions& o);

// --- Tracing ---------------------------------------------------------------

/// One span: a timed interval at a layer boundary. Spans of one request
/// share `request`; `parent` indexes the causing span in the same log
/// (-1 = root).
struct Span {
  uint64_t request = 0;
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
};

/// Per-thread, in-memory span log with a cap (spans past the cap are
/// counted, not kept). Written out once, at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(size_t cap = 200000) : cap_(cap) { spans_.reserve(1024); }
  int64_t Add(const Span& s) {
    if (spans_.size() >= cap_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  /// Closes a span opened with end_ns unknown (no-op for index -1).
  void End(int64_t index, uint64_t end_ns) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  size_t cap_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Writes the logs as Chrome trace-event JSON (one tid per log).
void WriteTrace(const std::string& path, const std::vector<const SpanLog*>& logs);

/// AccessMethod wrapper that times, counts and forwards every read to the
/// wrapped session. It holds no state of the session, so operators see the
/// session's own I/O counters and overlay through it. When a span log is
/// attached, each call also becomes a child span of `parent_span`.
class TimedAccess : public ccam::AccessMethod {
 public:
  enum Call { kFind, kGetSuccessors, kGetASuccessor, kHierarchyNode, kCalls };
  static const char* const kCallNames[kCalls];

  explicit TimedAccess(ccam::AccessMethod* inner) : inner_(inner) {}

  void AttachSpans(SpanLog* log) { log_ = log; }
  void SetParent(uint64_t request, int64_t parent_span) {
    request_ = request;
    parent_ = parent_span;
  }

  uint64_t calls(Call c) const { return calls_[c]; }
  uint64_t ns(Call c) const { return ns_[c]; }
  uint64_t total_ns() const;

  std::string Name() const override { return inner_->Name() + "/timed"; }
  ccam::Status Create(const ccam::Network& n) override {
    return inner_->Create(n);
  }
  ccam::Result<ccam::NodeRecord> Find(ccam::NodeId id) override {
    return Timed(kFind, [&] { return inner_->Find(id); });
  }
  ccam::Result<ccam::NodeRecord> GetASuccessor(ccam::NodeId from,
                                               ccam::NodeId to) override {
    return Timed(kGetASuccessor,
                 [&] { return inner_->GetASuccessor(from, to); });
  }
  ccam::Result<std::vector<ccam::NodeRecord>> GetSuccessors(
      ccam::NodeId id) override {
    return Timed(kGetSuccessors, [&] { return inner_->GetSuccessors(id); });
  }
  ccam::Status InsertNode(const ccam::NodeRecord& r,
                          ccam::ReorgPolicy p) override {
    return inner_->InsertNode(r, p);
  }
  ccam::Status DeleteNode(ccam::NodeId id, ccam::ReorgPolicy p) override {
    return inner_->DeleteNode(id, p);
  }
  ccam::Status InsertEdge(ccam::NodeId u, ccam::NodeId v, float c,
                          ccam::ReorgPolicy p) override {
    return inner_->InsertEdge(u, v, c, p);
  }
  ccam::Status DeleteEdge(ccam::NodeId u, ccam::NodeId v,
                          ccam::ReorgPolicy p) override {
    return inner_->DeleteEdge(u, v, p);
  }
  ccam::IoStats DataIoStats() const override { return inner_->DataIoStats(); }
  void ResetIoStats() override { inner_->ResetIoStats(); }
  const ccam::NodePageMap& PageMap() const override {
    return inner_->PageMap();
  }
  ccam::BufferPool* buffer_pool() override { return inner_->buffer_pool(); }
  bool LastOpChangedStructure() const override {
    return inner_->LastOpChangedStructure();
  }
  size_t NumDataPages() const override { return inner_->NumDataPages(); }
  std::vector<ccam::NodeId> LiveNodeIds() const override {
    return inner_->LiveNodeIds();
  }
  size_t NumLiveNodes() const override { return inner_->NumLiveNodes(); }
  ccam::MetricsRegistry* metrics() const override { return inner_->metrics(); }
  ccam::RequestContext* request_context() const override {
    return inner_->request_context();
  }
  bool HasHierarchy() const override { return inner_->HasHierarchy(); }
  ccam::Result<ccam::HierarchyNodeRecord> HierarchyNode(
      ccam::NodeId id) override {
    return Timed(kHierarchyNode, [&] { return inner_->HierarchyNode(id); });
  }
  ccam::IoStats HierarchyIoStats() const override {
    return inner_->HierarchyIoStats();
  }

 private:
  template <typename F>
  std::invoke_result_t<F> Timed(Call c, F&& f) {
    const uint64_t t0 = NowNs();
    auto result = f();
    const uint64_t t1 = NowNs();
    ++calls_[c];
    ns_[c] += t1 - t0;
    if (log_ != nullptr) {
      log_->Add({request_, kCallNames[c], t0, t1, parent_});
    }
    return result;
  }

  ccam::AccessMethod* inner_;
  SpanLog* log_ = nullptr;
  uint64_t request_ = 0;
  int64_t parent_ = -1;
  uint64_t calls_[kCalls] = {};
  uint64_t ns_[kCalls] = {};
};

// --- Workloads -----------------------------------------------------------

void RunServeHotspot(const Args& args, Report* report);
void RunSnapshotRw(const Args& args, Report* report);
void RunQueryCpu(const Args& args, Report* report);
void RunShardRoutes(const Args& args, Report* report);

/// CPU time the hypervisor took from this machine ("steal" in /proc/stat,
/// summed over CPUs, in clock ticks), sampled over a run.
class StealLog {
 public:
  /// Appends one (now, steal ticks) sample.
  void Sample();
  /// Ticks stolen between two steady-clock instants (ns), from the
  /// samples that bracket them.
  double Between(uint64_t t0_ns, uint64_t t1_ns) const;
  /// Ticks stolen over the whole log.
  double Total() const;

 private:
  std::vector<std::pair<uint64_t, uint64_t>> samples_;
};

/// Samples a StealLog every kStealSampleMs on its own thread while alive.
/// Read the log only after the sampler is destroyed.
class StealSampler {
 public:
  explicit StealSampler(StealLog* log);
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

 private:
  StealLog* log_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};
constexpr int kStealSampleMs = 20;

/// Latency summary of one run's samples (microseconds, in time order, with
/// their send or completion times in ns): the samples are cut into up to
/// kMaxWindows windows of at least MinSamplesFor(0.99) each, and p50 and
/// p99 are taken over the pooled samples of the quieter half of the
/// windows (QuietIndices). Pooling keeps every periodic event in the kept
/// windows (a reorg's stall, say) in the tail in proportion.
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  size_t n = 0;
};
constexpr size_t kMaxWindows = 16;
LatencySummary Summarize(const std::vector<double>& in_time_order,
                         const std::vector<uint64_t>& times_ns,
                         const StealLog& steal);

/// Throughput: the QuietMean of the completion rate over kRateWindows
/// equal time windows.
constexpr int kRateWindows = 10;
double QuietRate(const std::vector<uint64_t>& done_ns, uint64_t start_ns,
                 uint64_t end_ns, const StealLog& steal);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
