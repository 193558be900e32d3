#ifndef CCAM_SERVE_QUERY_SERVICE_H_
#define CCAM_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/request_context.h"
#include "src/common/thread_pool.h"
#include "src/core/read_session.h"
#include "src/serve/admission.h"
#include "src/serve/circuit_breaker.h"
#include "src/serve/request.h"
#include "src/serve/scheduler.h"

namespace ccam {
namespace serve {

/// Tuning knobs of the query service.
struct QueryServiceOptions {
  /// Worker threads, each owning one read session and all popping from
  /// the service's one run queue. 0 = the data buffer pool's shard count.
  /// Clamped to [1, pool capacity / shard count], the pool's sizing rule:
  /// past it demand fetches fail with NoSpace.
  int num_workers = 0;
  /// Admission control (see AdmissionController::Options).
  size_t max_queue_depth = 1024;
  size_t max_tenant_depth = 0;
  double tenant_rate = 0.0;
  double tenant_burst = 0.0;
  /// Ignored; kept only so perfbench compiles; ROADMAP item 1 deletes it.
  size_t max_batch = 16;
  /// Total execution attempts per request for retryable failures (IOError
  /// / ShortRead — transient transport faults). 1 (the default) disables
  /// retries; larger values re-execute a failed request individually with
  /// jittered backoff, skipping the retry when the request's deadline
  /// passed or the service is stopping. Deterministic failures
  /// (Corruption, Quarantined) and lifecycle statuses are never retried.
  int retry_max_attempts = 1;
  /// Upper bound of the jittered backoff before each retry attempt; the
  /// k-th retry sleeps uniform(0, k * retry_backoff_us].
  uint32_t retry_backoff_us = 200;
  /// Circuit breaker: consecutive same-class failures (I/O, corruption,
  /// deadline — see CircuitBreaker) that trip admission into shedding
  /// matching load with typed Overloaded rejections. 0 (the default)
  /// disables the breaker entirely.
  uint64_t breaker_trip_threshold = 0;
  /// Microseconds an open breaker sheds before admitting a probe.
  int64_t breaker_cooldown_us = 50000;
  /// Seed of the retry-backoff jitter streams.
  uint64_t seed = 42;
};

/// Multi-tenant serving front end over one ReadStore — the
/// scaling step after the concurrent read path: where QuerySession made
/// many threads *correct*, the service makes many *clients* efficient by
/// exploiting CCAM's clustering across concurrent queries: the workers
/// share the store's buffer pool, so one hot page fetch serves many
/// requests.
///
/// Pipeline: Submit() checks that the store Contains the request's origin
/// node (an unstored origin is rejected NotFound), passes per-tenant
/// admission control (token-bucket rate limit, bounded global and
/// per-tenant queue depth — rejections are typed Overloaded), and enqueues
/// it on the service's one run queue, a deficit-round-robin scheduler.
/// Every idle worker pops the next tenant's request from that queue and
/// runs it alone through its ordinary single-query operator, under the
/// request's own deadline. The queue is work-conserving: no worker sleeps
/// while a request is queued.
///
/// Admission prefetch: a request that Submit admits behind busy workers
/// (more requests queued than workers idle) has its operator's leading
/// known reads issued at once as one read-ahead: a route's chained hops,
/// an aggregate's distinct unit nodes, an A* search's target and source
/// (CH reads only the overlay and hints nothing). Submit issues them
/// inline through the service's one prefetch session; the read-ahead
/// waits for no device, so the misses of several queued requests are in
/// flight together and the worker that pops a request finds its pages
/// resident or landing. The pool's window bounds a request's hints; hints
/// past it are dropped, and so are all of a request's hints when another
/// thread holds the prefetch session. The prefetch never changes an
/// answer or an operator's demand-order page count (see
/// IoStats::DemandAccesses).
///
/// Accounting: all reads go through the service's sessions — the
/// workers' and the prefetch session — so the paper's conservation
/// invariant extends to the whole service: the sum of their per-session
/// IoStats equals the store's global disk reads (TotalSessionIoStats;
/// verified by tests/serve_test.cc).
///
/// Thread safety: Submit is safe from any number of client threads.
/// Construction, SetMetrics, Shutdown and the stats accessors follow the
/// usual quiescence rules (SetMetrics before serving; stats after
/// Shutdown or from the owning thread).
class QueryService {
 public:
  /// Serves `store` with one thread per worker: every worker owns one of
  /// its read sessions, and the service owns one more for admission
  /// prefetch. Over a NetworkFile they are QuerySessions, over a
  /// ShardedNetworkFile ShardedQuerySessions. Over a SnapshotManager they
  /// are SnapshotSessions, each pinned to one published version and
  /// refreshed only between requests (the prefetch session by a worker at
  /// its request boundary, so Submit never takes the manager's lock): an
  /// in-flight request keeps its version across a concurrent swap, which
  /// is the session-drain contract the reorganizer's retirement waits on.
  /// Mutations and background reorganizations may run concurrently with
  /// serving.
  QueryService(ReadStore* store, const QueryServiceOptions& options);

  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one request; never blocks on execution. The returned ticket
  /// completes with the query's response — or immediately with a typed
  /// Overloaded status when admission control refuses it (queue full,
  /// tenant over rate/depth allowance, or service shutting down), or with
  /// NotFound when the store does not contain the origin node.
  ServeTicketPtr Submit(ServeRequest request);

  /// Stops the service. `drain` = true executes everything already
  /// queued before returning; false cancels queued-but-unstarted requests
  /// (their tickets complete with Overloaded("cancelled: ...")). Either
  /// way no new request is accepted once Shutdown begins, in-flight
  /// requests run to completion, and every ever-issued ticket is complete
  /// when Shutdown returns. Every thread is joined and every session
  /// closed (releasing its snapshot version pin); the session totals stay
  /// readable.
  /// Idempotent; the destructor drains.
  void Shutdown(bool drain = true);

  /// Attaches the "serve.*" metric family (null detaches). Call while
  /// quiescent, like every other SetMetrics in the stack; the handles are
  /// cached so a detached service pays one null test per event.
  void SetMetrics(MetricsRegistry* metrics);

  /// Sum of the data-page IoStats of every session the service owns: the
  /// workers' and the prefetch session's, whose read-ahead loads it is
  /// charged (a worker's first fetch of such a page counts as its
  /// ahead_misses). With every read going through the sessions, `reads`
  /// equals the file's global disk-read delta over the service's
  /// lifetime. Call while quiescent (after Shutdown, for instance).
  IoStats TotalSessionIoStats() const;
  /// Same for hierarchy-overlay reads.
  IoStats TotalSessionHierarchyIoStats() const;

  /// Monotonic service counters (safe to sample any time).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;   // refused without execution: admission
                             // rejections, invalid requests, cancellations,
                             // deadline/breaker shedding
    uint64_t completed = 0;  // executed requests (any typed outcome)
    /// Always 0; kept only so perfbench compiles; ROADMAP item 1 deletes it.
    uint64_t batched_requests = 0;
    uint64_t shed_deadline = 0;     // of rejected: expired before execution
    uint64_t shed_breaker = 0;      // of rejected: circuit breaker open
    uint64_t retries = 0;           // re-execution attempts performed
    uint64_t prefetched = 0;  // of admitted: queued behind busy workers,
                              // their reads issued ahead by Submit
  };
  Stats GetStats() const;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Requests in the run queue (sampled under the queue lock).
  size_t queue_depth();

 private:
  struct Worker {
    std::unique_ptr<ReadSession> session;
    /// Lifecycle context re-stamped per attempt of a deadlined request,
    /// and jitter stream for retry backoff. Worker-thread-only.
    RequestContext ctx;
    Random rng;
  };

  void WorkerLoop(Worker* worker);
  /// Executes one popped request (shedding it if its deadline passed in
  /// the queue, retrying retryable failures) and fulfills its ticket.
  void Execute(Worker* worker, QueuedRequest* item);
  /// One attempt of `request` through its single-query operator on the
  /// worker's session, under the request's deadline if it has one.
  static ServeResponse Run(Worker* worker, const ServeRequest& request);
  void CancelAll(std::vector<QueuedRequest>* items, const char* why);
  /// Sets the serve.queue_depth gauge to the run queue's depth (queue_mu_
  /// held).
  void PublishQueueDepth();
  /// `total` plus `stat` of every open session.
  IoStats SumSessions(IoStats (AccessMethod::*stat)() const,
                      IoStats total) const;

  /// Microseconds on the steady clock (the service's common time base).
  static uint64_t NowMicros();

  ReadStore* store_;
  QueryServiceOptions options_;

  /// Per-failure-class load shedding; non-null iff breaker_trip_threshold
  /// > 0. Leaf-level lock, consulted at admission and fed by executions.
  std::unique_ptr<CircuitBreaker> breaker_;

  /// The run queue shared by every worker, the one count of queued
  /// requests: admission reads its depths under the same queue_mu_ it
  /// enqueues under. stop_ (set once Shutdown begins) is stored under
  /// queue_mu_; the retry loop also reads it lock-free.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  AdmissionController admission_;
  DrrScheduler scheduler_;
  std::atomic<bool> stop_{false};
  size_t idle_workers_ = 0;  // workers waiting for a request (queue_mu_)

  std::vector<std::unique_ptr<Worker>> workers_;
  /// The session Submit issues admission hints through, and that workers
  /// refresh at their request boundaries; used only under prefetch_mu_,
  /// which Submit and the workers take only by try_lock (a worker's
  /// refresh may wait for the snapshot manager's lock).
  std::unique_ptr<ReadSession> prefetch_session_;
  std::mutex prefetch_mu_;
  /// The worker pool: one long-lived WorkerLoop task per worker.
  std::unique_ptr<ThreadPool> pool_;
  /// Counters of the sessions Shutdown closed.
  IoStats retired_io_;
  IoStats retired_hier_io_;

  std::atomic<uint64_t> n_submitted_{0};
  std::atomic<uint64_t> n_admitted_{0};
  std::atomic<uint64_t> n_rejected_{0};
  std::atomic<uint64_t> n_completed_{0};
  std::atomic<uint64_t> n_shed_deadline_{0};
  std::atomic<uint64_t> n_shed_breaker_{0};
  std::atomic<uint64_t> n_retries_{0};
  std::atomic<uint64_t> n_prefetched_{0};

  /// Cached "serve.*" metric handles (null = metrics detached).
  MetricCounter* m_submitted_ = nullptr;
  MetricCounter* m_admitted_ = nullptr;
  MetricCounter* m_rejected_queue_ = nullptr;
  MetricCounter* m_rejected_tenant_ = nullptr;
  MetricCounter* m_rejected_rate_ = nullptr;
  MetricCounter* m_rejected_shutdown_ = nullptr;
  MetricCounter* m_completed_ = nullptr;
  MetricCounter* m_shed_deadline_ = nullptr;
  MetricCounter* m_shed_breaker_ = nullptr;
  MetricCounter* m_retries_ = nullptr;
  MetricGauge* g_queue_depth_ = nullptr;
  MetricHistogram* h_queue_wait_us_ = nullptr;
  MetricHistogram* h_exec_us_ = nullptr;
  MetricHistogram* h_latency_us_ = nullptr;
};

}  // namespace serve
}  // namespace ccam

#endif  // CCAM_SERVE_QUERY_SERVICE_H_
