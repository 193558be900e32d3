#include "src/serve/query_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "src/query/aggregate.h"
#include "src/query/hierarchy.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"

namespace ccam {
namespace serve {

const char* ServeOpName(ServeOp op) {
  switch (op) {
    case ServeOp::kRouteEval:
      return "route_eval";
    case ServeOp::kAStar:
      return "astar";
    case ServeOp::kHierarchy:
      return "hierarchy";
    case ServeOp::kAggregate:
      return "aggregate";
  }
  return "unknown";
}

namespace {

/// The reads `request`'s operator issues first, from the operator's own
/// hint helper; CH reads only the overlay and hints nothing. The request
/// has an origin, so an A* request has its OD pair.
void AppendRequestHints(const ServeRequest& request,
                        std::vector<ReadHint>* hints) {
  const std::vector<NodeId>& od = request.route.nodes;
  switch (request.op) {
    case ServeOp::kRouteEval:
      AppendRouteHints(request.route, hints);
      break;
    case ServeOp::kAStar:
      AppendSearchEndpointHints(od.back(), {&od.front(), 1}, hints);
      break;
    case ServeOp::kHierarchy:
      break;
    case ServeOp::kAggregate:
      AppendRouteUnitHints(request.unit, hints);
      break;
  }
}

}  // namespace

uint64_t QueryService::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

QueryService::QueryService(ReadStore* store,
                           const QueryServiceOptions& options)
    : store_(store),
      options_(options),
      admission_(AdmissionController::Options{
          options.max_queue_depth, options.max_tenant_depth,
          options.tenant_rate, options.tenant_burst}) {
  if (options_.retry_max_attempts < 1) options_.retry_max_attempts = 1;
  if (options_.breaker_trip_threshold > 0) {
    breaker_ = std::make_unique<CircuitBreaker>(CircuitBreaker::Options{
        options_.breaker_trip_threshold, options_.breaker_cooldown_us});
  }
  // The first worker's pool sizes the rest: one worker per shard by
  // default, and never more than a shard has frames.
  std::unique_ptr<ReadSession> first = store_->OpenReadSession();
  const BufferPool* data_pool = first->buffer_pool();
  const size_t shards = data_pool->num_shards();
  const int n = static_cast<int>(std::min<size_t>(
      options_.num_workers > 0 ? options_.num_workers : shards,
      std::max<size_t>(1, data_pool->capacity() / shards)));
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>();
    w->rng = Random(options_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    w->session = i == 0 ? std::move(first) : store_->OpenReadSession();
    workers_.push_back(std::move(w));
  }
  prefetch_session_ = store_->OpenReadSession();
  pool_ = std::make_unique<ThreadPool>(n);
  for (auto& w : workers_) {
    Worker* wp = w.get();
    pool_->Submit([this, wp] { WorkerLoop(wp); });
  }
}

QueryService::~QueryService() { Shutdown(/*drain=*/true); }

void QueryService::SetMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_submitted_ = m_admitted_ = m_rejected_queue_ = m_rejected_tenant_ =
        m_rejected_rate_ = m_rejected_shutdown_ = m_completed_ =
            m_shed_deadline_ = m_shed_breaker_ = m_retries_ = nullptr;
    g_queue_depth_ = nullptr;
    h_queue_wait_us_ = h_exec_us_ = h_latency_us_ = nullptr;
    return;
  }
  m_submitted_ = metrics->GetCounter("serve.submitted");
  m_admitted_ = metrics->GetCounter("serve.admitted");
  m_rejected_queue_ = metrics->GetCounter("serve.rejected_queue_full");
  m_rejected_tenant_ = metrics->GetCounter("serve.rejected_tenant_depth");
  m_rejected_rate_ = metrics->GetCounter("serve.rejected_rate_limited");
  m_rejected_shutdown_ = metrics->GetCounter("serve.rejected_shutdown");
  m_completed_ = metrics->GetCounter("serve.completed");
  m_shed_deadline_ = metrics->GetCounter("serve.shed_deadline");
  m_shed_breaker_ = metrics->GetCounter("serve.shed_breaker");
  m_retries_ = metrics->GetCounter("serve.retries");
  g_queue_depth_ = metrics->GetGauge("serve.queue_depth");
  h_queue_wait_us_ = metrics->GetHistogram("serve.queue_wait_us");
  h_exec_us_ = metrics->GetHistogram("serve.exec_us");
  h_latency_us_ = metrics->GetHistogram("serve.latency_us");
}

ServeTicketPtr QueryService::Submit(ServeRequest request) {
  auto ticket = std::make_shared<ServeTicket>();
  n_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (m_submitted_ != nullptr) m_submitted_->Inc();

  auto reject = [&](Status status, MetricCounter* counter) {
    n_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (counter != nullptr) counter->Inc();
    ServeResponse response;
    response.status = std::move(status);
    response.done_us = NowMicros();
    ticket->Fulfill(std::move(response));
    return ticket;
  };

  const NodeId origin = request.Origin();
  if (origin == kInvalidNodeId) {
    return reject(Status::InvalidArgument("request has no origin node"),
                  nullptr);
  }
  if (!store_->Contains(origin)) {
    return reject(Status::NotFound("node " + std::to_string(origin) +
                                   " is not stored"),
                  nullptr);
  }

  const uint64_t now = NowMicros();
  // Shed already-expired requests before they cost a queue slot: the
  // client's budget is gone, executing would only delay live traffic.
  if (request.deadline_us != 0 &&
      static_cast<int64_t>(now) >= request.deadline_us) {
    n_shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    return reject(Status::DeadlineExceeded("expired before admission"),
                  m_shed_deadline_);
  }
  if (breaker_ != nullptr) {
    Status allow = breaker_->Allow(static_cast<int64_t>(now));
    if (!allow.ok()) {
      n_shed_breaker_.fetch_add(1, std::memory_order_relaxed);
      return reject(std::move(allow), m_shed_breaker_);
    }
  }
  // Built before the request moves into the queue; issued only if the
  // request waits there.
  std::vector<ReadHint> hints;
  AppendRequestHints(request, &hints);
  bool waits = false;  // queued behind busy workers
  Status admit;
  AdmissionController::RejectGate gate = AdmissionController::RejectGate::kNone;
  {
    // One critical section covers the admission decision and the enqueue,
    // so the depths admission reads are the queue's own, and a cancelling
    // Shutdown can never slip between "admitted" and "queued" and leave a
    // ticket nobody will fulfill.
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_.load(std::memory_order_relaxed)) {
      admit = Status::Overloaded("service shutting down");
    } else {
      admit = admission_.Admit(request.tenant, now, scheduler_.depth(),
                               scheduler_.TenantDepth(request.tenant), &gate);
    }
    if (admit.ok()) {
      QueuedRequest item;
      item.request = std::move(request);
      item.ticket = ticket;
      item.enqueue_us = now;
      // An idle worker takes the request at once and issues its reads
      // itself; only a request that waits has reads worth starting early.
      waits = scheduler_.depth() >= idle_workers_;
      scheduler_.Enqueue(std::move(item));
      PublishQueueDepth();
    }
  }
  if (!admit.ok()) {
    MetricCounter* counter = nullptr;
    switch (gate) {
      case AdmissionController::RejectGate::kQueueFull:
        counter = m_rejected_queue_;
        break;
      case AdmissionController::RejectGate::kTenantDepth:
        counter = m_rejected_tenant_;
        break;
      case AdmissionController::RejectGate::kRateLimit:
        counter = m_rejected_rate_;
        break;
      case AdmissionController::RejectGate::kNone:  // shutting down
        counter = m_rejected_shutdown_;
        break;
    }
    return reject(std::move(admit), counter);
  }
  n_admitted_.fetch_add(1, std::memory_order_relaxed);
  if (m_admitted_ != nullptr) m_admitted_->Inc();
  queue_cv_.notify_one();
  if (waits && !hints.empty()) {
    // Issuing waits for no device: the pages land stamped, and the worker
    // that pops the request waits only for what is still in flight. A
    // worker refreshing the session may hold prefetch_mu_ while a writer
    // holds the snapshot manager's lock, so Submit only tries it.
    std::unique_lock<std::mutex> lock(prefetch_mu_, std::try_to_lock);
    if (lock.owns_lock() && prefetch_session_ != nullptr) {
      prefetch_session_->RebindToCurrentThread();
      prefetch_session_->ReadAhead(hints.data(), hints.size());
      n_prefetched_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return ticket;
}

void QueryService::WorkerLoop(Worker* worker) {
  // The service constructed this session on its own thread; the worker
  // adopts it here, at the single-threaded handoff.
  worker->session->RebindToCurrentThread();
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (;;) {
    // Every enqueue notifies one waiter and a worker re-checks the queue
    // before every wait, so no worker sleeps while a request is queued.
    ++idle_workers_;
    queue_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) || !scheduler_.empty();
    });
    --idle_workers_;
    // An empty queue here means stop_ is set: the backlog is done.
    QueuedRequest item;
    if (!scheduler_.Pop(&item)) return;
    PublishQueueDepth();
    lock.unlock();
    // Request boundary: re-acquire the current snapshot version before
    // executing. An in-flight request never migrates versions — the
    // refresh happens strictly between requests, with no pins held — so a
    // reader drains off a retired version one request after a swap
    // publishes. The prefetch session moves along here too, unless Submit
    // is issuing through it.
    worker->session->Refresh();
    {
      std::unique_lock<std::mutex> prefetch(prefetch_mu_, std::try_to_lock);
      if (prefetch.owns_lock()) {
        prefetch_session_->RebindToCurrentThread();
        prefetch_session_->Refresh();
      }
    }
    Execute(worker, &item);
    lock.lock();
  }
}

ServeResponse QueryService::Run(Worker* worker, const ServeRequest& request) {
  ReadSession* session = worker->session.get();
  // A deadline-free request runs with no context attached: exactly the
  // pre-lifecycle read path.
  if (request.deadline_us != 0) {
    worker->ctx.Reset(request.deadline_us);
    session->SetRequestContext(&worker->ctx);
  }
  ServeResponse r;
  auto fill_search = [&r](Result<SearchResult> result) {
    if (!result.ok()) {
      r.status = result.status();
      return;
    }
    r.cost = result->cost;
    r.num_edges = result->path.empty() ? 0 : result->path.size() - 1;
    r.path = std::move(result->path);
  };
  // Submit admitted only requests with an origin, so OD pairs exist.
  const std::vector<NodeId>& od = request.route.nodes;
  switch (request.op) {
    case ServeOp::kRouteEval: {
      auto result = EvaluateRoute(session, request.route);
      if (result.ok()) {
        r.cost = result->total_cost;
        r.num_edges = result->num_edges;
      } else {
        r.status = result.status();
      }
      break;
    }
    case ServeOp::kAStar:
      fill_search(ShortestPathAStar(session, od.front(), od.back()));
      break;
    case ServeOp::kHierarchy:
      fill_search(ShortestPathCH(session, od.front(), od.back()));
      break;
    case ServeOp::kAggregate: {
      auto result = AggregateRouteUnit(session, request.unit);
      if (result.ok()) {
        r.cost = result->total_edge_cost;
        r.num_edges = result->num_edges;
      } else {
        r.status = result.status();
      }
      break;
    }
  }
  session->SetRequestContext(nullptr);
  return r;
}

void QueryService::Execute(Worker* worker, QueuedRequest* item) {
  const uint64_t start_us = NowMicros();
  const int64_t deadline = item->request.deadline_us;

  // Shed a request whose deadline expired while it sat in the queue: it
  // counts as rejected (shed without execution), keeping
  // completed + rejected == submitted exact.
  if (deadline != 0 && static_cast<int64_t>(start_us) >= deadline) {
    ServeResponse response;
    response.status = Status::DeadlineExceeded("expired in queue");
    response.done_us = start_us;
    item->ticket->Fulfill(std::move(response));
    n_rejected_.fetch_add(1, std::memory_order_relaxed);
    n_shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    if (m_shed_deadline_ != nullptr) m_shed_deadline_->Inc();
    return;
  }

  ServeResponse r = Run(worker, item->request);

  // Retry retryable failures (transient transport faults) with jittered
  // backoff. Deterministic failures and lifecycle statuses never
  // re-execute, and a retry is skipped once the request's deadline passed
  // or the service is stopping. Without faults no status is retryable and
  // this costs one branch per request.
  for (int attempt = 1; attempt < options_.retry_max_attempts &&
                        r.status.IsRetryable();
       ++attempt) {
    if (stop_.load(std::memory_order_acquire)) break;
    if (deadline != 0 && RequestContext::NowMicros() >= deadline) break;
    if (options_.retry_backoff_us > 0) {
      const uint32_t cap =
          options_.retry_backoff_us * static_cast<uint32_t>(attempt);
      std::this_thread::sleep_for(
          std::chrono::microseconds(worker->rng.Uniform(cap) + 1));
    }
    n_retries_.fetch_add(1, std::memory_order_relaxed);
    if (m_retries_ != nullptr) m_retries_->Inc();
    r = Run(worker, item->request);
  }

  // Executed outcomes feed the per-class breaker: streaks of I/O,
  // corruption, or deadline failures trip admission into shedding.
  if (breaker_ != nullptr) {
    breaker_->OnResult(r.status, RequestContext::NowMicros());
  }

  const uint64_t end_us = NowMicros();
  r.queue_us = start_us > item->enqueue_us ? start_us - item->enqueue_us : 0;
  r.batch_size = 1;
  r.done_us = end_us;
  if (h_queue_wait_us_ != nullptr) h_queue_wait_us_->Record(r.queue_us);
  if (h_latency_us_ != nullptr) {
    h_latency_us_->Record(
        end_us > item->enqueue_us ? end_us - item->enqueue_us : 0);
  }
  if (h_exec_us_ != nullptr) h_exec_us_->Record(end_us - start_us);
  item->ticket->Fulfill(std::move(r));
  n_completed_.fetch_add(1, std::memory_order_relaxed);
  if (m_completed_ != nullptr) m_completed_->Inc();
}

void QueryService::CancelAll(std::vector<QueuedRequest>* items,
                             const char* why) {
  if (items->empty()) return;
  const uint64_t now = NowMicros();
  for (QueuedRequest& item : *items) {
    ServeResponse response;
    response.status = Status::Overloaded(why);
    response.done_us = now;
    item.ticket->Fulfill(std::move(response));
  }
  n_rejected_.fetch_add(items->size(), std::memory_order_relaxed);
  if (m_rejected_shutdown_ != nullptr) {
    m_rejected_shutdown_->Inc(items->size());
  }
}

void QueryService::PublishQueueDepth() {
  if (g_queue_depth_ != nullptr) {
    g_queue_depth_->Set(static_cast<int64_t>(scheduler_.depth()));
  }
}

void QueryService::Shutdown(bool drain) {
  std::vector<QueuedRequest> cancelled;
  {
    // stop_ is stored and notified under queue_mu_: Submit admits nothing
    // after it, and a worker that has just found the predicate false is
    // either not yet past its check (and will see stop_) or already
    // blocked (and gets the notify).
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_.load(std::memory_order_relaxed)) return;
    if (!drain) {
      scheduler_.DrainAll(&cancelled);
      PublishQueueDepth();
    }
    stop_.store(true, std::memory_order_release);
    queue_cv_.notify_all();
  }
  CancelAll(&cancelled, "cancelled: service shutting down");
  // Workers exit once the queue is empty (immediately after a cancelling
  // drain; after executing the backlog otherwise); destroying the pool
  // joins them all.
  pool_.reset();
  // Close every session, which releases a snapshot session's version pin;
  // its counters stay in the totals.
  auto retire = [this](std::unique_ptr<ReadSession>* session) {
    retired_io_ = SumStats(retired_io_, (*session)->DataIoStats());
    retired_hier_io_ =
        SumStats(retired_hier_io_, (*session)->HierarchyIoStats());
    session->reset();
  };
  for (auto& w : workers_) retire(&w->session);
  // A Submit admitted before stop_ may still be issuing hints.
  std::lock_guard<std::mutex> lock(prefetch_mu_);
  retire(&prefetch_session_);
}

IoStats QueryService::SumSessions(IoStats (AccessMethod::*stat)() const,
                                  IoStats total) const {
  for (const auto& w : workers_) {
    if (w->session != nullptr) {
      total = SumStats(total, (w->session.get()->*stat)());
    }
  }
  if (prefetch_session_ != nullptr) {
    total = SumStats(total, (prefetch_session_.get()->*stat)());
  }
  return total;
}

IoStats QueryService::TotalSessionIoStats() const {
  return SumSessions(&AccessMethod::DataIoStats, retired_io_);
}

IoStats QueryService::TotalSessionHierarchyIoStats() const {
  return SumSessions(&AccessMethod::HierarchyIoStats, retired_hier_io_);
}

QueryService::Stats QueryService::GetStats() const {
  Stats stats;
  stats.submitted = n_submitted_.load(std::memory_order_relaxed);
  stats.admitted = n_admitted_.load(std::memory_order_relaxed);
  stats.rejected = n_rejected_.load(std::memory_order_relaxed);
  stats.completed = n_completed_.load(std::memory_order_relaxed);
  stats.shed_deadline = n_shed_deadline_.load(std::memory_order_relaxed);
  stats.shed_breaker = n_shed_breaker_.load(std::memory_order_relaxed);
  stats.retries = n_retries_.load(std::memory_order_relaxed);
  stats.prefetched = n_prefetched_.load(std::memory_order_relaxed);
  return stats;
}

size_t QueryService::queue_depth() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return scheduler_.depth();
}

}  // namespace serve
}  // namespace ccam
