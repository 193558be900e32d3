#ifndef CCAM_SERVE_REQUEST_H_
#define CCAM_SERVE_REQUEST_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/graph/route.h"
#include "src/query/aggregate.h"
#include "src/storage/record.h"

namespace ccam {
namespace serve {

/// Query operations the service executes. Every operation maps onto one of
/// the read-only drivers in src/query; the set matches the aggregate-query
/// workload the paper's IVHS scenario serves to many concurrent users.
enum class ServeOp : uint8_t {
  /// EvaluateRoute over `route` (Figure 6's operation).
  kRouteEval,
  /// ShortestPathAStar from route.front() to route.back().
  kAStar,
  /// ShortestPathCH from route.front() to route.back() (needs an overlay).
  kHierarchy,
  /// AggregateRouteUnit over `unit`.
  kAggregate,
};

const char* ServeOpName(ServeOp op);

/// One client request.
struct ServeRequest {
  ServeOp op = ServeOp::kRouteEval;
  /// Paying tenant (admission control and fair scheduling are per-tenant).
  uint32_t tenant = 0;
  /// Simulated end user issuing the request — an opaque tag from a space
  /// of millions; carried through to the response for client bookkeeping.
  uint64_t user = 0;
  /// Route for kRouteEval (full node sequence) and the OD pair for
  /// kAStar / kHierarchy (front() and back()).
  Route route;
  /// Route-unit for kAggregate.
  RouteUnit unit;

  /// Absolute completion deadline in steady-clock microseconds
  /// (RequestContext::NowMicros scale); 0 = no deadline. An expired
  /// request is shed at admission or dequeue with a typed
  /// DeadlineExceeded rejection; one that expires mid-execution unwinds
  /// cooperatively with the same status. Each request runs under its own
  /// deadline alone.
  int64_t deadline_us = 0;

  /// The node the request's first read starts from: admission rejects a
  /// request whose store does not contain it.
  NodeId Origin() const {
    if (op == ServeOp::kAggregate) {
      return unit.edges.empty() ? kInvalidNodeId : unit.edges.front().first;
    }
    return route.nodes.empty() ? kInvalidNodeId : route.nodes.front();
  }
};

/// Completion record of one request. The semantic payload (`cost`,
/// `num_edges`, `path`) is whatever the underlying driver produced, flattened
/// so the equivalence oracle can compare served and serial runs field by
/// field.
struct ServeResponse {
  Status status;
  double cost = 0.0;        // total route / path / aggregate edge cost
  uint64_t num_edges = 0;   // edges traversed / aggregated
  std::vector<NodeId> path;  // kAStar / kHierarchy only
  /// Accounting: microseconds queued before execution started.
  uint64_t queue_us = 0;
  /// 1 when executed, 0 when rejected.
  /// Kept only so perfbench compiles; ROADMAP item 1 deletes it.
  uint32_t batch_size = 0;
  /// Completion time on the service's steady-microsecond clock
  /// (QueryService::NowMicros scale). A client that timestamps Submit on
  /// the same clock gets exact end-to-end latency without having to
  /// observe the completion itself — the load generator relies on this.
  uint64_t done_us = 0;
};

/// Shared completion slot returned by QueryService::Submit. The service
/// fulfills it exactly once — from a worker thread on execution, or
/// immediately on the submit path when admission rejects the request —
/// and clients block on Wait(). Rejections are typed: a rejected ticket's
/// status IsOverloaded().
class ServeTicket {
 public:
  /// Blocks until the response is ready and returns it.
  const ServeResponse& Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_; });
    return response_;
  }

  bool done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

  /// Called by the service exactly once per ticket.
  void Fulfill(ServeResponse response) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      response_ = std::move(response);
      done_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  ServeResponse response_;
};

using ServeTicketPtr = std::shared_ptr<ServeTicket>;

}  // namespace serve
}  // namespace ccam

#endif  // CCAM_SERVE_REQUEST_H_
