#ifndef CCAM_SERVE_SCHEDULER_H_
#define CCAM_SERVE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/serve/request.h"

namespace ccam {
namespace serve {

/// One queued request and its enqueue timestamp for queue-wait
/// accounting.
struct QueuedRequest {
  ServeRequest request;
  ServeTicketPtr ticket;
  uint64_t enqueue_us = 0;
};

/// Deficit-round-robin fair scheduler over unit-cost requests. The query
/// service owns one instance, its run queue, guarded by the service's
/// queue lock and popped by every worker, so fairness is global across
/// workers. Requests are kept in per-tenant FIFO queues and served in DRR
/// order: backlogged tenants take turns, and a turn starts up to `quantum`
/// requests. A tenant flooding its queue therefore cannot crowd out
/// others — it just deepens its own backlog — while a tenant whose queue
/// drains leaves the ring with its turn's unused allowance forfeited (the
/// classic DRR rule that prevents saved-up bursts).
class DrrScheduler {
 public:
  /// `quantum` = requests a tenant may start per DRR turn.
  explicit DrrScheduler(uint32_t quantum = 8)
      : quantum_(quantum > 0 ? quantum : 1) {}

  void Enqueue(QueuedRequest item);

  /// Pops the next DRR-selected request into `out`. Returns false (and
  /// leaves `out` alone) when the scheduler is empty.
  bool Pop(QueuedRequest* out);

  /// Pops every queued request (shutdown cancellation path).
  void DrainAll(std::vector<QueuedRequest>* out);

  size_t depth() const { return depth_; }
  bool empty() const { return depth_ == 0; }

  /// Queued requests of one tenant (admission's per-tenant gate).
  size_t TenantDepth(uint32_t tenant) const;

 private:
  uint32_t quantum_;
  size_t depth_ = 0;
  std::unordered_map<uint32_t, std::deque<QueuedRequest>> tenants_;
  /// Tenants with queued requests, in round-robin order: a tenant joins at
  /// the back when its queue becomes non-empty and leaves when it drains.
  std::vector<uint32_t> ring_;
  size_t cursor_ = 0;  // the tenant whose turn it is
  /// Requests the cursor tenant may still start this turn (0 = its turn
  /// has not started).
  uint32_t turn_left_ = 0;
};

}  // namespace serve
}  // namespace ccam

#endif  // CCAM_SERVE_SCHEDULER_H_
