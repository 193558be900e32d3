#ifndef CCAM_SERVE_SCHEDULER_H_
#define CCAM_SERVE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/serve/request.h"
#include "src/storage/page.h"

namespace ccam {
namespace serve {

/// One queued request, annotated with its region (the data page of its
/// origin node) and its enqueue timestamp for queue-wait accounting.
struct QueuedRequest {
  ServeRequest request;
  ServeTicketPtr ticket;
  PageId region = kInvalidPageId;
  uint64_t enqueue_us = 0;
};

/// Deficit-round-robin fair scheduler with region-batched dequeue. The
/// query service owns one instance, its run queue, guarded by the
/// service's queue lock and popped by every worker, so fairness is global
/// across workers. Requests are kept in per-tenant FIFO queues and served
/// in DRR order: tenants take turns, each turn adds `quantum` to the tenant's
/// deficit, and a tenant may start one batch per unit of deficit. A tenant
/// flooding its queue therefore cannot crowd out others — it just deepens
/// its own backlog — while an idle tenant carries no deficit (deficits
/// reset when a tenant's queue drains, the classic DRR rule that prevents
/// saved-up bursts).
///
/// Dequeue is region-batched: PopBatch picks the next request by DRR,
/// then greedily gathers more queued requests for the *same region* — from
/// the same tenant first, then from every other active tenant — up to the
/// batch cap. Cross-tenant fills are charged to their own tenant's deficit
/// (which may go briefly negative; the tenant is then skipped on its next
/// turns until quantum accrual catches up), so opportunistic batching
/// shifts *when* a tenant's requests run, never *how many* run per round.
class DrrScheduler {
 public:
  /// `quantum` = requests a tenant may start per DRR turn.
  explicit DrrScheduler(uint32_t quantum = 8)
      : quantum_(quantum > 0 ? quantum : 1) {}

  void Enqueue(QueuedRequest item);

  /// Pops the next DRR-selected request plus up to `max_batch - 1` more
  /// requests of the same region into `out`. Returns the number popped
  /// (0 = scheduler empty). All popped items share one region.
  size_t PopBatch(size_t max_batch, std::vector<QueuedRequest>* out);

  /// Pops every queued request (shutdown cancellation path).
  void DrainAll(std::vector<QueuedRequest>* out);

  size_t depth() const { return depth_; }
  bool empty() const { return depth_ == 0; }

  /// Queued requests of one tenant (admission's per-tenant gate).
  size_t TenantDepth(uint32_t tenant) const;

 private:
  struct TenantQueue {
    std::deque<QueuedRequest> items;
    int64_t deficit = 0;
    bool in_ring = false;
  };

  /// Advances the DRR ring until a tenant with work and deficit >= 1 is
  /// found, adding quantum on each first visit. Returns nullptr when no
  /// tenant can be served (scheduler empty).
  TenantQueue* NextEligibleTenant();

  /// Pops up to `max` additional queued requests of region `region` into
  /// `out`, charging each to its own tenant's deficit.
  size_t PopSameRegion(PageId region, size_t max,
                       std::vector<QueuedRequest>* out);

  /// Removes drained tenants from the ring and resets their deficit.
  void CompactRing();

  uint32_t quantum_;
  size_t depth_ = 0;
  std::unordered_map<uint32_t, TenantQueue> tenants_;
  std::vector<uint32_t> ring_;  // active tenants, round-robin order
  size_t cursor_ = 0;
  /// True while the cursor tenant is mid-turn: quantum is added once per
  /// turn (on arrival), not once per PopBatch call.
  bool turn_started_ = false;
};

}  // namespace serve
}  // namespace ccam

#endif  // CCAM_SERVE_SCHEDULER_H_
