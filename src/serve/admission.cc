#include "src/serve/admission.h"

namespace ccam {
namespace serve {

AdmissionController::AdmissionController(const Options& options)
    : options_(options) {
  if (options_.max_tenant_depth == 0) {
    options_.max_tenant_depth = options_.max_queue_depth / 4;
    if (options_.max_tenant_depth == 0) options_.max_tenant_depth = 1;
  }
  if (options_.tenant_burst <= 0.0) {
    options_.tenant_burst = options_.tenant_rate;
  }
}

Status AdmissionController::Admit(uint32_t tenant, uint64_t now_us,
                                  size_t queued, size_t tenant_queued,
                                  RejectGate* gate) {
  if (gate != nullptr) *gate = RejectGate::kNone;
  if (queued >= options_.max_queue_depth) {
    if (gate != nullptr) *gate = RejectGate::kQueueFull;
    return Status::Overloaded("request queue full (" +
                              std::to_string(queued) + " queued)");
  }
  if (tenant_queued >= options_.max_tenant_depth) {
    if (gate != nullptr) *gate = RejectGate::kTenantDepth;
    return Status::Overloaded("tenant " + std::to_string(tenant) +
                              " queue allowance exhausted (" +
                              std::to_string(tenant_queued) + " queued)");
  }
  if (options_.tenant_rate > 0.0) {
    auto [bucket, inserted] = buckets_.try_emplace(
        tenant, options_.tenant_rate, options_.tenant_burst);
    (void)inserted;
    if (!bucket->second.TryAcquire(now_us)) {
      if (gate != nullptr) *gate = RejectGate::kRateLimit;
      return Status::Overloaded("tenant " + std::to_string(tenant) +
                                " over rate limit");
    }
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace ccam
