#ifndef CCAM_SERVE_ADMISSION_H_
#define CCAM_SERVE_ADMISSION_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/common/status.h"

namespace ccam {
namespace serve {

/// Classic token bucket: `rate` tokens per second accrue continuously up
/// to a cap of `burst`; a request consumes one token or is refused. Time
/// is passed in explicitly (microseconds on any monotonic scale), which
/// keeps the arithmetic deterministic and unit-testable without sleeping.
///
/// The ledger is integer micro-tokens (1 token = 10^6 micro-tokens) with
/// an explicit sub-micro-token carry: each refill accrues
/// `rate_micro_per_sec * dt_us + carry` and keeps the remainder modulo
/// 10^6 for the next refill, so no fraction of a token is ever truncated
/// away — over any horizon the admitted count is exactly
/// floor(rate * elapsed) + initial burst, drift-free at high rates and
/// fine ticks alike. The burst capacity is floored at one token: a cap
/// below the cost of a single request could otherwise never admit
/// anything (the default burst is `rate` seconds' worth, so sub-1-qps
/// tenants used to starve permanently).
///
/// Not thread-safe: the admission controller serializes access.
class TokenBucket {
 public:
  /// Micro-tokens per token: the ledger's fixed-point scale.
  static constexpr uint64_t kScale = 1'000'000;

  /// `rate` <= 0 disables limiting (TryAcquire always succeeds).
  TokenBucket(double rate, double burst)
      : rate_upus_(rate <= 0.0 ? 0
                               : static_cast<uint64_t>(rate * 1e6 + 0.5)),
        capacity_u_(burst <= 1.0
                        ? kScale
                        : static_cast<uint64_t>(burst * kScale + 0.5)),
        tokens_u_(capacity_u_) {}

  /// Consumes one token accrued by `now_us` if available.
  bool TryAcquire(uint64_t now_us) {
    if (rate_upus_ == 0) return true;
    if (now_us > last_us_) {
      // rate_upus_ is micro-tokens per second; dt is microseconds. The
      // product is micro-token-microseconds, divided down by 10^6 with
      // the remainder carried — never truncated — into the next refill.
      unsigned __int128 accrued =
          static_cast<unsigned __int128>(rate_upus_) * (now_us - last_us_) +
          carry_upus_;
      unsigned __int128 whole = accrued / kScale;
      if (whole >= capacity_u_ - tokens_u_) {
        tokens_u_ = capacity_u_;  // full bucket forfeits the remainder
        carry_upus_ = 0;
      } else {
        tokens_u_ += static_cast<uint64_t>(whole);
        carry_upus_ = static_cast<uint64_t>(accrued % kScale);
      }
      last_us_ = now_us;
    }
    if (tokens_u_ < kScale) return false;
    tokens_u_ -= kScale;
    return true;
  }

  /// Whole-token view of the ledger (tests, introspection).
  double tokens() const {
    return static_cast<double>(tokens_u_) / static_cast<double>(kScale);
  }

 private:
  uint64_t rate_upus_;    // micro-tokens accrued per second; 0 = unlimited
  uint64_t capacity_u_;   // burst cap in micro-tokens, >= one token
  uint64_t tokens_u_;     // current balance in micro-tokens
  uint64_t carry_upus_ = 0;  // sub-micro-token remainder of the last refill
  uint64_t last_us_ = 0;
};

/// Per-tenant admission policy of the query service, applied on the submit
/// path before a request may enter the bounded queue. Three independent
/// gates, each with a typed Overloaded rejection:
///
///  * global queue depth   — the service's total backlog is bounded;
///  * per-tenant depth     — one tenant may only occupy a fraction of the
///                           queue, so a flooding tenant exhausts its own
///                           allowance while others keep being admitted
///                           (the anti-starvation half of fairness; the
///                           DRR scheduler is the service-order half);
///  * per-tenant rate      — a token bucket smoothing each tenant to its
///                           contracted request rate with bounded burst.
///
/// Keeps no count of its own: the run queue is the one ledger of queued
/// requests. Not thread-safe: the service calls Admit under its queue lock.
class AdmissionController {
 public:
  struct Options {
    /// Total queued-but-unexecuted requests across all tenants.
    size_t max_queue_depth = 1024;
    /// Queued requests any single tenant may hold. 0 = a quarter of
    /// max_queue_depth (so three misbehaving tenants still cannot squeeze
    /// a fourth out of the queue entirely).
    size_t max_tenant_depth = 0;
    /// Token-bucket rate per tenant in requests/second; <= 0 disables.
    double tenant_rate = 0.0;
    /// Token-bucket burst capacity; <= 0 defaults to tenant_rate (one
    /// second of burst).
    double tenant_burst = 0.0;
  };

  /// Which gate refused an arrival (for the service's rejection metrics).
  enum class RejectGate { kNone, kQueueFull, kTenantDepth, kRateLimit };

  explicit AdmissionController(const Options& options);

  /// Decides one arrival from `tenant` at monotonic time `now_us`, with
  /// `queued` requests in the run queue, `tenant_queued` of them the
  /// tenant's (the caller reads both under its queue lock). OK admits;
  /// otherwise a typed Overloaded status names the exhausted gate (and
  /// `gate`, when given, identifies it programmatically).
  Status Admit(uint32_t tenant, uint64_t now_us, size_t queued,
               size_t tenant_queued, RejectGate* gate = nullptr);

 private:
  Options options_;
  std::unordered_map<uint32_t, TokenBucket> buckets_;
};

}  // namespace serve
}  // namespace ccam

#endif  // CCAM_SERVE_ADMISSION_H_
