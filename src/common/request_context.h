#ifndef CCAM_COMMON_REQUEST_CONTEXT_H_
#define CCAM_COMMON_REQUEST_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace ccam {

/// Per-request lifecycle token: an absolute steady-clock deadline plus a
/// cooperative cancellation flag. A RequestContext is attached to a session
/// (QuerySession / SnapshotSession) for the duration of one request; the
/// query operators poll `Check()` at page-I/O and settle-loop boundaries and
/// return a typed DeadlineExceeded / Cancelled status instead of running to
/// completion.
///
/// Cancellation is cooperative: `Cancel()` only raises a flag — nothing is
/// interrupted asynchronously, so operators always unwind through their
/// normal return paths with invariants intact. Cancellation takes precedence
/// over deadline expiry when both apply (the caller explicitly asked).
///
/// Thread model: `Cancel()` may be called from any thread (it is how a
/// coordinator reaches into a running worker); `Check()` is called from the
/// single thread executing the request. Both are lock-free.
class RequestContext {
 public:
  /// Microseconds on the steady clock — the same scale every deadline in
  /// this file uses. Monotonic, unaffected by wall-clock adjustments.
  static int64_t NowMicros() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// No deadline, not cancelled.
  RequestContext() = default;

  /// Absolute deadline in NowMicros() scale; 0 means "no deadline".
  explicit RequestContext(int64_t deadline_us) : deadline_us_(deadline_us) {}

  /// Context that expires `budget_us` from now.
  static RequestContext WithTimeout(int64_t budget_us) {
    return RequestContext(NowMicros() + budget_us);
  }

  /// Sets (or clears, with 0) the absolute deadline. Not thread-safe
  /// against a concurrent Check(); set it before handing the context to
  /// the executing thread.
  void SetDeadline(int64_t deadline_us) { deadline_us_ = deadline_us; }
  int64_t deadline_us() const { return deadline_us_; }

  /// Raises the cancellation flag. Safe from any thread, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// True once the deadline (if any) has passed.
  bool expired() const {
    return deadline_us_ != 0 && NowMicros() >= deadline_us_;
  }

  /// The cooperative poll: OK while the request may keep running, a typed
  /// terminal status once it must stop. Cancellation wins over deadline
  /// expiry when both apply.
  Status Check() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("request cancelled");
    }
    if (expired()) {
      return Status::DeadlineExceeded(
          "deadline passed " +
          std::to_string(NowMicros() - deadline_us_) + "us ago");
    }
    return Status::OK();
  }

  /// Rearms the context for reuse (serve workers keep one per worker and
  /// re-stamp it per request instead of allocating).
  void Reset(int64_t deadline_us = 0) {
    deadline_us_ = deadline_us;
    cancelled_.store(false, std::memory_order_relaxed);
  }

 private:
  int64_t deadline_us_ = 0;
  std::atomic<bool> cancelled_{false};
};

}  // namespace ccam

#endif  // CCAM_COMMON_REQUEST_CONTEXT_H_
