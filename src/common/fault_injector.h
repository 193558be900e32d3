#ifndef CCAM_COMMON_FAULT_INJECTOR_H_
#define CCAM_COMMON_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"

namespace ccam {

/// What an armed failpoint injects when its trigger fires.
struct FaultAction {
  enum class Kind {
    /// Fail the operation outright with `code`.
    kError,
    /// Partial transfer: only the first `bytes` bytes move. On a read this
    /// is a short read (the tail of the caller's buffer is filled with a
    /// garbage pattern); on a write it is a torn write (the page keeps its
    /// old tail).
    kShort,
    /// Device-full: fail with kNoSpace.
    kNoSpace,
    /// Simulated crash: a torn write of `bytes` bytes lands, then the
    /// device halts — every subsequent simulated I/O fails until
    /// DiskManager::ClearHalt(). Models killing the process mid-write.
    kCrash,
  };
  Kind kind = Kind::kError;
  Status::Code code = Status::Code::kIOError;
  size_t bytes = 0;  // partial-transfer size for kShort / kCrash
};

/// When an armed failpoint fires. Hits are counted from the moment the
/// point is armed; the first evaluation after arming is hit 1.
struct FaultTrigger {
  enum class Mode {
    kOnce,   // exactly on hit `n`, once
    kFrom,   // on every hit >= `n` (a permanent fault)
    kEvery,  // on hits n, 2n, 3n, ... (a periodic transient fault)
    kProb,   // independently with probability `p` per hit (PCG-seeded)
  };
  static FaultTrigger Once(uint64_t n) { return {Mode::kOnce, n, 0.0}; }
  static FaultTrigger From(uint64_t n) { return {Mode::kFrom, n, 0.0}; }
  static FaultTrigger Every(uint64_t n) { return {Mode::kEvery, n, 0.0}; }
  static FaultTrigger Prob(double p) { return {Mode::kProb, 0, p}; }

  Mode mode = Mode::kOnce;
  uint64_t n = 1;
  double p = 0.0;
};

/// One row of the failpoint catalog (FaultInjector::Catalog): a failpoint
/// name as Hit() declares it, the source site that evaluates it, and what
/// the injected fault models there. The injector itself has no central
/// registration — failpoints exist wherever code calls Hit() — so the
/// catalog is the maintained authoring reference for chaos schedules
/// (tools/crashsim --list-failpoints prints it).
struct FailpointInfo {
  const char* name;
  const char* site;
  const char* notes;
};

/// One entry of the firing log: which failpoint fired on which hit.
struct FaultFiring {
  std::string point;
  uint64_t hit = 0;

  friend bool operator==(const FaultFiring& a, const FaultFiring& b) {
    return a.point == b.point && a.hit == b.hit;
  }
};

/// Deterministic fault-injection registry. Code under test declares named
/// failpoints by calling Hit("name") at the would-fail site; tests arm a
/// failpoint with an action (what to inject) and a trigger (when). Every
/// decision is deterministic: probabilistic triggers draw from a per-point
/// PCG stream seeded from (injector seed, failpoint name), so the firing
/// sequence depends only on the seed and the hit sequence — never on
/// arming order or on other failpoints.
///
/// Thread safety: all methods are mutex-protected; Hit() may be called
/// from concurrent I/O paths. An unarmed failpoint costs one map lookup
/// under the mutex; code that wants zero overhead when faults are off
/// should gate on a null injector pointer instead (see DiskManager).
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms (or re-arms, resetting the hit count) a failpoint.
  void Arm(const std::string& point, const FaultAction& action,
           const FaultTrigger& trigger);

  /// Disarms every failpoint and clears hit counts and the firing log.
  void Reset();

  /// Arms failpoints from a schedule string — a comma-separated list of
  ///   <point>=<action>[@<trigger>]
  /// actions:  error[:<code>]   (code: io, corruption, notfound; default io)
  ///           short:<bytes>  |  torn:<bytes>  |  nospace  |  crash:<bytes>
  /// triggers: @<n> (once, on hit n)   @<n>+ (from hit n on)
  ///           @every<n>               @p<prob>        (default: @1)
  /// Example: "disk.write=crash:96@17,disk.read=error@p0.01".
  Status Configure(const std::string& spec);

  /// Evaluates the failpoint: counts a hit and returns the armed action if
  /// the trigger fires, nullopt otherwise (or when the point is unarmed /
  /// the injector is suppressed).
  std::optional<FaultAction> Hit(const std::string& point);

  /// Hits of `point` since it was armed (0 when unarmed).
  uint64_t HitCount(const std::string& point) const;

  /// The deterministic firing sequence so far.
  std::vector<FaultFiring> FiringLog() const;

  /// The full failpoint catalog — every name some device declares via
  /// Hit(), with its site and semantics. Keep in sync when adding Hit()
  /// call sites (fault_injector_test cross-checks the known prefixes).
  static const std::vector<FailpointInfo>& Catalog();

  uint64_t seed() const { return seed_; }

  /// RAII suppression: within the scope every Hit() reports no fault and
  /// counts no hit — used e.g. to capture a post-crash disk image without
  /// the snapshot itself faulting. Nests; not per-thread (suppression is
  /// meant for single-threaded control sections of a harness).
  class SuppressScope {
   public:
    explicit SuppressScope(FaultInjector* injector);
    ~SuppressScope();
    SuppressScope(const SuppressScope&) = delete;
    SuppressScope& operator=(const SuppressScope&) = delete;

   private:
    FaultInjector* injector_;
  };

 private:
  struct Point {
    FaultAction action;
    FaultTrigger trigger;
    Random rng{0};
    uint64_t hits = 0;
  };

  void Suppress();
  void Unsuppress();

  mutable std::mutex mu_;
  uint64_t seed_;
  int suppress_depth_ = 0;
  std::unordered_map<std::string, Point> points_;
  std::vector<FaultFiring> log_;
};

}  // namespace ccam

#endif  // CCAM_COMMON_FAULT_INJECTOR_H_
