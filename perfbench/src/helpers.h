// Pure helpers of the benchmark program: percentile selection, due-time
// latency, outcome buckets and the capacity-ladder stop rule. They hold no
// state of the program under test, so tests/helpers_test.cc covers them
// directly.
#ifndef PERFBENCH_SRC_HELPERS_H_
#define PERFBENCH_SRC_HELPERS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

/// A reported percentile needs at least this many samples beyond it.
constexpr size_t kMinSamplesBeyond = 10;

/// Smallest sample count for which percentile `p` (0 < p < 1) has at least
/// kMinSamplesBeyond samples strictly above its rank.
inline size_t MinSamplesFor(double p) {
  return static_cast<size_t>(
      std::ceil(static_cast<double>(kMinSamplesBeyond) / (1.0 - p)));
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with
/// at least p * n samples at or below it. Returns 0 for an empty input.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

/// Percentile `p` of unsorted `values` (copied).
inline double PercentileOf(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return Percentile(values, p);
}

/// True when `n` samples support reporting percentile `p`.
inline bool SupportsPercentile(size_t n, double p) {
  return n >= MinSamplesFor(p);
}

/// Latency of an open-loop request measured from the time it was due to
/// be sent, not from the time the generator got round to sending it: a
/// stall that delays later sends is charged to those requests
/// (no coordinated omission). A completion before the due time reads 0.
inline double DueTimeLatencyUs(uint64_t due_us, uint64_t done_us) {
  return done_us > due_us ? static_cast<double>(done_us - due_us) : 0.0;
}

/// How late the generator sent a request relative to its due time.
inline double GeneratorLagUs(uint64_t due_us, uint64_t sent_us) {
  return sent_us > due_us ? static_cast<double>(sent_us - due_us) : 0.0;
}

/// Outcome of one attempted request.
enum class Outcome {
  kOk,
  kOverloaded,
  kDeadlineExceeded,
  kOtherError,  // NoSpace, IOError, Corruption, Quarantined, ...
  kMismatch,    // status OK but the answer differs from the oracle
};

/// Buckets a completed request by its status and oracle verdict.
inline Outcome Classify(const ccam::Status& status, bool matches_oracle) {
  if (status.ok()) return matches_oracle ? Outcome::kOk : Outcome::kMismatch;
  if (status.IsOverloaded()) return Outcome::kOverloaded;
  if (status.IsDeadlineExceeded()) return Outcome::kDeadlineExceeded;
  return Outcome::kOtherError;
}

/// Per-bucket counts over a run. Every outcome but kOk counts as failed.
struct OutcomeCounts {
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t other_error = 0;
  uint64_t mismatch = 0;

  void Add(Outcome o) {
    switch (o) {
      case Outcome::kOk:
        ++ok;
        break;
      case Outcome::kOverloaded:
        ++overloaded;
        break;
      case Outcome::kDeadlineExceeded:
        ++deadline_exceeded;
        break;
      case Outcome::kOtherError:
        ++other_error;
        break;
      case Outcome::kMismatch:
        ++mismatch;
        break;
    }
  }
  void Merge(const OutcomeCounts& o) {
    ok += o.ok;
    overloaded += o.overloaded;
    deadline_exceeded += o.deadline_exceeded;
    other_error += o.other_error;
    mismatch += o.mismatch;
  }
  uint64_t attempted() const {
    return ok + overloaded + deadline_exceeded + other_error + mismatch;
  }
  uint64_t failed() const { return attempted() - ok; }
  double failed_share() const {
    const uint64_t n = attempted();
    return n == 0 ? 0.0
                  : static_cast<double>(failed()) / static_cast<double>(n);
  }
};

/// True when the queue-depth samples of one ladder step show a growing
/// backlog: the mean of the last quarter of the samples exceeds the mean
/// of the first quarter by more than `slack` requests. Fewer than four
/// samples cannot show a trend and read as flat.
inline bool QueueGrowing(const std::vector<size_t>& depths, double slack) {
  const size_t q = depths.size() / 4;
  if (q == 0) return false;
  double head = 0.0;
  double tail = 0.0;
  for (size_t i = 0; i < q; ++i) {
    head += static_cast<double>(depths[i]);
    tail += static_cast<double>(depths[depths.size() - 1 - i]);
  }
  return (tail - head) / static_cast<double>(q) > slack;
}

/// Verdict of one ladder step.
struct StepResult {
  double rate_qps = 0.0;
  double p99_us = 0.0;
  size_t samples = 0;  // completed requests the p99 was taken over
  double failed_share = 0.0;
  bool queue_growing = false;
  double lag_p99_us = 0.0;  // how late the generator sent, at p99
};

/// Conditions a ladder step must meet to count towards capacity. A step
/// whose generator lagged more than max_lag_p99_us is invalid, not slow,
/// and does not count either (the stop rule runs it again).
struct LadderLimits {
  double p99_limit_us = 0.0;
  double max_failed_share = 0.01;
  double max_lag_p99_us = 1e18;
};

inline bool StepPasses(const StepResult& step, const LadderLimits& limits) {
  return SupportsPercentile(step.samples, 0.99) &&
         step.p99_us <= limits.p99_limit_us &&
         step.failed_share <= limits.max_failed_share &&
         !step.queue_growing && step.lag_p99_us <= limits.max_lag_p99_us;
}

/// The ladder's fixed rates: a coarse geometric grid from `start`
/// (ratio `coarse`), refined between the last passing coarse rung and the
/// first failing one by a fine geometric grid (ratio `fine`).
struct Ladder {
  double start_qps = 500.0;
  double coarse = 1.5;
  double fine = 1.05;
  int max_coarse_steps = 16;
};

/// Runs the stop rule: climbs the coarse grid until a rung fails, then
/// bisects the fine grid between the last passing coarse rung and the
/// failing one (latency rises with the rate, so the boundary is where a
/// linear climb would stop, found in fewer steps). A rung fails when its
/// step fails twice in a row (a failed step is run once more), so one
/// stall of the shared host does not end the climb. `run_step(rate)`
/// executes one step. Returns the highest passing rate, or 0 when even
/// the first rung fails.
template <typename RunStep>
double FindCapacity(const Ladder& ladder, const LadderLimits& limits,
                    RunStep&& run_step) {
  auto rung_passes = [&](double rate) {
    return StepPasses(run_step(rate), limits) ||
           StepPasses(run_step(rate), limits);
  };
  double passed = 0.0;
  double failed_at = 0.0;
  double rate = ladder.start_qps;
  for (int i = 0; i < ladder.max_coarse_steps; ++i, rate *= ladder.coarse) {
    if (!rung_passes(rate)) {
      failed_at = rate;
      break;
    }
    passed = rate;
  }
  if (passed == 0.0 || failed_at == 0.0) return passed;
  // Fine rungs passed * fine^k, k = 1..top, all below failed_at.
  int top = 0;
  while (passed * std::pow(ladder.fine, top + 1) < failed_at * (1.0 - 1e-9)) {
    ++top;
  }
  int lo = 0;        // highest k known to pass
  int hi = top + 1;  // lowest k known to fail
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (rung_passes(passed * std::pow(ladder.fine, mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return passed * std::pow(ladder.fine, lo);
}

/// Median of `values` (copied, not modified).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Splits n samples (in time order) into as many equal-count windows as
/// keep at least `min_per_window` samples each, at most `max_windows`, and
/// at least one. Returns [begin, end) index pairs.
inline std::vector<std::pair<size_t, size_t>> CountWindows(
    size_t n, size_t min_per_window, size_t max_windows) {
  size_t k = min_per_window == 0 ? 1 : n / min_per_window;
  k = std::clamp<size_t>(k, 1, std::max<size_t>(max_windows, 1));
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t w = 0; w < k; ++w) out.push_back({n * w / k, n * (w + 1) / k});
  return out;
}

/// Indices, ascending, of the quieter half of a run's windows. `steal[i]`
/// is how much CPU time the host took from this machine during window i.
/// The ceil(k / 2) least-stolen windows are kept, plus every window that
/// lost no more than the quietest one (so when nothing was stolen, all of
/// them): on a shared host a window that lost CPU to other tenants shows
/// their load, not the program's.
inline std::vector<size_t> QuietIndices(const std::vector<double>& steal) {
  const size_t k = steal.size();
  std::vector<size_t> order(k);
  for (size_t i = 0; i < k; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<size_t> kept;
  for (size_t i = 0; i < k; ++i) {
    if (i < (k + 1) / 2 || steal[order[i]] == steal[order[0]]) {
      kept.push_back(order[i]);
    }
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

/// Mean of per-window values over the quieter half of the windows (for
/// rates over equal time windows).
inline double QuietMean(const std::vector<double>& per_window,
                        const std::vector<double>& steal) {
  const std::vector<size_t> kept = QuietIndices(steal);
  double sum = 0.0;
  for (size_t i : kept) sum += per_window[i];
  return kept.empty() ? 0.0 : sum / static_cast<double>(kept.size());
}

/// Percentile `p` of each window of a run, and the median of those: the
/// samples (`values[i]` at `times_ns[i]`, any order) fall into windows of
/// `window_ns` from `start_ns`; a window with fewer than MinSamplesFor(p)
/// samples is left out. A window the host disturbed moves the median less
/// than it moves a pooled percentile. Returns 0 when no window has enough
/// samples.
inline double MedianWindowPercentile(const std::vector<double>& values,
                                     const std::vector<uint64_t>& times_ns,
                                     uint64_t start_ns, uint64_t window_ns,
                                     double p) {
  std::map<uint64_t, std::vector<double>> windows;
  for (size_t i = 0; i < values.size() && i < times_ns.size(); ++i) {
    if (times_ns[i] < start_ns || window_ns == 0) continue;
    windows[(times_ns[i] - start_ns) / window_ns].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (auto& [k, v] : windows) {
    if (!SupportsPercentile(v.size(), p)) continue;
    std::sort(v.begin(), v.end());
    per_window.push_back(Percentile(v, p));
  }
  return Median(std::move(per_window));
}

/// Completions per second in each of `windows` equal time windows of
/// [start_ns, end_ns). `done_ns` are completion times (any order); those
/// outside the interval are ignored.
inline std::vector<double> WindowRates(const std::vector<uint64_t>& done_ns,
                                       uint64_t start_ns, uint64_t end_ns,
                                       int windows) {
  if (end_ns <= start_ns || windows < 1) return {};
  const double span = static_cast<double>(end_ns - start_ns);
  std::vector<double> counts(static_cast<size_t>(windows), 0.0);
  for (uint64_t t : done_ns) {
    if (t < start_ns || t >= end_ns) continue;
    const size_t w = static_cast<size_t>(
        static_cast<double>(t - start_ns) / span * windows);
    counts[std::min(w, counts.size() - 1)] += 1.0;
  }
  const double window_s = span / windows / 1e9;
  for (double& c : counts) c /= window_s;
  return counts;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HELPERS_H_
