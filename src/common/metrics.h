#ifndef CCAM_COMMON_METRICS_H_
#define CCAM_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ccam {

/// Observability primitives for the storage/query stack.
///
/// Design contract (see INTERNALS, "Observability"):
///  - *Zero cost when disabled.* Every instrumented component holds plain
///    pointers to its metric objects, null until a MetricsRegistry is
///    attached. The fault-free, metrics-free hot path therefore pays one
///    null-pointer test per instrumentation site — no clock reads, no
///    atomics, no locks — and the paper's page-access accounting
///    (Table 5 / Fig 6) is bit-identical with or without the subsystem
///    compiled in, attached, or detached.
///  - *Lock-free when enabled.* Counter/gauge updates and histogram
///    records are relaxed atomic operations on objects with stable
///    addresses; registration (name -> object) is the only locked path
///    and happens once per name.
///  - *Names are a flat catalog*, "<subsystem>.<event>" for counters and
///    "<subsystem>.<event>_us" for latency histograms: `buffer_pool.hit`,
///    `disk.read_us`, `query.route_eval_us`, ...

/// Monotonic event counter. Inc() is a relaxed atomic add: safe from any
/// number of threads, never a synchronization point.
class MetricCounter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (pool residency, open sessions, ...).
class MetricGauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram for latency-like values (canonically
/// microseconds). The bucket layout is static and shared by every
/// histogram: two buckets per octave — upper bounds 1, 2, 3, 4, 6,
/// 8, 12, 16, 24, ... — so any recorded value lands within ~33% of its true
/// magnitude, which is plenty for p50/p95/p99 over I/O latencies, and
/// recording never allocates or locks. Bucket i covers
/// (BucketUpperBound(i-1), BucketUpperBound(i)]; bucket 0 covers [0, 1].
class MetricHistogram {
 public:
  static constexpr int kNumBuckets = 64;

  /// Upper bound of bucket `i` (the last bucket absorbs everything).
  static uint64_t BucketUpperBound(int i);
  /// Index of the bucket a value lands in.
  static int BucketIndex(uint64_t value);

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Percentile estimate, `p` in (0, 100]: the upper bound of the first
  /// bucket whose cumulative count reaches ceil(p/100 * count). A value
  /// recorded exactly at a bucket bound is reported exactly (the bound is
  /// the bucket's inclusive upper edge). Returns 0 on an empty histogram.
  /// Concurrent Record()s may make the snapshot slightly stale; the
  /// result is always a valid bucket bound.
  uint64_t Percentile(double p) const;

  double Mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Name -> metric catalog. Get*() registers on first use and returns a
/// stable pointer: components look their metrics up once (at attach time)
/// and afterwards update them lock-free. Lookup takes the registry mutex
/// but never invalidates previously returned pointers.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  MetricCounter* GetCounter(std::string_view name);
  MetricGauge* GetGauge(std::string_view name);
  MetricHistogram* GetHistogram(std::string_view name);

  /// Zeroes every registered metric (the catalog itself is kept).
  void Reset();

  /// One exported series. Histograms carry their summary, not the raw
  /// buckets; the JSON export includes the buckets.
  struct Sample {
    std::string name;
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    uint64_t count = 0;  // counter value / histogram count
    int64_t gauge = 0;
    uint64_t sum = 0;
    uint64_t p50 = 0, p95 = 0, p99 = 0;
  };

  /// Every registered series, sorted by name.
  std::vector<Sample> Samples() const;

  /// Markdown-ish table of every series, for tools/stats and debugging.
  void DumpText(std::FILE* out) const;

  /// The full catalog as a JSON object: {"counters": {...}, "gauges":
  /// {...}, "histograms": {"name": {"count":, "sum":, "p50":, "p95":,
  /// "p99":, "buckets": [[bound, count], ...nonzero only]}}.
  std::string ExportJson() const;

 private:
  mutable std::mutex mu_;
  // std::map keeps exports sorted; node stability keeps pointers valid.
  std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<MetricHistogram>, std::less<>>
      histograms_;
};

/// RAII span: records the scope's wall-clock duration (µs) into a
/// histogram on destruction. A null histogram makes the timer fully inert
/// — no clock read on either end.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(MetricHistogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;
  ~ScopedLatencyTimer() {
    if (hist_ != nullptr) hist_->Record(ElapsedMicros());
  }

  uint64_t ElapsedMicros() const {
    if (hist_ == nullptr) return 0;
    auto dt = std::chrono::steady_clock::now() - start_;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(dt).count());
  }

 private:
  MetricHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII query-operator span: on entry bumps "<op>" and starts the clock;
/// on exit records the elapsed µs into "<op>_us" ("query.route_eval",
/// ...). A null registry is fully inert (one branch, no lookups, no clock).
class QuerySpan {
 public:
  QuerySpan(MetricsRegistry* registry, const char* op);
  QuerySpan(const QuerySpan&) = delete;
  QuerySpan& operator=(const QuerySpan&) = delete;
  ~QuerySpan();

 private:
  MetricHistogram* hist_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ccam

#endif  // CCAM_COMMON_METRICS_H_
