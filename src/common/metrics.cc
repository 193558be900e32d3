#include "src/common/metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cinttypes>

namespace ccam {

namespace {

/// Static bucket bounds, two per octave: 1, 2, 3, 4, 6, 8, 12, 16, 24,
/// ... — strictly increasing, so any value is bucketed within ~33% of its
/// magnitude. The last bound is +inf (the overflow bucket).
constexpr std::array<uint64_t, MetricHistogram::kNumBuckets> BuildBounds() {
  std::array<uint64_t, MetricHistogram::kNumBuckets> bounds{};
  bounds[0] = 1;
  uint64_t base = 2;
  int i = 1;
  while (i < MetricHistogram::kNumBuckets) {
    bounds[i++] = base;
    if (i < MetricHistogram::kNumBuckets) bounds[i++] = base + base / 2;
    base *= 2;
  }
  bounds[MetricHistogram::kNumBuckets - 1] = ~uint64_t{0};
  return bounds;
}

constexpr auto kBounds = BuildBounds();

}  // namespace

uint64_t MetricHistogram::BucketUpperBound(int i) { return kBounds[i]; }

int MetricHistogram::BucketIndex(uint64_t value) {
  auto it = std::lower_bound(kBounds.begin(), kBounds.end(), value);
  return static_cast<int>(it - kBounds.begin());
}

void MetricHistogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t MetricHistogram::Percentile(double p) const {
  // Snapshot the buckets once; derive the total from the snapshot so a
  // concurrent Record() cannot push the target rank past the snapshot.
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 *
                                                  static_cast<double>(total)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) return kBounds[i];
  }
  return kBounds[kNumBuckets - 1];
}

void MetricHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricCounter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<MetricCounter>())
             .first;
  }
  return it->second.get();
}

MetricGauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<MetricGauge>())
             .first;
  }
  return it->second.get();
}

MetricHistogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<MetricHistogram>())
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    Sample s;
    s.name = name;
    s.kind = Sample::Kind::kCounter;
    s.count = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    Sample s;
    s.name = name;
    s.kind = Sample::Kind::kGauge;
    s.gauge = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    Sample s;
    s.name = name;
    s.kind = Sample::Kind::kHistogram;
    s.count = h->count();
    s.sum = h->sum();
    s.p50 = h->Percentile(50);
    s.p95 = h->Percentile(95);
    s.p99 = h->Percentile(99);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

void MetricsRegistry::DumpText(std::FILE* out) const {
  std::vector<Sample> samples = Samples();
  std::fprintf(out, "%-32s %-9s %12s %12s %8s %8s %8s\n", "series", "kind",
               "count/value", "sum", "p50", "p95", "p99");
  for (const Sample& s : samples) {
    switch (s.kind) {
      case Sample::Kind::kCounter:
        std::fprintf(out, "%-32s %-9s %12" PRIu64 "\n", s.name.c_str(),
                     "counter", s.count);
        break;
      case Sample::Kind::kGauge:
        std::fprintf(out, "%-32s %-9s %12" PRId64 "\n", s.name.c_str(),
                     "gauge", s.gauge);
        break;
      case Sample::Kind::kHistogram:
        std::fprintf(out,
                     "%-32s %-9s %12" PRIu64 " %12" PRIu64 " %8" PRIu64
                     " %8" PRIu64 " %8" PRIu64 "\n",
                     s.name.c_str(), "histogram", s.count, s.sum, s.p50,
                     s.p95, s.p99);
        break;
    }
  }
}

std::string MetricsRegistry::ExportJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(c->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(g->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"count\": " + std::to_string(h->count()) +
           ", \"sum\": " + std::to_string(h->sum()) +
           ", \"p50\": " + std::to_string(h->Percentile(50)) +
           ", \"p95\": " + std::to_string(h->Percentile(95)) +
           ", \"p99\": " + std::to_string(h->Percentile(99)) +
           ", \"buckets\": [";
    bool first_bucket = true;
    for (int i = 0; i < MetricHistogram::kNumBuckets; ++i) {
      uint64_t n = h->bucket(i);
      if (n == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "[" + std::to_string(MetricHistogram::BucketUpperBound(i)) +
             ", " + std::to_string(n) + "]";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// QuerySpan
// ---------------------------------------------------------------------------

QuerySpan::QuerySpan(MetricsRegistry* registry, const char* op) {
  if (registry == nullptr) return;
  registry->GetCounter(op)->Inc();
  hist_ = registry->GetHistogram(std::string(op) + "_us");
  start_ = std::chrono::steady_clock::now();
}

QuerySpan::~QuerySpan() {
  if (hist_ == nullptr) return;
  uint64_t us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  hist_->Record(us);
}

}  // namespace ccam
