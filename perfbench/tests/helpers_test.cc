// Unit tests of the benchmark's own helpers. Build and run with
//   python3 perfbench/run.py --self-test
#include "perfbench/src/helpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = Ramp(100);
  EXPECT_EQ(Percentile(v, 0.50), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.00), 100);
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
}

TEST(PercentileTest, TenSamplesBeyondTheReportedPercentile) {
  // p99 needs 1000 samples: rank 990 leaves exactly 10 above it.
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.50), 20u);
  EXPECT_FALSE(SupportsPercentile(999, 0.99));
  EXPECT_TRUE(SupportsPercentile(1000, 0.99));
  const std::vector<double> v = Ramp(1000);
  const double p99 = Percentile(v, 0.99);
  size_t beyond = 0;
  for (double x : v) beyond += x > p99 ? 1 : 0;
  EXPECT_EQ(beyond, kMinSamplesBeyond);
}

TEST(DueTimeTest, StallIsChargedToLaterRequests) {
  // Requests due at 0, 100, 200 us; the generator stalls until 1000 us and
  // then sends all three, each completing 50 us after it was sent.
  const uint64_t due[] = {0, 100, 200};
  const uint64_t sent = 1000;
  const uint64_t done = sent + 50;
  EXPECT_EQ(DueTimeLatencyUs(due[0], done), 1050);
  EXPECT_EQ(DueTimeLatencyUs(due[2], done), 850);
  EXPECT_EQ(GeneratorLagUs(due[1], sent), 900);
  // Measured from the send instead, the stall would vanish: 50 us each.
  EXPECT_EQ(DueTimeLatencyUs(sent, done), 50);
  EXPECT_EQ(DueTimeLatencyUs(500, 400), 0);  // clock order never negative
  EXPECT_EQ(GeneratorLagUs(500, 400), 0);
}

TEST(OutcomeTest, BucketsByStatusAndOracle) {
  EXPECT_EQ(Classify(ccam::Status::OK(), true), Outcome::kOk);
  EXPECT_EQ(Classify(ccam::Status::OK(), false), Outcome::kMismatch);
  EXPECT_EQ(Classify(ccam::Status::Overloaded("q"), true),
            Outcome::kOverloaded);
  EXPECT_EQ(Classify(ccam::Status::DeadlineExceeded("d"), true),
            Outcome::kDeadlineExceeded);
  EXPECT_EQ(Classify(ccam::Status::NoSpace("pinned"), true),
            Outcome::kOtherError);
  EXPECT_EQ(Classify(ccam::Status::IOError("io"), true), Outcome::kOtherError);
  EXPECT_EQ(Classify(ccam::Status::Corruption("c"), true),
            Outcome::kOtherError);

  OutcomeCounts c;
  for (int i = 0; i < 96; ++i) c.Add(Outcome::kOk);
  c.Add(Outcome::kOverloaded);
  c.Add(Outcome::kDeadlineExceeded);
  c.Add(Outcome::kOtherError);
  c.Add(Outcome::kMismatch);
  EXPECT_EQ(c.attempted(), 100u);
  EXPECT_EQ(c.failed(), 4u);
  EXPECT_DOUBLE_EQ(c.failed_share(), 0.04);
  OutcomeCounts d;
  d.Merge(c);
  d.Merge(c);
  EXPECT_EQ(d.attempted(), 200u);
  EXPECT_EQ(d.mismatch, 2u);
  EXPECT_EQ(OutcomeCounts{}.failed_share(), 0.0);
}

TEST(LadderTest, QueueGrowth) {
  EXPECT_FALSE(QueueGrowing({0, 3, 1, 2, 0, 4, 2, 1}, 8));
  EXPECT_TRUE(QueueGrowing({0, 10, 20, 30, 40, 50, 60, 70}, 8));
  EXPECT_FALSE(QueueGrowing({100, 100, 100}, 8));  // too few to tell
}

TEST(LadderTest, StepPassesOnlyWhenAllConditionsHold) {
  LadderLimits limits;
  limits.p99_limit_us = 5000;
  StepResult ok{1000, 4000, 2000, 0.0, false};
  EXPECT_TRUE(StepPasses(ok, limits));
  StepResult slow = ok;
  slow.p99_us = 5001;
  EXPECT_FALSE(StepPasses(slow, limits));
  StepResult failing = ok;
  failing.failed_share = 0.02;
  EXPECT_FALSE(StepPasses(failing, limits));
  StepResult growing = ok;
  growing.queue_growing = true;
  EXPECT_FALSE(StepPasses(growing, limits));
  StepResult thin = ok;
  thin.samples = 999;  // p99 not supported by the sample
  EXPECT_FALSE(StepPasses(thin, limits));
  limits.max_lag_p99_us = 10000;
  StepResult late = ok;
  late.lag_p99_us = 20000;  // the generator, not the service, fell behind
  EXPECT_FALSE(StepPasses(late, limits));
  EXPECT_TRUE(StepPasses(ok, limits));
}

TEST(LadderTest, StopRuleClimbsCoarseThenFine) {
  // A service whose true capacity is 2600 qps.
  std::vector<double> tried;
  auto step = [&](double rate) {
    tried.push_back(rate);
    StepResult r{rate, rate < 2600 ? 1000.0 : 9000.0, 5000, 0.0, false};
    return r;
  };
  LadderLimits limits;
  limits.p99_limit_us = 5000;
  const Ladder ladder{1000, 1.5, 1.05, 12};
  const double cap = FindCapacity(ladder, limits, step);
  // Coarse: 1000, 1500, 2250 pass; 3375 fails twice. Fine rungs
  // 2250 * 1.05^k for k = 1..8 lie below 3375; bisection tries k = 4
  // (2734.9, fails twice), 2 (2480.6, passes), 3 (2604.7, fails twice).
  EXPECT_NEAR(cap, 2250 * 1.05 * 1.05, 1e-6);
  ASSERT_EQ(tried.size(), 10u);
  EXPECT_NEAR(tried[3], 3375, 1e-6);
  EXPECT_NEAR(tried[4], 3375, 1e-6);
  EXPECT_NEAR(tried[5], 2250 * std::pow(1.05, 4), 1e-6);
  EXPECT_NEAR(tried.back(), 2250 * std::pow(1.05, 3), 1e-6);
}

TEST(LadderTest, BisectionMatchesALinearClimb) {
  // For a monotone service the answer is the highest passing fine rung.
  LadderLimits limits;
  limits.p99_limit_us = 5000;
  const Ladder ladder{1000, 1.5, 1.05, 12};
  for (double capacity : {1200.0, 2300.0, 3300.0, 5000.0, 7777.0}) {
    auto step = [&](double rate) {
      return StepResult{rate, rate <= capacity ? 1000.0 : 9000.0, 5000, 0.0,
                        false};
    };
    const double cap = FindCapacity(ladder, limits, step);
    EXPECT_LE(cap, capacity);
    EXPECT_GT(cap * 1.05, capacity);
  }
}

TEST(LadderTest, OneFailedStepIsRunAgain) {
  // Capacity 2600 qps, but the first step at 1500 qps hits a host stall.
  int calls_at_1500 = 0;
  auto step = [&](double rate) {
    bool stalled = rate == 1500 && calls_at_1500++ == 0;
    return StepResult{rate, rate < 2600 && !stalled ? 1000.0 : 9000.0, 5000,
                      0.0, false};
  };
  LadderLimits limits;
  limits.p99_limit_us = 5000;
  EXPECT_NEAR(FindCapacity(Ladder{1000, 1.5, 1.05, 12}, limits, step),
              2250 * 1.05 * 1.05, 1e-6);
  EXPECT_EQ(calls_at_1500, 2);
}

TEST(LadderTest, StopRuleEdges) {
  LadderLimits limits;
  limits.p99_limit_us = 5000;
  const Ladder ladder{1000, 1.5, 1.05, 4};
  auto never = [](double rate) {
    return StepResult{rate, 1e9, 5000, 0.0, false};
  };
  EXPECT_EQ(FindCapacity(ladder, limits, never), 0.0);
  auto always = [](double rate) {
    return StepResult{rate, 10, 5000, 0.0, false};
  };
  // Every coarse rung passes: the top rung is the capacity (no fine pass).
  EXPECT_NEAR(FindCapacity(ladder, limits, always), 1000 * 1.5 * 1.5 * 1.5,
              1e-6);
}

TEST(WindowTest, CountWindows) {
  const auto w = CountWindows(10000, 1000, 4);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[0].first, 0u);
  EXPECT_EQ(w[0].second, 2500u);
  EXPECT_EQ(w[3].second, 10000u);
  EXPECT_EQ(CountWindows(500, 1000, 16).size(), 1u);  // too few: one window
  EXPECT_EQ(CountWindows(0, 1000, 16).size(), 1u);
}

TEST(WindowTest, QuietIndicesSetStolenWindowsAside) {
  // Six windows; the host stole from windows 1, 3 and 4.
  const std::vector<double> steal = {0, 7, 0, 1, 9, 0};
  EXPECT_EQ(QuietIndices(steal), (std::vector<size_t>{0, 2, 5}));
  // Nothing stolen, or everything alike: every window counts.
  EXPECT_EQ(QuietIndices(std::vector<double>(4, 0.0)).size(), 4u);
  EXPECT_EQ(QuietIndices(std::vector<double>(4, 3.0)).size(), 4u);
  // Otherwise the quieter half, rounded up.
  EXPECT_EQ(QuietIndices({5, 4, 3, 2, 1}), (std::vector<size_t>{2, 3, 4}));
  EXPECT_TRUE(QuietIndices({}).empty());
  const std::vector<double> rates = {100, 900, 110, 120, 800, 105};
  EXPECT_DOUBLE_EQ(QuietMean(rates, steal), 105.0);  // (100 + 110 + 105) / 3
  EXPECT_EQ(QuietMean({}, {}), 0.0);
}

TEST(WindowTest, WindowRates) {
  // 10 s at 100/s, except one second in which the host stalled (10/s).
  std::vector<uint64_t> done;
  for (int s = 0; s < 10; ++s) {
    const int n = s == 4 ? 10 : 100;
    for (int i = 0; i < n; ++i) {
      done.push_back(static_cast<uint64_t>(s) * 1000000000ULL +
                     static_cast<uint64_t>(i) * (1000000000ULL / n));
    }
  }
  const auto rates = WindowRates(done, 0, 10000000000ULL, 10);
  ASSERT_EQ(rates.size(), 10u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
  EXPECT_DOUBLE_EQ(rates[4], 10.0);
  EXPECT_DOUBLE_EQ(Median(rates), 100.0);
  EXPECT_DOUBLE_EQ(WindowRates(done, 0, 10000000000ULL, 1)[0], 91.0);
  EXPECT_TRUE(WindowRates(done, 5, 5, 10).empty());
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(WindowTest, MedianOfPerWindowPercentiles) {
  // Five windows of 1,000 samples each (1 ms apart, 1 s windows); in each,
  // 985 samples read 100 and 15 read the window's "event" value, so every
  // window's p99 is its event value.
  const double events[5] = {900, 100000, 1000, 1100, 950};
  std::vector<double> values;
  std::vector<uint64_t> times;
  for (int k = 0; k < 5; ++k) {
    for (int i = 0; i < 1000; ++i) {
      values.push_back(i < 985 ? 100.0 : events[k]);
      times.push_back(5000 + (k * 1000ULL + i) * 1000000ULL);
    }
  }
  const uint64_t second = 1000000000ULL;
  // The disturbed window (100,000) does not move the median.
  EXPECT_DOUBLE_EQ(MedianWindowPercentile(values, times, 5000, second, 0.99),
                   1000.0);
  EXPECT_DOUBLE_EQ(MedianWindowPercentile(values, times, 5000, second, 0.5),
                   100.0);
  // A window too short for ten samples beyond p99 is left out; none left.
  EXPECT_DOUBLE_EQ(
      MedianWindowPercentile(values, times, 5000, second / 10, 0.99), 0.0);
  // Samples before the start are ignored: windows 100000, 1000, 1100, 950.
  EXPECT_DOUBLE_EQ(
      MedianWindowPercentile(values, times, 5000 + second, second, 0.99),
      1050.0);
}

}  // namespace
}  // namespace perfbench
