#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/core/hierarchy_overlay.h"
#include "src/graph/generator.h"

namespace ccam {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

AccessMethodOptions SweepOptions() {
  AccessMethodOptions options;
  options.page_size = 512;
  options.buffer_pool_pages = 8;
  return options;
}

/// Bytes of the crashing write that reach the platter: a 96-byte tear, or
/// more than any overlay page holds, so the write lands whole and only
/// then does the device halt.
constexpr size_t kTornBytes = 96;
constexpr size_t kWholePage = size_t{1} << 20;

enum class Outcome { kNotReached, kNoOverlay, kFullOverlay, kFailed };

/// Builds the overlay under one armed kill point, captures the platter,
/// and loads the capture into a fresh overlay. kNotReached when hit `hit`
/// lies beyond the build's fault space.
Outcome RunKillPoint(const Network& net, const std::string& point,
                     uint64_t hit, size_t torn_bytes) {
  const std::string where = point + "@" + std::to_string(hit) + " torn " +
                            std::to_string(torn_bytes);
  FaultInjector faults(1995);
  EXPECT_TRUE(faults
                  .Configure(point + "=crash:" + std::to_string(torn_bytes) +
                             "@" + std::to_string(hit))
                  .ok());
  HierarchyOverlay overlay(SweepOptions());
  overlay.SetFaultInjector(&faults);
  Status built = overlay.Build(net);
  if (faults.FiringLog().empty()) {
    // The unfaulted build must have succeeded.
    EXPECT_TRUE(built.ok()) << where << ": " << built.message();
    return Outcome::kNotReached;
  }
  EXPECT_FALSE(built.ok()) << where;
  EXPECT_FALSE(overlay.valid()) << where;

  // Capture the platter (works on the halted device) and load it.
  const std::string img = TempPath("hier_crash_capture.img");
  {
    FaultInjector::SuppressScope suppress(&faults);
    EXPECT_TRUE(overlay.SaveImage(img).ok()) << where;
  }
  HierarchyOverlay loaded_overlay(SweepOptions());
  Result<bool> loaded = loaded_overlay.LoadImage(img);
  std::remove(img.c_str());
  if (!loaded.ok()) {
    ADD_FAILURE() << where << ": " << loaded.status().ToString();
    return Outcome::kFailed;
  }
  if (!*loaded) return Outcome::kNoOverlay;
  // Page 0 claimed an overlay: it must be the complete, valid one.
  Status invariants = loaded_overlay.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << where << ": " << invariants.ToString();
  EXPECT_EQ(loaded_overlay.NumNodes(), net.NodeIds().size()) << where;
  return invariants.ok() ? Outcome::kFullOverlay : Outcome::kFailed;
}

// The crash-safety acceptance sweep: a build killed at every reachable hit
// of the overlay's page writes and page allocations, with the crashing
// write torn after 96 bytes or landing whole, loads as *no* overlay or a
// *fully valid* one — never a torn in-between and never an error. The
// overlay keeps no log: record pages flushed, then a sealed metadata page,
// is its only commit rule.
TEST(HierarchyCrashTest, EveryKillPointLoadsAsNoneOrFullOverlay) {
  Network net = GenerateRingRadialCity(10, 14);
  int total = 0, no_overlay = 0, full_overlay = 0;
  for (const char* point : {"hier.write", "hier.alloc"}) {
    for (size_t torn : {kTornBytes, kWholePage}) {
      for (uint64_t hit = 1;; ++hit) {
        const Outcome outcome = RunKillPoint(net, point, hit, torn);
        if (outcome == Outcome::kNotReached) break;
        ++total;
        no_overlay += outcome == Outcome::kNoOverlay;
        full_overlay += outcome == Outcome::kFullOverlay;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  std::printf("%d kill points: %d no overlay, %d full overlay\n", total,
              no_overlay, full_overlay);
  EXPECT_GE(total, 300) << "kill-point space unexpectedly small";
  EXPECT_GT(no_overlay, 0) << "no unfinished build observed";
  EXPECT_GT(full_overlay, 0) << "no finished build observed";
}

// A crash fails the build cleanly: Build() reports the error and the
// in-memory handle is invalid. What the platter then holds is the sweep's
// business above.
TEST(HierarchyCrashTest, NonDurableBuildFailsCleanlyUnderCrash) {
  Network net = GenerateRingRadialCity(6, 8);
  FaultInjector faults(7);
  ASSERT_TRUE(faults.Configure("hier.write=crash:96@3").ok());
  AccessMethodOptions options;
  options.page_size = 512;
  HierarchyOverlay overlay(options);
  overlay.SetFaultInjector(&faults);
  EXPECT_FALSE(overlay.Build(net).ok());
  EXPECT_FALSE(overlay.valid());
  EXPECT_FALSE(overlay.ReadNode(net.NodeIds()[0], nullptr).ok());
}

// The commit point, exactly: the build's last page write is the metadata
// record on page 0. Torn, it fails its seal and the image is no overlay;
// landed whole, the image is the full overlay. Twice each, so the harness
// is deterministic too.
TEST(HierarchyCrashTest, KillPointsAreDeterministic) {
  Network net = GenerateRingRadialCity(6, 8);
  FaultInjector counter(1995);
  counter.Arm("hier.write", FaultAction{}, FaultTrigger::Once(0));
  HierarchyOverlay unfaulted(SweepOptions());
  unfaulted.SetFaultInjector(&counter);
  ASSERT_TRUE(unfaulted.Build(net).ok());
  const uint64_t last_write = counter.HitCount("hier.write");
  ASSERT_GT(last_write, 1u);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(RunKillPoint(net, "hier.write", last_write, kTornBytes),
              Outcome::kNoOverlay)
        << "round " << round;
    EXPECT_EQ(RunKillPoint(net, "hier.write", last_write, kWholePage),
              Outcome::kFullOverlay)
        << "round " << round;
  }
}

}  // namespace
}  // namespace ccam
