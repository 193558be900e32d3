#include "src/core/crash_harness.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace ccam {
namespace {

/// Per-process scratch directory: ctest runs this binary under several
/// entries at once (the default and the sweep configurations), so every
/// capture image and store directory lives under a pid-named directory
/// that no concurrent run shares. Removed when the test program exits.
std::string ScratchDir() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/ccam_crash_" +
         std::to_string(::getpid());
}

class ScratchDirEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { std::filesystem::create_directories(ScratchDir()); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(ScratchDir(), ec);
  }
};

const ::testing::Environment* const kScratchDir =
    ::testing::AddGlobalTestEnvironment(new ScratchDirEnvironment);

std::string TempPath(const std::string& name) {
  return ScratchDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

CrashSimOptions BaseOptions(uint64_t seed, const std::string& image) {
  CrashSimOptions opt;
  opt.seed = seed;
  opt.image_path = TempPath(image);
  return opt;
}

TEST(CrashConsistencyTest, WorkloadWritesEnoughCrashPoints) {
  // The acceptance sweep wants >= 200 distinct crash points; make sure the
  // default workload's write sequence is long enough to host them.
  auto writes = CountWorkloadWrites(BaseOptions(1995, "ccam_crash_count.img"));
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_GE(*writes, 200u);
}

// Every scheduled crash point must leave a disk image that either reopens
// with all invariants intact or is *detected* with a clean typed Status.
// A crash must never be silently absorbed as a consistent-looking file
// that lost the corruption, and never trip UB (ASan/UBSan builds of this
// test are the real teeth of that claim).
TEST(CrashConsistencyTest, EveryCrashPointRecoversOrDetects) {
  // Default: a fast evenly-spread subset; the `faults`-configuration sweep
  // (scripts/check_faults.sh) raises CCAM_CRASH_POINTS to cover >= 200.
  int points = EnvInt("CCAM_CRASH_POINTS", 24);
  int seeds = EnvInt("CCAM_CRASH_SEEDS", 1);
  for (int s = 0; s < seeds; ++s) {
    CrashSimOptions opt =
        BaseOptions(1995 + 7 * s, "ccam_crash_sweep.img");
    auto report = RunCrashSim(opt, static_cast<uint64_t>(points));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->points.size(),
              std::min<uint64_t>(points, report->total_writes));
    for (const CrashPointReport& p : report->points) {
      EXPECT_NE(p.result.outcome, CrashOutcome::kNoCrash)
          << "crash point " << p.crash_point << " never fired";
    }
    // A 96-byte torn prefix shreds most pages; validation must catch at
    // least some of them (rather than absorbing every torn page).
    EXPECT_GT(report->corruption_detected, 0u) << "seed " << opt.seed;
  }
}

TEST(CrashConsistencyTest, CrashAfterCompleteWritesCanRecoverFully) {
  // With the torn prefix as large as the page, the crashing write lands
  // completely before the device halts — the power cut falls exactly on a
  // write boundary. Points that coincide with the end of an operation's
  // flush then reopen fully consistent, so the sweep must report
  // recoveries, not just detections.
  CrashSimOptions opt = BaseOptions(1995, "ccam_crash_boundary.img");
  opt.torn_bytes = static_cast<int>(opt.page_size);
  auto report = RunCrashSim(opt, 16);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->recovered, 0u);
  // The very last write boundary is the completed workload itself.
  auto writes = CountWorkloadWrites(opt);
  ASSERT_TRUE(writes.ok());
  auto last = RunCrashOnce(opt, *writes);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last->outcome, CrashOutcome::kRecovered) << last->detail;
}

TEST(CrashConsistencyTest, EarlyCrashLosesEverythingCleanly) {
  // Crash on the very first page write: the capture holds at most one torn
  // page. Whatever the classification, it must be clean.
  CrashSimOptions opt = BaseOptions(1995, "ccam_crash_first.img");
  auto result = RunCrashOnce(opt, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->outcome, CrashOutcome::kNoCrash);
}

TEST(CrashConsistencyTest, OutcomeAndRecoveredBytesAreDeterministic) {
  // Satellite: same seed -> identical firing sequence and identical
  // post-recovery file bytes, byte for byte.
  CrashSimOptions opt_a = BaseOptions(2024, "ccam_crash_det_a.img");
  CrashSimOptions opt_b = BaseOptions(2024, "ccam_crash_det_b.img");
  for (uint64_t point : {5u, 37u, 90u}) {
    auto a = RunCrashOnce(opt_a, point);
    auto b = RunCrashOnce(opt_b, point);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->outcome, b->outcome) << "point " << point;
    EXPECT_EQ(a->detail, b->detail) << "point " << point;
    EXPECT_EQ(a->writes_before_crash, b->writes_before_crash);
    EXPECT_EQ(a->recovered_nodes, b->recovered_nodes);
    EXPECT_EQ(ReadFileBytes(opt_a.image_path), ReadFileBytes(opt_b.image_path))
        << "point " << point;
  }
  std::remove(opt_a.image_path.c_str());
  std::remove(opt_b.image_path.c_str());
}

TEST(CrashConsistencyTest, FirstOrderPolicyAlsoSurvivesCrashes) {
  CrashSimOptions opt = BaseOptions(77, "ccam_crash_first_order.img");
  opt.policy = ReorgPolicy::kFirstOrder;
  auto report = RunCrashSim(opt, 12);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const CrashPointReport& p : report->points) {
    EXPECT_NE(p.result.outcome, CrashOutcome::kNoCrash)
        << "crash point " << p.crash_point;
  }
}

// --- Snapshot-store mid-swap sweep -----------------------------------------
// The versioned-swap reorganization protocol: kills inside the delta log,
// the background image build, the MANIFEST publish and the retire steps.
// Always strict — every kill point must recover to exactly the old or
// exactly the new version (never a blend), classified kDurable.

constexpr const char* kSnapshotFailpoints[] = {
    "snapshot.log.append", "snapshot.log.flush", "snapshot.build",
    "snapshot.publish",    "snapshot.retire",
};

SnapshotCrashOptions SnapshotOptionsFor(uint64_t seed,
                                        const std::string& failpoint) {
  SnapshotCrashOptions opt;
  opt.seed = seed;
  opt.crash_failpoint = failpoint;
  std::string suffix = failpoint;
  for (char& c : suffix) {
    if (c == '.') c = '_';
  }
  opt.dir = TempPath("ccam_snap_crash_" + suffix);
  return opt;
}

void ExpectAllSnapshotDurable(const SnapshotCrashOptions& opt,
                              uint64_t points) {
  auto report = RunSnapshotCrashSim(opt, points);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->points.size(), 0u) << opt.crash_failpoint;
  for (const CrashPointReport& p : report->points) {
    EXPECT_EQ(p.result.outcome, CrashOutcome::kDurable)
        << opt.crash_failpoint << " kill point " << p.crash_point << ": "
        << CrashOutcomeName(p.result.outcome) << " — " << p.result.detail;
  }
}

TEST(SnapshotCrashTest, MidSwapKillPointSpacesHostTheAcceptanceSweep) {
  // The acceptance criterion wants >= 100 kill points across the
  // build/publish/retire/log protocol; verify the seeded workload's spaces
  // are big enough to host them.
  uint64_t total = 0;
  for (const char* fp : kSnapshotFailpoints) {
    auto count = CountSnapshotKillPoints(SnapshotOptionsFor(1995, fp));
    ASSERT_TRUE(count.ok()) << fp << ": " << count.status().ToString();
    EXPECT_GT(*count, 0u) << fp;
    total += *count;
  }
  EXPECT_GE(total, 100u);
}

TEST(SnapshotCrashTest, EveryMidSwapKillPointLandsOnOldOrNewVersion) {
  // The mid-swap acceptance sweep. Default: an evenly-spread subset per
  // failpoint; the faults configuration raises CCAM_SNAPSHOT_POINTS so the
  // five spaces together cover >= 100 kill points.
  int points = EnvInt("CCAM_SNAPSHOT_POINTS", 6);
  for (const char* fp : kSnapshotFailpoints) {
    ExpectAllSnapshotDurable(SnapshotOptionsFor(1995, fp),
                             static_cast<uint64_t>(points));
  }
}

// The store is the only durable write path, so its acknowledgment barrier
// carries the lossless-ack contract. With reorganization off, every
// mutation is killed before, inside and after its barrier: the log
// append and the log flush spaces at two seeds. Default: an evenly spread
// subset per space; the faults configuration sets CCAM_STORE_SWEEP_POINTS
// past the space size, so the store_crash_sweep entry kills at every point.
TEST(SnapshotCrashTest, EveryLogKillPointKeepsTheAckedStream) {
  int points = EnvInt("CCAM_STORE_SWEEP_POINTS", 6);
  for (uint64_t seed : {1995u, 2024u}) {
    for (const char* fp : {"snapshot.log.append", "snapshot.log.flush"}) {
      SnapshotCrashOptions opt = SnapshotOptionsFor(seed, fp);
      opt.reorg_every = 0;
      ExpectAllSnapshotDurable(opt, static_cast<uint64_t>(points));
    }
  }
}

TEST(SnapshotCrashTest, SecondSeedSwapKillPointsLandOnOldOrNewVersion) {
  int points = EnvInt("CCAM_STORE_SWEEP_POINTS", 6);
  for (const char* fp :
       {"snapshot.build", "snapshot.publish", "snapshot.retire"}) {
    ExpectAllSnapshotDurable(SnapshotOptionsFor(2024, fp),
                             static_cast<uint64_t>(points));
  }
}

TEST(SnapshotCrashTest, KillBeforeTheFirstReorganization) {
  // Kill point 1 of the log path fires before any swap: recovery replays
  // the delta log against the very first published image.
  auto result =
      RunSnapshotCrashOnce(SnapshotOptionsFor(1995, "snapshot.log.flush"), 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, CrashOutcome::kDurable) << result->detail;
}

TEST(SnapshotCrashTest, OutcomeIsDeterministicAcrossRuns) {
  SnapshotCrashOptions opt_a = SnapshotOptionsFor(1995, "snapshot.publish");
  SnapshotCrashOptions opt_b = SnapshotOptionsFor(1995, "snapshot.publish");
  opt_b.dir += "_b";
  for (uint64_t point : {1u, 5u, 9u}) {
    auto a = RunSnapshotCrashOnce(opt_a, point);
    auto b = RunSnapshotCrashOnce(opt_b, point);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->outcome, b->outcome) << "point " << point;
    EXPECT_EQ(a->detail, b->detail) << "point " << point;
    EXPECT_EQ(a->recovered_nodes, b->recovered_nodes) << "point " << point;
    EXPECT_EQ(a->recovered_image_crc, b->recovered_image_crc)
        << "point " << point;
  }
}

TEST(SnapshotCrashTest, WideTornPrefixCrossesWriteBoundaries) {
  // With the torn prefix wider than any log frame or MANIFEST, the
  // crashing write always lands completely — the power cut falls on a
  // write boundary. Still strictly durable.
  SnapshotCrashOptions opt = SnapshotOptionsFor(1995, "snapshot.log.flush");
  opt.dir += "_wide";
  opt.torn_bytes = 1 << 20;
  ExpectAllSnapshotDurable(opt, 6);
}

}  // namespace
}  // namespace ccam
