#include "src/storage/disk_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/metrics.h"

namespace ccam {
namespace {

TEST(DiskManagerTest, AllocateReturnsZeroedDistinctPages) {
  DiskManager disk(256);
  PageId a = *disk.AllocatePage();
  PageId b = *disk.AllocatePage();
  EXPECT_NE(a, b);
  char buf[256];
  ASSERT_TRUE(disk.ReadPage(a, buf).ok());
  for (char c : buf) EXPECT_EQ(c, 0);
}

TEST(DiskManagerTest, WriteThenReadRoundTrip) {
  DiskManager disk(128);
  PageId p = *disk.AllocatePage();
  char in[128], out[128];
  for (int i = 0; i < 128; ++i) in[i] = static_cast<char>(i);
  ASSERT_TRUE(disk.WritePage(p, in).ok());
  ASSERT_TRUE(disk.ReadPage(p, out).ok());
  EXPECT_EQ(std::memcmp(in, out, 128), 0);
}

TEST(DiskManagerTest, StatsCountEveryAccess) {
  DiskManager disk(64);
  PageId p = *disk.AllocatePage();
  char buf[64] = {};
  (void)disk.WritePage(p, buf);
  (void)disk.WritePage(p, buf);
  (void)disk.ReadPage(p, buf);
  EXPECT_EQ(disk.stats().allocs, 1u);
  EXPECT_EQ(disk.stats().writes, 2u);
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(disk.stats().Accesses(), 3u);
  disk.ResetStats();
  EXPECT_EQ(disk.stats().Accesses(), 0u);
}

TEST(DiskManagerTest, ReadPagesCountsEveryPageOfTheBatch) {
  DiskManager disk(64);
  std::vector<PageId> ids;
  std::vector<std::vector<char>> bufs(5, std::vector<char>(64));
  std::vector<char*> outs;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(*disk.AllocatePage());
    std::vector<char> content(64, static_cast<char>('a' + i));
    ASSERT_TRUE(disk.WritePage(ids.back(), content.data()).ok());
    outs.push_back(bufs[i].data());
  }
  std::vector<Status> statuses(5);
  disk.ReadPages(ids.data(), outs.data(), 5, statuses.data());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
    EXPECT_EQ(bufs[i], std::vector<char>(64, static_cast<char>('a' + i)));
  }
  EXPECT_EQ(disk.stats().reads, 5u);
}

// A batch is issued without waiting: ReadPages copies the pages and
// returns one ready time for the whole batch, one latency after issue.
// ReadPage waits for its ready time, and disk.read_us records issue ->
// ready either way.
TEST(DiskManagerTest, ReadPagesIssuesTheBatchWithOneReadyTime) {
  DiskManager disk(64);
  MetricsRegistry metrics;
  disk.SetMetrics(&metrics);
  std::vector<PageId> ids;
  std::vector<std::vector<char>> bufs(8, std::vector<char>(64));
  std::vector<char*> outs;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(*disk.AllocatePage());
    outs.push_back(bufs[i].data());
  }
  disk.SetSimulatedReadLatencyMicros(20000);
  std::vector<Status> statuses(8);
  const auto t0 = std::chrono::steady_clock::now();
  const auto ready = disk.ReadPages(ids.data(), outs.data(), 8, statuses.data());
  const auto issued = std::chrono::steady_clock::now();
  // One 20 ms latency for the batch, not eight (160 ms), and not waited.
  EXPECT_LT(issued - t0, std::chrono::milliseconds(10));
  EXPECT_GE(ready - t0, std::chrono::milliseconds(20));
  EXPECT_LT(ready - t0, std::chrono::milliseconds(100));
  for (const Status& st : statuses) EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(disk.stats().reads, 8u);
  MetricHistogram* read_us = metrics.GetHistogram("disk.read_us");
  EXPECT_EQ(read_us->count(), 8u);
  EXPECT_GE(read_us->sum(), 8u * 20000u);

  const auto t1 = std::chrono::steady_clock::now();
  ASSERT_TRUE(disk.ReadPage(ids[0], outs[0]).ok());
  EXPECT_GE(std::chrono::steady_clock::now() - t1,
            std::chrono::milliseconds(20));
  EXPECT_EQ(read_us->count(), 9u);
}

TEST(DiskManagerTest, FreeAndReuse) {
  DiskManager disk(64);
  PageId a = *disk.AllocatePage();
  PageId b = *disk.AllocatePage();
  EXPECT_EQ(disk.NumAllocatedPages(), 2u);
  ASSERT_TRUE(disk.FreePage(a).ok());
  EXPECT_EQ(disk.NumAllocatedPages(), 1u);
  EXPECT_FALSE(disk.IsAllocated(a));
  EXPECT_TRUE(disk.IsAllocated(b));
  // Freed page is recycled and comes back zeroed.
  char buf[64];
  std::memset(buf, 0xab, sizeof(buf));
  PageId c = *disk.AllocatePage();
  EXPECT_EQ(c, a);
  ASSERT_TRUE(disk.ReadPage(c, buf).ok());
  for (char ch : buf) EXPECT_EQ(ch, 0);
}

TEST(DiskManagerTest, AccessAfterFreeFails) {
  DiskManager disk(64);
  PageId p = *disk.AllocatePage();
  ASSERT_TRUE(disk.FreePage(p).ok());
  char buf[64] = {};
  EXPECT_TRUE(disk.ReadPage(p, buf).IsIOError());
  EXPECT_TRUE(disk.WritePage(p, buf).IsIOError());
  EXPECT_TRUE(disk.FreePage(p).IsInvalidArgument());  // double free
}

TEST(DiskManagerTest, AccessUnallocatedFails) {
  DiskManager disk(64);
  char buf[64] = {};
  EXPECT_TRUE(disk.ReadPage(42, buf).IsIOError());
  EXPECT_TRUE(disk.WritePage(42, buf).IsIOError());
}

TEST(DiskManagerTest, AllocatedPageIdsSortedAndLive) {
  DiskManager disk(64);
  PageId a = *disk.AllocatePage();
  PageId b = *disk.AllocatePage();
  PageId c = *disk.AllocatePage();
  ASSERT_TRUE(disk.FreePage(b).ok());
  EXPECT_EQ(disk.AllocatedPageIds(), (std::vector<PageId>{a, c}));
}

TEST(DiskManagerFaultTest, ShortReadFillsTailAndReportsTypedStatus) {
  FaultInjector faults(1);
  faults.Arm("disk.read",
             {FaultAction::Kind::kShort, Status::Code::kIOError, 40},
             FaultTrigger::Once(1));
  DiskManager disk(128);
  disk.SetFaultInjector(&faults);
  PageId p = *disk.AllocatePage();
  std::string data(128, 'z');
  ASSERT_TRUE(disk.WritePage(p, data.data()).ok());

  char buf[128];
  Status st = disk.ReadPage(p, buf);
  EXPECT_TRUE(st.IsShortRead()) << st.ToString();
  // Page-id context in the message.
  EXPECT_NE(st.message().find("page " + std::to_string(p)),
            std::string::npos)
      << st.ToString();
  // The transferred prefix is real data; the tail is the 0xCD garbage
  // pattern, so a caller that ignores the status reads obvious junk, not
  // stale plausible bytes.
  for (int i = 0; i < 40; ++i) EXPECT_EQ(buf[i], 'z') << i;
  for (int i = 40; i < 128; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(buf[i]), 0xCD) << i;
  }
  // A short read is not a completed read: it must not count.
  EXPECT_EQ(disk.stats().reads, 0u);
  // The next read succeeds (transient fault).
  EXPECT_TRUE(disk.ReadPage(p, buf).ok());
  EXPECT_EQ(disk.stats().reads, 1u);
}

TEST(DiskManagerFaultTest, ReadPagesReportsPerPageStatuses) {
  FaultInjector faults(1);
  faults.Arm("disk.read",
             {FaultAction::Kind::kShort, Status::Code::kIOError, 16},
             FaultTrigger::Once(2));
  DiskManager disk(64);
  disk.SetFaultInjector(&faults);
  std::vector<PageId> ids;
  std::vector<std::vector<char>> bufs(4, std::vector<char>(64));
  std::vector<char*> outs;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(*disk.AllocatePage());
    outs.push_back(bufs[i].data());
  }
  std::vector<Status> statuses(4);
  disk.ReadPages(ids.data(), outs.data(), 4, statuses.data());
  // The second page's transfer was short; the rest of the batch completed.
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_TRUE(statuses[1].IsShortRead()) << statuses[1].ToString();
  EXPECT_NE(statuses[1].message().find("page " + std::to_string(ids[1])),
            std::string::npos);
  EXPECT_TRUE(statuses[2].ok()) << statuses[2].ToString();
  EXPECT_TRUE(statuses[3].ok()) << statuses[3].ToString();
  EXPECT_EQ(disk.stats().reads, 3u);
}

TEST(DiskManagerFaultTest, TornWriteKeepsOldTailAndReportsTypedStatus) {
  FaultInjector faults(1);
  ASSERT_TRUE(faults.Configure("disk.write=torn:16@2").ok());
  DiskManager disk(64);
  disk.SetFaultInjector(&faults);
  PageId p = *disk.AllocatePage();
  std::string old_data(64, 'a');
  ASSERT_TRUE(disk.WritePage(p, old_data.data()).ok());  // hit 1: clean
  std::string new_data(64, 'b');
  Status st = disk.WritePage(p, new_data.data());        // hit 2: torn
  EXPECT_TRUE(st.IsShortWrite()) << st.ToString();
  EXPECT_NE(st.message().find("page " + std::to_string(p)),
            std::string::npos);

  char buf[64];
  ASSERT_TRUE(disk.ReadPage(p, buf).ok());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(buf[i], 'b') << i;
  for (int i = 16; i < 64; ++i) EXPECT_EQ(buf[i], 'a') << i;
  EXPECT_EQ(disk.stats().writes, 1u);  // only the complete write counted
}

TEST(DiskManagerFaultTest, AllocationNoSpace) {
  FaultInjector faults(1);
  ASSERT_TRUE(faults.Configure("disk.alloc=nospace@2").ok());
  DiskManager disk(64);
  disk.SetFaultInjector(&faults);
  ASSERT_TRUE(disk.AllocatePage().ok());
  auto res = disk.AllocatePage();
  EXPECT_TRUE(res.status().IsNoSpace()) << res.status().ToString();
  // Transient: the device recovers on the next attempt.
  EXPECT_TRUE(disk.AllocatePage().ok());
}

TEST(DiskManagerFaultTest, CrashHaltsDeviceUntilCleared) {
  FaultInjector faults(1);
  ASSERT_TRUE(faults.Configure("disk.write=crash:8@1").ok());
  DiskManager disk(64);
  disk.SetFaultInjector(&faults);
  PageId p = *disk.AllocatePage();
  std::string data(64, 'x');
  EXPECT_TRUE(disk.WritePage(p, data.data()).IsIOError());
  EXPECT_TRUE(disk.halted());
  // Every simulated I/O fails while halted.
  char buf[64];
  EXPECT_TRUE(disk.ReadPage(p, buf).IsIOError());
  EXPECT_TRUE(disk.WritePage(p, data.data()).IsIOError());
  EXPECT_TRUE(disk.AllocatePage().status().IsIOError());
  EXPECT_TRUE(disk.FreePage(p).IsIOError());
  // The torn 8-byte prefix landed before the halt.
  disk.ClearHalt();
  ASSERT_TRUE(disk.ReadPage(p, buf).ok());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(buf[i], 'x') << i;
  for (int i = 8; i < 64; ++i) EXPECT_EQ(buf[i], 0) << i;
}

TEST(DiskManagerFaultTest, LoadFromFileResetsHalt) {
  FaultInjector faults(1);
  ASSERT_TRUE(faults.Configure("disk.write=crash:0@1").ok());
  DiskManager disk(64);
  disk.SetFaultInjector(&faults);
  PageId p = *disk.AllocatePage();
  std::string data(64, 'x');
  ASSERT_TRUE(disk.WritePage(p, data.data()).IsIOError());
  ASSERT_TRUE(disk.halted());
  // Host-level snapshot works on a halted device (the platter survives).
  std::string path = ::testing::TempDir() + "ccam_halted.img";
  ASSERT_TRUE(disk.SaveToFile(path).ok());
  // A restored image is a fresh device: the halt clears.
  {
    FaultInjector::SuppressScope suppress(&faults);
    ASSERT_TRUE(disk.LoadFromFile(path).ok());
  }
  EXPECT_FALSE(disk.halted());
  char buf[64];
  FaultInjector::SuppressScope suppress(&faults);
  EXPECT_TRUE(disk.ReadPage(p, buf).ok());
  std::remove(path.c_str());
}

TEST(DiskManagerChecksumTest, VerifyPageDetectsTornContent) {
  FaultInjector faults(3);
  DiskManager disk(64);
  disk.SetFaultInjector(&faults);
  PageId p = *disk.AllocatePage();
  // A freshly allocated page matches its (zero) seal.
  EXPECT_TRUE(disk.VerifyPage(p).ok());
  std::string data(64, 'a');
  ASSERT_TRUE(disk.WritePage(p, data.data()).ok());
  EXPECT_TRUE(disk.VerifyPage(p).ok());
  // Tear the next write: the page now holds new-head/old-tail content that
  // no complete write ever produced, and the old seal no longer matches.
  ASSERT_TRUE(faults.Configure("disk.write=torn:16@1").ok());
  std::string next(64, 'b');
  EXPECT_FALSE(disk.WritePage(p, next.data()).ok());
  Status st = disk.VerifyPage(p);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(DiskManagerChecksumTest, OptInReadVerificationReturnsCorruption) {
  FaultInjector faults(3);
  DiskManager disk(64);
  disk.SetFaultInjector(&faults);
  PageId p = *disk.AllocatePage();
  std::string data(64, 'a');
  ASSERT_TRUE(disk.WritePage(p, data.data()).ok());
  ASSERT_TRUE(faults.Configure("disk.write=torn:16@1").ok());
  std::string next(64, 'b');
  EXPECT_FALSE(disk.WritePage(p, next.data()).ok());
  // Default read semantics: the torn bytes come back as-is (the paper
  // experiments and the detect-only crash tests rely on this).
  char buf[64];
  EXPECT_TRUE(disk.ReadPage(p, buf).ok());
  // Opt-in verification: the same read now fails loudly, naming the page.
  disk.SetVerifyChecksums(true);
  Status st = disk.ReadPage(p, buf);
  ASSERT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("page 0"), std::string::npos);
}

TEST(DiskManagerFaultTest, DetachedInjectorCostsNothing) {
  // With no injector attached the fault paths are skipped entirely; with
  // one attached but unarmed, behavior is identical too.
  FaultInjector faults(1);
  DiskManager disk(64);
  disk.SetFaultInjector(&faults);
  PageId p = *disk.AllocatePage();
  std::string data(64, 'q');
  EXPECT_TRUE(disk.WritePage(p, data.data()).ok());
  char buf[64];
  EXPECT_TRUE(disk.ReadPage(p, buf).ok());
  disk.SetFaultInjector(nullptr);
  EXPECT_TRUE(disk.ReadPage(p, buf).ok());
  EXPECT_EQ(disk.fault_injector(), nullptr);
}

}  // namespace
}  // namespace ccam
