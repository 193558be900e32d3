#include "src/core/file_stats.h"

#include <gtest/gtest.h>

#include <numeric>

#include "src/common/fault_injector.h"
#include "src/core/ccam.h"
#include "src/graph/generator.h"

namespace ccam {
namespace {

AccessMethodOptions Opts() {
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 8;
  return options;
}

TEST(FileStatsTest, CountsAreConsistent) {
  Network net = GenerateMinneapolisLikeMap(1995);
  Ccam am(Opts(), CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(net).ok());
  auto stats = CollectFileStats(&am, net);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_nodes, net.NumNodes());
  EXPECT_EQ(stats->num_pages, am.NumDataPages());
  EXPECT_DOUBLE_EQ(stats->crr, ComputeCrr(net, am.PageMap()));
  EXPECT_DOUBLE_EQ(stats->blocking_factor, am.AvgBlockingFactor());
  // The histogram accounts for every page.
  size_t hist_total = std::accumulate(
      stats->records_per_page_histogram.begin(),
      stats->records_per_page_histogram.end(), size_t{0});
  EXPECT_EQ(hist_total, stats->num_pages);
  // Fill bounds sane; a ratio-cut-packed file is well-filled on average.
  EXPECT_GE(stats->min_fill, 0.0);
  EXPECT_LE(stats->max_fill, 1.0);
  EXPECT_GT(stats->avg_fill, 0.5);
  EXPECT_GE(stats->max_fill, stats->avg_fill);
  EXPECT_LE(stats->min_fill, stats->avg_fill);
  EXPECT_GT(stats->pag_avg_degree, 0.0);
}

TEST(FileStatsTest, ScanDoesNotPerturbIoCounters) {
  Network net = GenerateMinneapolisLikeMap(3);
  Ccam am(Opts(), CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(net).ok());
  am.ResetIoStats();
  ASSERT_TRUE(am.Find(5).ok());
  IoStats before = am.DataIoStats();
  auto stats = CollectFileStats(&am, net);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(am.DataIoStats().reads, before.reads);
  EXPECT_EQ(am.DataIoStats().writes, before.writes);
}

// A scan that fails part-way is still maintenance: the reads it made
// before the failing one stay off the paper's data counters.
TEST(FileStatsTest, FailedScanDoesNotPerturbIoCounters) {
  Network net = GenerateMinneapolisLikeMap(3);
  Ccam am(Opts(), CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(net).ok());
  ASSERT_TRUE(am.buffer_pool()->Reset().ok());  // every page read misses
  am.ResetIoStats();
  ASSERT_TRUE(am.Find(5).ok());
  IoStats before = am.DataIoStats();
  // Every data-page read from the fourth on fails, past the pool's retries.
  FaultInjector faults(1);
  faults.Arm("disk.read", {FaultAction::Kind::kError, Status::Code::kIOError, 0},
             FaultTrigger::From(4));
  am.SetFaultInjector(&faults);
  auto pages = am.ScanPageOccupancy();
  am.SetFaultInjector(nullptr);
  EXPECT_TRUE(pages.status().IsIOError()) << pages.status().ToString();
  EXPECT_EQ(am.DataIoStats().reads, before.reads);
  EXPECT_EQ(am.DataIoStats().writes, before.writes);
}

TEST(FileStatsTest, ToStringMentionsKeyNumbers) {
  Network net = GenerateMinneapolisLikeMap(3);
  Ccam am(Opts(), CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(net).ok());
  auto stats = CollectFileStats(&am, net);
  ASSERT_TRUE(stats.ok());
  std::string report = stats->ToString();
  EXPECT_NE(report.find("CRR"), std::string::npos);
  EXPECT_NE(report.find("gamma"), std::string::npos);
  EXPECT_NE(report.find("pages"), std::string::npos);
}

TEST(FileStatsTest, EmptyFile) {
  AccessMethodOptions options = Opts();
  Ccam am(options, CcamCreateMode::kStatic);
  Network empty;
  ASSERT_TRUE(am.Create(empty).ok());
  auto stats = CollectFileStats(&am, empty);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_nodes, 0u);
  EXPECT_EQ(stats->avg_fill, 0.0);
}

TEST(FileStatsTest, DetectsUnderfullPagesAfterMassDeletes) {
  Network net = GenerateMinneapolisLikeMap(5);
  // Grid file keeps sparse buckets (no merging), so deletions create
  // underfull pages that the stats must report.
  Ccam am(Opts(), CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(net).ok());
  auto before = CollectFileStats(&am, net);
  ASSERT_TRUE(before.ok());
  Network current = net;
  for (NodeId id = 0; id < 400; id += 2) {
    ASSERT_TRUE(am.DeleteNode(id, ReorgPolicy::kFirstOrder).ok());
    ASSERT_TRUE(current.RemoveNode(id).ok());
  }
  auto after = CollectFileStats(&am, current);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->num_nodes, before->num_nodes);
  EXPECT_LE(after->avg_fill, before->avg_fill + 1e-9);
}

}  // namespace
}  // namespace ccam
