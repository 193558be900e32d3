#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "src/baseline/grid_am.h"
#include "src/baseline/order_am.h"
#include "src/core/ccam.h"
#include "src/graph/generator.h"

namespace ccam {
namespace {

AccessMethodOptions Opts() {
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 8;
  options.maintain_bptree_index = true;
  return options;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(DiskImageTest, SaveLoadRoundTrip) {
  DiskManager disk(256);
  PageId a = *disk.AllocatePage();
  PageId b = *disk.AllocatePage();
  PageId c = *disk.AllocatePage();
  ASSERT_TRUE(disk.FreePage(b).ok());
  char buf[256];
  for (int i = 0; i < 256; ++i) buf[i] = static_cast<char>(i);
  ASSERT_TRUE(disk.WritePage(a, buf).ok());
  std::string path = TempPath("disk_image_test.bin");
  ASSERT_TRUE(disk.SaveToFile(path).ok());

  DiskManager loaded(256);
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(loaded.NumAllocatedPages(), 2u);
  EXPECT_TRUE(loaded.IsAllocated(a));
  EXPECT_FALSE(loaded.IsAllocated(b));
  EXPECT_TRUE(loaded.IsAllocated(c));
  char out[256];
  ASSERT_TRUE(loaded.ReadPage(a, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, 256), 0);
  // The freed slot is reused on the next allocation.
  EXPECT_EQ(*loaded.AllocatePage(), b);
  std::remove(path.c_str());
}

TEST(DiskImageTest, SavedImageEndsInEmptyPageLogTrailer) {
  // The trailer where older builds kept a page log is still written, as
  // its fixed 16 bytes (magic + zero length), so image bytes are unchanged.
  DiskManager disk(256);
  (void)*disk.AllocatePage();
  std::string path = TempPath("disk_image_trailer.bin");
  ASSERT_TRUE(disk.SaveToFile(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GE(bytes.size(), 16u);
  EXPECT_EQ(bytes.substr(bytes.size() - 16),
            std::string("CCAMWAL0") + std::string(8, '\0'));
  std::remove(path.c_str());
}

TEST(DiskImageTest, PageSizeMismatchRejected) {
  DiskManager disk(256);
  (void)*disk.AllocatePage();
  std::string path = TempPath("disk_image_mismatch.bin");
  ASSERT_TRUE(disk.SaveToFile(path).ok());
  DiskManager other(512);
  EXPECT_TRUE(other.LoadFromFile(path).IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(DiskImageTest, GarbageRejected) {
  std::string path = TempPath("disk_image_garbage.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("this is not a disk image", f);
  fclose(f);
  DiskManager disk(256);
  EXPECT_TRUE(disk.LoadFromFile(path).IsCorruption());
  std::remove(path.c_str());
  EXPECT_TRUE(disk.LoadFromFile("/no/such/file").IsIOError());
}

TEST(FileImageTest, CcamSurvivesSaveOpenCycle) {
  Network net = GenerateMinneapolisLikeMap(1995);
  std::string path = TempPath("ccam_image_test.bin");
  double crr_before;
  {
    Ccam am(Opts(), CcamCreateMode::kStatic);
    ASSERT_TRUE(am.Create(net).ok());
    crr_before = ComputeCrr(net, am.PageMap());
    ASSERT_TRUE(am.SaveImage(path).ok());
  }
  Ccam reopened(Opts(), CcamCreateMode::kStatic);
  ASSERT_TRUE(reopened.OpenImage(path).ok());
  EXPECT_EQ(reopened.PageMap().size(), net.NumNodes());
  ASSERT_TRUE(reopened.CheckFileInvariants().ok());
  // Same clustering, same CRR.
  EXPECT_DOUBLE_EQ(ComputeCrr(net, reopened.PageMap()), crr_before);
  // Records fully intact.
  for (NodeId id : {0u, 100u, 500u, 1000u}) {
    auto rec = reopened.Find(id);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->succ.size(), net.node(id).succ.size());
  }
  std::remove(path.c_str());
}

TEST(FileImageTest, ReopenedFileAcceptsUpdates) {
  Network net = GenerateMinneapolisLikeMap(17);
  std::string path = TempPath("ccam_image_updates.bin");
  {
    Ccam am(Opts(), CcamCreateMode::kStatic);
    ASSERT_TRUE(am.Create(net).ok());
    ASSERT_TRUE(am.SaveImage(path).ok());
  }
  Ccam am(Opts(), CcamCreateMode::kStatic);
  ASSERT_TRUE(am.OpenImage(path).ok());
  // Insert, delete, edge ops all work on the reopened file.
  NodeRecord rec;
  rec.id = 50000;
  rec.x = 1;
  rec.y = 1;
  rec.succ = {{3, 1.0f}};
  ASSERT_TRUE(am.InsertNode(rec, ReorgPolicy::kSecondOrder).ok());
  ASSERT_TRUE(am.Find(50000).ok());
  ASSERT_TRUE(am.DeleteNode(7, ReorgPolicy::kSecondOrder).ok());
  ASSERT_TRUE(am.CheckFileInvariants().ok());
  std::remove(path.c_str());
}

TEST(FileImageTest, OpenOnCreatedFileRejected) {
  Network net = GenerateMinneapolisLikeMap(17);
  std::string path = TempPath("ccam_image_double.bin");
  Ccam am(Opts(), CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(net).ok());
  ASSERT_TRUE(am.SaveImage(path).ok());
  EXPECT_TRUE(am.OpenImage(path).IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(FileImageTest, OrderAmResumesAppendCursor) {
  Network net = GenerateMinneapolisLikeMap(23);
  std::string path = TempPath("orderam_image.bin");
  {
    OrderAm am(Opts(), NodeOrderKind::kDfs);
    ASSERT_TRUE(am.Create(net).ok());
    ASSERT_TRUE(am.SaveImage(path).ok());
  }
  OrderAm am(Opts(), NodeOrderKind::kDfs);
  ASSERT_TRUE(am.OpenImage(path).ok());
  ASSERT_TRUE(am.CheckFileInvariants().ok());
  NodeRecord rec;
  rec.id = 60000;
  rec.x = 2;
  rec.y = 2;
  ASSERT_TRUE(am.InsertNode(rec, ReorgPolicy::kFirstOrder).ok());
  EXPECT_TRUE(am.Find(60000).ok());
  std::remove(path.c_str());
}

TEST(FileImageTest, GridAmImagesAreNotSupported) {
  Network net = GenerateMinneapolisLikeMap(23);
  std::string path = TempPath("gridam_image.bin");
  {
    GridAm am(Opts());
    ASSERT_TRUE(am.Create(net).ok());
    ASSERT_TRUE(am.SaveImage(path).ok());  // saving is fine
  }
  GridAm am(Opts());
  EXPECT_TRUE(am.OpenImage(path).IsNotSupported());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccam
