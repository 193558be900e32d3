// Seeded structure-aware mutation of saved disk images. Every mutated
// image must load as OK or fail with a typed Status — never throw (e.g.
// std::bad_alloc from a hostile count) and never read out of bounds (the
// ASan + UBSan CI stage runs this suite).
//
// Image layout (little-endian):
//   "CCAMDISK" | page_size u32 | num_pages u32
//   num_pages x (allocated flag u8 | page bytes)
//   "CCAMSEAL" | count u32 | count x crc32c u32
//   "CCAMWAL0" | length u64 (always 0: the trailer is kept for byte
//                            compatibility; a non-empty one is refused)

#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/core/ccam.h"
#include "src/graph/generator.h"

namespace ccam {
namespace {

constexpr size_t kPageSize = 512;
constexpr size_t kHeaderBytes = 16;

AccessMethodOptions Options() {
  AccessMethodOptions options;
  options.page_size = kPageSize;
  options.buffer_pool_pages = 4;
  options.num_threads = 1;
  return options;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small valid CCAM image: a static create of a seeded geometric network.
std::string ValidImage() {
  Ccam am(Options(), CcamCreateMode::kStatic);
  Network net = GenerateRandomGeometricNetwork(24, /*radius=*/300.0,
                                               /*extent=*/1000.0, 7);
  EXPECT_TRUE(am.Create(net).ok());
  std::string path = TempPath("image_fuzz_valid.img");
  EXPECT_TRUE(am.SaveImage(path).ok());
  std::string bytes = ReadBytes(path);
  std::remove(path.c_str());
  return bytes;
}

uint32_t NumPages(const std::string& image) {
  return DecodeFixed32(image.data() + 12);
}

size_t SealSectionOffset(const std::string& image) {
  return kHeaderBytes + NumPages(image) * (1 + kPageSize);
}

size_t TrailerOffset(const std::string& image) { return image.size() - 16; }

struct Probe {
  Status load;  // DiskManager::LoadFromFile
  Status open;  // Ccam::OpenImage + file and graph invariants
};

/// Loads `bytes` at the device level and through the file layer. An
/// exception escaping either is a test failure naming `what`.
Probe ProbeImage(const std::string& bytes, const std::string& what) {
  std::string path = TempPath("image_fuzz_probe.img");
  WriteBytes(path, bytes);
  Probe probe;
  try {
    DiskManager disk(kPageSize);
    probe.load = disk.LoadFromFile(path);
    Ccam file(Options(), CcamCreateMode::kStatic);
    probe.open = file.OpenImage(path);
    if (probe.open.ok()) probe.open = file.CheckFileInvariants();
    if (probe.open.ok()) probe.open = file.CheckGraphInvariants();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": exception escaped: " << e.what();
  }
  std::remove(path.c_str());
  return probe;
}

TEST(ImageFuzzTest, EveryTruncationIsCorruptionOrAShorterValidFormat) {
  const std::string image = ValidImage();
  ASSERT_TRUE(ProbeImage(image, "intact").open.ok());
  // Two prefixes are complete images of an older layout: the pages alone
  // (seals recomputed from content) and pages + seals without the trailer.
  const size_t legacy_ends[] = {SealSectionOffset(image),
                                TrailerOffset(image)};
  for (size_t n = 0; n < image.size(); ++n) {
    Probe probe = ProbeImage(image.substr(0, n), "truncated at " +
                                                     std::to_string(n));
    bool legacy = n == legacy_ends[0] || n == legacy_ends[1];
    if (legacy) {
      EXPECT_TRUE(probe.load.ok()) << n << ": " << probe.load.ToString();
      EXPECT_TRUE(probe.open.ok()) << n << ": " << probe.open.ToString();
    } else {
      EXPECT_TRUE(probe.load.IsCorruption())
          << n << ": " << probe.load.ToString();
      EXPECT_TRUE(probe.open.IsCorruption())
          << n << ": " << probe.open.ToString();
    }
  }
}

TEST(ImageFuzzTest, FlippedSectionMagicsAreCorruption) {
  const std::string image = ValidImage();
  for (size_t section :
       {size_t{0}, SealSectionOffset(image), TrailerOffset(image)}) {
    for (size_t i = 0; i < 8; ++i) {
      std::string bad = image;
      bad[section + i] ^= 0x5A;
      std::string what = "magic at " + std::to_string(section) + " byte " +
                         std::to_string(i);
      Probe probe = ProbeImage(bad, what);
      EXPECT_TRUE(probe.load.IsCorruption())
          << what << ": " << probe.load.ToString();
      EXPECT_TRUE(probe.open.IsCorruption())
          << what << ": " << probe.open.ToString();
    }
  }
}

TEST(ImageFuzzTest, OversizedCountsAreCorruptionNotAllocations) {
  const std::string image = ValidImage();
  const size_t seal_count_at = SealSectionOffset(image) + 8;
  const size_t trailer_len_at = TrailerOffset(image) + 8;
  struct Case {
    const char* what;
    size_t offset;
    uint64_t value;
    bool wide;         // u64 field
    size_t appended;   // bytes added after the trailer
  };
  // A trailer that really holds page-log frames was written by a build
  // that staged transactions there; its committed tail can no longer be
  // replayed, so opening the platter alone would silently lose it.
  const Case cases[] = {
      {"num_pages = 0xFFFFFFFF", 12, 0xFFFFFFFFu, false, 0},
      {"num_pages one past the file", 12, NumPages(image) + 1u, false, 0},
      {"seal count = 0xFFFFFFFF", seal_count_at, 0xFFFFFFFFu, false, 0},
      {"trailer length = 2^62", trailer_len_at, uint64_t{1} << 62, true, 0},
      {"trailer holding 40 log bytes", trailer_len_at, 40, true, 40},
  };
  for (const Case& c : cases) {
    std::string bad = image + std::string(c.appended, '\x01');
    if (c.wide) {
      EncodeFixed64(bad.data() + c.offset, c.value);
    } else {
      EncodeFixed32(bad.data() + c.offset, static_cast<uint32_t>(c.value));
    }
    Probe probe = ProbeImage(bad, c.what);
    EXPECT_TRUE(probe.load.IsCorruption())
        << c.what << ": " << probe.load.ToString();
    EXPECT_TRUE(probe.open.IsCorruption())
        << c.what << ": " << probe.open.ToString();
  }
}

TEST(ImageFuzzTest, SeededByteFlipsYieldOkOrTypedStatus) {
  const std::string image = ValidImage();
  Random rng(1995);
  for (int i = 0; i < 400; ++i) {
    std::string bad = image;
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      size_t at = rng.Uniform(static_cast<uint32_t>(bad.size()));
      bad[at] ^= static_cast<char>(1 + rng.Uniform(255));
    }
    // Reaching here without an exception (or a sanitizer report) is the
    // contract; either outcome of each probe is a legitimate Status.
    (void)ProbeImage(bad, "mutation " + std::to_string(i));
  }
}

}  // namespace
}  // namespace ccam
