// scrub — offline verifier for saved CCAM disk images.
//
// Walks every live page of an image and checks, per page: the CRC32C seal
// against the page content, the slotted-page structure, and that every
// live record decodes as a node record. Then reopens the image through the
// file layer and runs the file- and graph-level invariant checks. The
// file writes pages in place, so the verdict is about the platter exactly
// as it was saved (or as a crash left it).
//
// Exit codes: 0 clean, 1 damage found, 2 usage error.
//
// Usage:
//   scrub [--verbose] IMAGE

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/ccam.h"
#include "src/storage/disk_manager.h"
#include "src/storage/page.h"
#include "src/storage/record.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--verbose] IMAGE\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  std::string image;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else if (image.empty()) {
      image = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (image.empty()) return Usage(argv[0]);

  auto peeked = ccam::DiskManager::PeekPageSize(image);
  if (!peeked.ok()) {
    std::fprintf(stderr, "scrub: %s: %s\n", image.c_str(),
                 peeked.status().ToString().c_str());
    return 1;
  }
  size_t page_size = *peeked;
  ccam::DiskManager disk(page_size);
  ccam::Status st = disk.LoadFromFile(image);
  if (!st.ok()) {
    std::fprintf(stderr, "scrub: %s: %s\n", image.c_str(),
                 st.ToString().c_str());
    return 1;
  }

  std::vector<ccam::PageId> pages = disk.AllocatedPageIds();
  std::printf("scrub: %s — page-size=%zu, %zu live pages\n", image.c_str(),
              page_size, pages.size());

  size_t damaged = 0;
  std::vector<char> buf(page_size);
  for (ccam::PageId id : pages) {
    std::vector<std::string> faults;
    ccam::Status seal = disk.VerifyPage(id);
    if (!seal.ok()) faults.push_back(seal.ToString());
    if (disk.ReadPage(id, buf.data()).ok()) {
      ccam::SlottedPage page(buf.data(), page_size);
      ccam::Status layout = page.Validate();
      if (!layout.ok()) {
        faults.push_back("slotted page: " + layout.ToString());
      } else {
        for (int slot : page.LiveSlots()) {
          auto rec = ccam::NodeRecord::Decode(page.GetRecord(slot));
          if (!rec.ok()) {
            faults.push_back("slot " + std::to_string(slot) +
                             ": record decode: " +
                             rec.status().ToString());
          }
        }
      }
    } else {
      faults.push_back("unreadable");
    }
    if (!faults.empty()) {
      ++damaged;
      for (const std::string& f : faults) {
        std::printf("  page %u: %s\n", id, f.c_str());
      }
    } else if (verbose) {
      std::printf("  page %u: ok\n", id);
    }
  }

  // File-level pass: reopen through the access method (the same open path
  // a restart takes) and check the stitched graph.
  ccam::AccessMethodOptions opt;
  opt.page_size = page_size;
  ccam::Ccam file(opt);
  st = file.OpenImage(image);
  if (st.ok()) st = file.CheckFileInvariants();
  if (st.ok()) st = file.CheckGraphInvariants();

  std::printf("scrub: %zu/%zu page(s) damaged; file invariants: %s\n",
              damaged, pages.size(), st.ok() ? "OK" : st.ToString().c_str());
  if (damaged > 0 || !st.ok()) {
    std::fprintf(stderr, "scrub: FAIL — image is damaged\n");
    return 1;
  }
  std::printf("scrub: OK — every page seal, record and invariant holds\n");
  return 0;
}
