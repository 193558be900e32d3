#ifndef CCAM_STORAGE_DISK_MANAGER_H_
#define CCAM_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/storage/io_stats.h"
#include "src/storage/page.h"

namespace ccam {

/// Simulated disk: a growable array of fixed-size pages with exact I/O
/// accounting. The paper evaluates access methods by the *number of data
/// page accesses*, which this simulation counts deterministically; latency
/// is irrelevant to the reproduced results (see DESIGN.md, substitutions).
///
/// Thread safety. Reads are concurrent: ReadPage takes the structure lock
/// shared and bumps an atomic counter, so parallel query streams never
/// serialize on the disk. Structural mutations (Allocate/Free/Write/Load)
/// take the lock exclusively — the file layer keeps its single-writer
/// discipline, so this only guards against reads racing a writer.
///
/// Fault injection. When a FaultInjector is attached, every simulated I/O
/// evaluates a named failpoint first: "<prefix>.read", "<prefix>.write",
/// "<prefix>.alloc", "<prefix>.free" (prefix defaults to "disk"; index
/// disks use "index" so one schedule can target either device). Injected
/// faults surface as typed statuses — kShortRead / kShortWrite for partial
/// transfers (with page-id context), kNoSpace for a full device, the armed
/// code for plain errors — and a kCrash action tears the in-flight write
/// and halts the device (every later I/O fails until ClearHalt()). With no
/// injector attached the hot paths are branch-for-branch identical to the
/// fault-free build: one null pointer test, no counters, no locks beyond
/// the existing ones.
///
/// Checksums. Every complete WritePage stamps a sidecar CRC32C seal for
/// the page (a torn write keeps the page's *old* seal, so the mixed
/// old/new content no longer matches it). Seals live beside the platter,
/// not inside the SlottedPage header, so page capacity — and with it every
/// blocking-factor and I/O count the paper calibrates — is unchanged.
/// Verification on read is opt-in (SetVerifyChecksums): serving and
/// chaos setups turn it on; raw-device tests and paper experiments keep the
/// seed's exact read semantics. VerifyPage() checks one page on demand for
/// scrubbing.
///
/// Writes land on the platter in place, at the moment they are issued:
/// the paper measures every operation by the page writes it does when it
/// does them. Durable mutation lives one level up, in the snapshot store's
/// delta log (src/storage/delta_log.h); this device only detects damage.
class DiskManager {
 public:
  explicit DiskManager(size_t page_size);

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  size_t page_size() const { return page_size_; }

  /// Allocates a zeroed page and returns its id. Freed pages are reused.
  /// Fails only under injected faults (device full / halted).
  Result<PageId> AllocatePage();

  /// Returns a page to the free list. Double-free is an error.
  Status FreePage(PageId id);

  /// Copies the page contents into `out` (page_size bytes). Counts a read.
  /// An injected short read copies only a prefix and fills the tail of
  /// `out` with 0xCD; only complete transfers count toward the I/O stats.
  /// With checksum verification enabled, a page whose content does not
  /// match its seal fails with Corruption naming the page id. Returns once
  /// the page is ready: ReadPages of one page, then a sleep until its ready
  /// time.
  Status ReadPage(PageId id, char* out);

  /// Issues `n` page reads as one batch without waiting for the device:
  /// page `ids[i]` into `outs[i]`, with its outcome in `statuses[i]`. Each
  /// page goes through the copy, failpoint, seal and counting steps (a
  /// failed page does not stop the rest). Returns the batch's ready time,
  /// issue + one simulated latency however many pages it holds; the
  /// caller must not use the pages before it. A batch whose reads all
  /// failed, or a device without latency, is ready at once (the epoch).
  /// Read-ahead uses this to keep the misses of a known access sequence in
  /// flight together.
  std::chrono::steady_clock::time_point ReadPages(const PageId* ids,
                                                  char* const* outs, size_t n,
                                                  Status* statuses);

  /// Overwrites the page from `in` (page_size bytes). Counts a write.
  /// An injected torn write persists only a prefix (the page keeps its old
  /// tail — and its old seal); only complete transfers count toward the
  /// I/O stats and restamp the seal.
  Status WritePage(PageId id, const char* in);

  bool IsAllocated(PageId id) const;

  /// Number of live (allocated, not freed) pages.
  size_t NumAllocatedPages() const;

  /// Ids of all live pages, ascending.
  std::vector<PageId> AllocatedPageIds() const;

  /// Checks one live page's content against its CRC32C seal without
  /// counting I/O — the scrub primitive. Corruption names the page id.
  Status VerifyPage(PageId id) const;

  /// Turns on seal verification inside ReadPage. Off by default: the
  /// paper experiments and the raw-device tests rely on reads returning
  /// whatever bytes the platter holds (e.g. after a torn write).
  void SetVerifyChecksums(bool verify);
  bool verify_checksums() const;

  /// Snapshot of the I/O counters (by value: the counters are atomics).
  IoStats stats() const;
  void ResetStats();
  /// Restores a previously captured snapshot — used by diagnostics scans
  /// that must not perturb experiment counters.
  void RestoreStats(const IoStats& snapshot);

  /// Models disk latency for throughput experiments. A read is issued
  /// (copied) at once and becomes ready this long later: ReadPages returns
  /// that ready time without waiting, ReadPage waits for it *after*
  /// releasing the structure lock. So concurrent misses overlap like
  /// requests queued at a real device, and a batch costs one latency
  /// however many pages it holds. A call whose reads all failed is ready
  /// at once. 0 (the default) keeps reads instantaneous; accounting is
  /// identical either way.
  void SetSimulatedReadLatencyMicros(uint32_t micros) {
    read_latency_us_.store(micros, std::memory_order_relaxed);
  }
  uint32_t simulated_read_latency_micros() const {
    return read_latency_us_.load(std::memory_order_relaxed);
  }

  /// Attaches (or detaches, with nullptr) the fault injector. The injector
  /// is not owned and must outlive the manager or be detached first.
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }
  FaultInjector* fault_injector() const { return faults_; }

  /// Attaches (or detaches) a metrics registry. Completed I/Os then bump
  /// "<prefix>.read" / "<prefix>.write" / "<prefix>.alloc" /
  /// "<prefix>.free" counters and feed "<prefix>.read_us" /
  /// "<prefix>.write_us" latency histograms (prefix as per
  /// SetFailpointPrefix, default "disk"). A read records issue -> ready
  /// time, once per page read, whether or not the caller waits for it: the
  /// copy plus the simulated latency. Detached (the default), every
  /// instrumentation site is one null-pointer test — the simulated I/O
  /// accounting the paper's tables are built on is untouched either way.
  void SetMetrics(MetricsRegistry* metrics);

  /// Renames this device's failpoints to "<prefix>.read" etc. (default
  /// "disk"). Index-file disks use "index" so fault schedules compose.
  void SetFailpointPrefix(const std::string& prefix);

  /// True once an injected kCrash fault fired: the simulated device halted
  /// mid-write and every subsequent I/O fails with kIOError. Snapshot
  /// (SaveToFile) and restore still work: they model reading the platter
  /// after the machine died, and count no simulated I/O.
  bool halted() const { return halted_.load(std::memory_order_acquire); }
  void Halt() { halted_.store(true, std::memory_order_release); }
  void ClearHalt() { halted_.store(false, std::memory_order_release); }

  /// Writes the whole disk image (page size, allocation bitmap, page
  /// contents, page seals, and an empty trailer where older builds kept a
  /// page log) to a real file. Counts no simulated I/O.
  Status SaveToFile(const std::string& path) const;

  /// Replaces this disk's contents with a previously saved image. The
  /// image's page size must match this manager's. Resets the I/O counters.
  /// Legacy images without seal/trailer sections load with seals computed
  /// from page content. Every count in the header is checked against the
  /// bytes the file actually holds before anything is allocated, and an
  /// image whose trailer carries page-log bytes fails with Corruption: its
  /// committed-but-unapplied transactions could never be replayed, so
  /// opening it would silently lose them.
  Status LoadFromFile(const std::string& path);

  /// Reads just the page size from an image header, without loading it —
  /// lets tools size a manager to fit an arbitrary image.
  static Result<size_t> PeekPageSize(const std::string& path);

 private:
  /// One page's copy, failpoint, seal and counting steps; the caller holds
  /// mu_ shared.
  Status ReadLocked(PageId id, char* out);

  size_t page_size_;
  uint32_t zero_seal_;
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<char[]>> pages_;
  std::vector<bool> allocated_;
  std::vector<PageId> free_list_;
  /// Sidecar CRC32C of each page's last completely-written content.
  std::vector<uint32_t> seals_;
  bool verify_checksums_ = false;

  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> allocs_{0};
  std::atomic<uint64_t> frees_{0};
  std::atomic<uint32_t> read_latency_us_{0};
  std::atomic<bool> halted_{false};
  FaultInjector* faults_ = nullptr;
  std::string prefix_ = "disk";
  std::string fp_read_ = "disk.read";
  std::string fp_write_ = "disk.write";
  std::string fp_alloc_ = "disk.alloc";
  std::string fp_free_ = "disk.free";

  /// Cached metric handles, resolved at attach time so the I/O paths never
  /// take the registry lock. All null when no registry is attached.
  MetricsRegistry* metrics_ = nullptr;
  MetricCounter* m_reads_ = nullptr;
  MetricCounter* m_writes_ = nullptr;
  MetricCounter* m_allocs_ = nullptr;
  MetricCounter* m_frees_ = nullptr;
  MetricHistogram* m_read_us_ = nullptr;
  MetricHistogram* m_write_us_ = nullptr;
};

}  // namespace ccam

#endif  // CCAM_STORAGE_DISK_MANAGER_H_
