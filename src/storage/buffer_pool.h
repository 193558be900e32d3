#ifndef CCAM_STORAGE_BUFFER_POOL_H_
#define CCAM_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/storage/disk_manager.h"
#include "src/storage/io_stats.h"
#include "src/storage/page_quarantine.h"

namespace ccam {

/// Page replacement policy of the buffer pool.
enum class ReplacementPolicy {
  /// Least-recently-used (the default; matches the paper's buffering
  /// discussion).
  kLru,
  /// First-in-first-out: eviction order ignores re-references.
  kFifo,
  /// CLOCK (second-chance): an approximation of LRU with one reference
  /// bit per frame, as most real buffer managers implement.
  kClock,
};

const char* ReplacementPolicyName(ReplacementPolicy policy);

class PageGuard;

/// Fixed-capacity buffer pool over a DiskManager. Pages are pinned while
/// in use; unpinned pages are eviction candidates per the configured
/// replacement policy (LRU by default). Dirty pages are written back on
/// eviction or explicit flush.
///
/// The paper's experiments assume small data buffers (route evaluation uses
/// a single one-page buffer); the pool capacity is therefore a first-class
/// experiment parameter.
///
/// Thread safety. The frame table is split into shards, each protected by
/// its own latch; a page's shard is fixed by its id. Fetch / Unpin /
/// Contains / PinCount and the hit/miss counters are safe to call from any
/// number of threads concurrently; concurrent fetches of one page resolve
/// to a single disk read (followers wait and score a hit). Structural
/// operations (NewPage, Discard, FlushAll, Reset) keep the file layer's
/// single-writer discipline: they must not race with other calls on the
/// same pages.
///
/// One load path: a demand miss is a read-ahead of one page. A pinned
/// frame is reserved under the latch, the read is issued outside it
/// (DiskManager::ReadPages), and the copy lands stamped with the read's
/// ready time, which every fetch of the frame waits for off the latch. A
/// failed load leaves the pool; each fetch that waited on it retries as
/// its own miss.
///
/// Replacement state is per shard: each shard keeps its frames on an
/// intrusive doubly-linked list (LRU order for kLru, load order for
/// kFifo/kClock, with a per-shard CLOCK hand), making victim selection and
/// removal O(1) instead of the former O(capacity) scan. A single-shard
/// pool reproduces the classic unsharded replacement behavior bit for bit;
/// tiny pools (the paper's experiments) always get one shard.
class BufferPool {
 public:
  /// `num_shards` = 0 (the default) selects an automatic count,
  /// min(kMaxShards, hardware threads), clamped so that every shard keeps
  /// at least kMinFramesPerShard frames — pools smaller than
  /// 2 * kMinFramesPerShard pages therefore collapse to a single shard.
  /// Explicit counts are clamped to [1, min(capacity, kMaxShards)].
  BufferPool(DiskManager* disk, size_t capacity,
             ReplacementPolicy policy = ReplacementPolicy::kLru,
             size_t num_shards = 0);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  static constexpr size_t kMaxShards = 16;
  static constexpr size_t kMinFramesPerShard = 8;

  /// The shard count `num_shards` = 0 resolves to for a pool of
  /// `capacity` pages.
  static size_t AutoShardCount(size_t capacity);

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  size_t NumBuffered() const;

  /// Returns the frame holding page `id`, reading it from disk on a miss,
  /// and pins it. Fails when every frame of the page's shard is pinned, or
  /// with the status of this fetch's own failed read.
  Result<char*> FetchPage(PageId id) { return FetchPage(id, nullptr); }

  /// FetchPage that additionally reports whether the fetch missed (i.e.
  /// charged one disk read) and, in `was_ahead`, whether it was the first
  /// fetch of a page a read-ahead loaded (no read; demand order would have
  /// missed here). Per-session accounting is built on this.
  Result<char*> FetchPage(PageId id, bool* was_miss,
                          bool* was_ahead = nullptr);

  /// One read-ahead window, assembled in access order: the longest prefix
  /// of a known access sequence whose distinct pages fit every shard's
  /// capacity. Callers admit pages until one does not fit, so a hint costs
  /// its window, not the rest of its sequence.
  class ReadAheadWindow {
   public:
    explicit ReadAheadWindow(const BufferPool& pool) : pool_(pool) {}

    /// Admits the next access's page; kInvalidPageId reads nothing and
    /// always fits. False when the page does not fit: the window ends
    /// before that access. FIFO and CLOCK pools admit everything and
    /// record nothing.
    bool Admit(PageId id);

   private:
    friend class BufferPool;
    const BufferPool& pool_;
    size_t used_[kMaxShards] = {};  // distinct pages per shard
    std::vector<PageId> pages_;      // distinct, first-touch order
  };

  /// Reads `window` ahead without waiting for the device. In first-touch
  /// order it moves the window's resident pages to MRU and reserves frames
  /// for the missing ones, evicting through the normal victim rule, then
  /// issues the missing pages as one disk batch. The frames land unpinned
  /// as soon as the batch is copied, stamped with its ready time, and a
  /// fetch waits for the stamp as it does for its own miss. So the batches
  /// of several windows or shards are in flight together, and a stamped
  /// frame nobody fetched is evictable. Each load counts as a miss when it
  /// lands, charged to `io` when given; the first fetch of a loaded page
  /// then scores neither a hit nor a miss (FetchPage reports it in
  /// `was_ahead`). A page whose batch read fails is charged to nobody and
  /// leaves the pool like a failed demand load: its fetches read it as
  /// their own misses, through the retry and quarantine path. Quarantined
  /// pages are skipped.
  ///
  /// LRU only: with at most a shard's capacity of distinct pages per
  /// window, every demand miss would have evicted an untouched resident
  /// page, oldest first, so victims, misses and final recency equal those
  /// of fetching the window in order. FIFO and CLOCK pools do nothing.
  void ReadAhead(const ReadAheadWindow& window, IoStats* io);

  /// Releases one pin; `dirty` marks the frame as modified.
  Status UnpinPage(PageId id, bool dirty);

  /// Allocates a fresh page on disk and installs an empty pinned frame for
  /// it (no disk read is charged; the caller formats the frame).
  Status NewPage(PageId* id, char** data);

  /// True if the page currently resides in the pool. Used to implement the
  /// paper's "check the buffered data-page first" step of
  /// Get-A-successor()/Get-successors() without incurring I/O.
  bool Contains(PageId id) const;

  /// Writes the frame back if dirty. No-op for clean or absent pages.
  Status FlushPage(PageId id);

  /// Flushes every dirty frame.
  Status FlushAll();

  /// Drops the frame without writing it back (used after FreePage). The
  /// page must not be pinned.
  void Discard(PageId id);

  /// Flushes and empties the pool.
  Status Reset();

  /// Hit/miss counters, sampled as one coherent pair. Both fields are
  /// updated together under the owning shard's latch: a miss when a load's
  /// copy lands (a demand miss and a read-ahead load alike), a hit when a
  /// fetch of a resident or joined frame completes. The first fetch of a
  /// read-ahead load counts as neither. So at any sampling instant
  /// `hits + misses` equals the successful fetches that have returned plus
  /// the landed loads whose fetch has not returned or claimed them yet,
  /// even while other threads are mid-fetch. Failed fetches and failed
  /// loads count as neither. `ahead_misses` counts those first fetches of
  /// read-ahead loads (their loads are already in `misses`).
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t ahead_misses = 0;
  };

  /// Aggregates the per-shard counters, taking each shard latch briefly so
  /// every shard contributes an internally consistent pair. Safe to call
  /// from any thread while fetches are in flight.
  Counters GetCounters() const;

  uint64_t hits() const { return GetCounters().hits; }
  uint64_t misses() const { return GetCounters().misses; }
  void ResetCounters();

  /// Attaches (or detaches) a metrics registry: fetch outcomes bump
  /// "buffer_pool.hit" / "buffer_pool.miss", evictions
  /// "buffer_pool.eviction", dirty write-backs "buffer_pool.writeback".
  /// Like the disk's SetMetrics, attach while the pool is quiescent.
  void SetMetrics(MetricsRegistry* metrics);

  /// Attaches (or with nullptr detaches) the corruption-containment set.
  /// With a quarantine attached, a fetch miss first fast-fails if the page
  /// is quarantined; a miss read that fails with Corruption or ShortRead is
  /// re-read up to the bounded retry budget (distinguishing a transient
  /// torn transfer from persistent damage), and on exhaustion the page id
  /// is quarantined so later fetches fail fast. Detached (the default) the
  /// fetch path is byte-for-byte the old single-attempt behavior. Attach
  /// while quiescent.
  void SetQuarantine(PageQuarantine* quarantine) { quarantine_ = quarantine; }
  PageQuarantine* quarantine() const { return quarantine_; }

  /// Re-reads attempted after a failed miss read before quarantining
  /// (default 2, i.e. up to 3 attempts total). Only meaningful with a
  /// quarantine attached.
  void SetReadRetries(int retries) { read_retries_ = retries < 0 ? 0 : retries; }

  int PinCount(PageId id) const;

 private:
  struct Shard;
  using Clock = std::chrono::steady_clock;

  struct Frame {
    std::unique_ptr<char[]> data;
    PageId id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool ref_bit = false;     // referenced since the hand passed (CLOCK)
    bool io_pending = false;  // the load's copy is still in flight
    bool io_failed = false;   // the load failed; the frame leaves the pool
    bool read_ahead = false;  // loaded ahead, not fetched since (counted)
    /// Ready time of the read that loaded the frame; fetches wait until
    /// it. The epoch once a fetch has waited.
    Clock::time_point ready_at{};
    Frame* prev = nullptr;
    Frame* next = nullptr;
  };

  /// One latch-protected slice of the frame table. The intrusive list
  /// holds every frame of the shard: in recency order for kLru (head =
  /// coldest), in load order for kFifo and kClock. The hit/miss counters
  /// are guarded by `mu` (not atomics): they are only ever touched with
  /// the latch held, which is what lets GetCounters() read each shard's
  /// pair as a consistent unit.
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable io_cv;  // a load landed or a failed one left
    std::unordered_map<PageId, Frame> frames;
    Frame* head = nullptr;
    Frame* tail = nullptr;
    Frame* hand = nullptr;  // CLOCK hand (null = start at head)
    size_t capacity = 0;
    size_t loads = 0;  // frames whose copy is in flight (io_pending)
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t ahead_misses = 0;
  };

  Shard& ShardFor(PageId id) const {
    return *shards_[static_cast<size_t>(id) % shards_.size()];
  }

  static void ListPushBack(Shard* shard, Frame* frame);
  static void ListRemove(Shard* shard, Frame* frame);
  static void ListMoveToBack(Shard* shard, Frame* frame);

  /// Picks a victim per the replacement policy and evicts it (writing it
  /// back when dirty). Caller holds the shard latch.
  Status EvictOneLocked(Shard* shard);
  Status EvictFrameLocked(Shard* shard, Frame* frame);

  /// The frame set-up of every miss, read-ahead load and NewPage: a
  /// pinned, zeroed frame at the list's tail, after evicting a victim when
  /// the shard is full. A `load` is io_pending and counted in `loads`.
  Result<Frame*> InstallLocked(Shard* shard, PageId id, bool load);
  /// Lands a load: stamped with `ready` and counted as a miss, still
  /// pinned, or on failure dropped from the list and unpinned. False when
  /// the read failed.
  bool LandLocked(Shard* shard, Frame* frame, const Status& status,
                  Clock::time_point ready);
  /// The last pin out of a failed frame erases it.
  void UnpinFailedLocked(Shard* shard, Frame* frame);

  /// A miss's one-page ReadPages plus, with a quarantine attached, its
  /// bounded re-reads; runs outside the shard latch.
  Status ReadWithRetry(PageId id, char* data, Clock::time_point* ready);

  DiskManager* disk_;
  size_t capacity_;
  ReplacementPolicy policy_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Cached metric handles (null = metrics detached; see SetMetrics).
  MetricCounter* m_hit_ = nullptr;
  MetricCounter* m_miss_ = nullptr;
  MetricCounter* m_eviction_ = nullptr;
  MetricCounter* m_writeback_ = nullptr;

  /// Corruption containment (null = detached, the default).
  PageQuarantine* quarantine_ = nullptr;
  int read_retries_ = 2;
};

/// RAII pin: fetches a page on construction and unpins on destruction.
/// When `io` is given, a fetch miss charges one read to it — the basis of
/// the per-session accounting of concurrent query streams. A moved-from
/// or Release()d guard is inert; destruction after the pool was Reset()
/// is harmless (the unpin is a no-op error that the guard swallows).
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageId id, IoStats* io = nullptr);

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard();

  bool ok() const { return data_ != nullptr; }
  const Status& status() const { return status_; }
  char* data() const { return data_; }
  PageId id() const { return id_; }

  /// Marks the page dirty so the unpin writes it back eventually.
  void MarkDirty() { dirty_ = true; }

  /// Unpins immediately (idempotent).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
  bool dirty_ = false;
  Status status_;
};

}  // namespace ccam

#endif  // CCAM_STORAGE_BUFFER_POOL_H_
