#include "src/storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

namespace ccam {

const char* ReplacementPolicyName(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kFifo:
      return "fifo";
    case ReplacementPolicy::kClock:
      return "clock";
  }
  return "unknown";
}

size_t BufferPool::AutoShardCount(size_t capacity) {
  size_t hw = std::max(1u, std::thread::hardware_concurrency());
  size_t by_capacity = std::max<size_t>(1, capacity / kMinFramesPerShard);
  return std::min({kMaxShards, hw, by_capacity});
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity,
                       ReplacementPolicy policy, size_t num_shards)
    : disk_(disk), capacity_(capacity), policy_(policy) {
  assert(capacity_ >= 1);
  size_t n = num_shards == 0 ? AutoShardCount(capacity_) : num_shards;
  n = std::clamp<size_t>(n, 1, std::min(capacity_, kMaxShards));
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    // Distribute the capacity as evenly as possible; the first
    // capacity % n shards take the remainder.
    shards_.back()->capacity = capacity_ / n + (i < capacity_ % n ? 1 : 0);
  }
}

void BufferPool::ListPushBack(Shard* shard, Frame* frame) {
  frame->prev = shard->tail;
  frame->next = nullptr;
  if (shard->tail != nullptr) {
    shard->tail->next = frame;
  } else {
    shard->head = frame;
  }
  shard->tail = frame;
}

void BufferPool::ListRemove(Shard* shard, Frame* frame) {
  if (shard->hand == frame) {
    // The CLOCK hand moves to the next frame in ring order, exactly as the
    // index adjustment of the former vector implementation did.
    shard->hand = frame->next != nullptr ? frame->next : shard->head;
    if (shard->hand == frame) shard->hand = nullptr;  // last frame removed
  }
  if (frame->prev != nullptr) {
    frame->prev->next = frame->next;
  } else {
    shard->head = frame->next;
  }
  if (frame->next != nullptr) {
    frame->next->prev = frame->prev;
  } else {
    shard->tail = frame->prev;
  }
  frame->prev = frame->next = nullptr;
}

void BufferPool::ListMoveToBack(Shard* shard, Frame* frame) {
  if (shard->tail == frame) return;
  ListRemove(shard, frame);
  ListPushBack(shard, frame);
}

Status BufferPool::EvictFrameLocked(Shard* shard, Frame* frame) {
  assert(frame->pin_count == 0);
  if (frame->dirty) {
    CCAM_RETURN_NOT_OK(disk_->WritePage(frame->id, frame->data.get()));
    if (m_writeback_ != nullptr) m_writeback_->Inc();
  }
  PageId id = frame->id;
  ListRemove(shard, frame);
  shard->frames.erase(id);
  if (m_eviction_ != nullptr) m_eviction_->Inc();
  return Status::OK();
}

Status BufferPool::EvictOneLocked(Shard* shard) {
  Frame* victim = nullptr;
  if (policy_ == ReplacementPolicy::kClock) {
    // Sweep the ring (list in load order), clearing reference bits; evict
    // the first unpinned unreferenced frame. Two full sweeps guarantee
    // progress when any frame is evictable.
    size_t n = shard->frames.size();
    Frame* cursor = shard->hand != nullptr ? shard->hand : shard->head;
    for (size_t step = 0; step < 2 * n && cursor != nullptr; ++step) {
      if (cursor->pin_count == 0) {
        if (cursor->ref_bit) {
          cursor->ref_bit = false;
        } else {
          victim = cursor;
          break;
        }
      }
      cursor = cursor->next != nullptr ? cursor->next : shard->head;
    }
    // The hand rests on the victim; ListRemove advances it to the next
    // frame, matching the unsharded implementation.
    if (victim != nullptr) shard->hand = victim;
  } else {
    // kLru: the list is in recency order, head coldest. kFifo: the list is
    // in load order, head oldest. Either way the first unpinned frame from
    // the head is the victim.
    for (Frame* f = shard->head; f != nullptr; f = f->next) {
      if (f->pin_count == 0) {
        victim = f;
        break;
      }
    }
  }
  if (victim == nullptr) {
    return Status::NoSpace("all buffer frames of the shard are pinned");
  }
  return EvictFrameLocked(shard, victim);
}

Result<char*> BufferPool::FetchPage(PageId id, bool* was_miss,
                                    bool* was_ahead) {
  Shard& shard = ShardFor(id);
  std::unique_lock<std::mutex> lock(shard.mu);
  Frame* frame = nullptr;  // pinned by this fetch
  bool loaded = false;     // by this fetch's own load: its miss
  while (frame == nullptr) {
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      Frame& found = it->second;
      if (found.io_failed) {
        // A failed load's waiters still pin it: miss once it has left.
        shard.io_cv.wait(lock);
        continue;
      }
      // Pin before any wait so the frame cannot be evicted under us.
      ++found.pin_count;
      shard.io_cv.wait(lock, [&found] { return !found.io_pending; });
      if (found.io_failed) {
        UnpinFailedLocked(&shard, &found);  // then this fetch's own miss
        continue;
      }
      frame = &found;
      break;
    }
    // Quarantined pages fail fast before a frame or disk read is spent on
    // them: their reads already failed the bounded retries, so re-paying
    // the I/O would only stall this request behind a known-bad page.
    if (quarantine_ != nullptr) {
      CCAM_RETURN_NOT_OK(quarantine_->Check(id));
    }
    Result<Frame*> installed = InstallLocked(&shard, id, /*load=*/true);
    if (!installed.ok()) {
      // A read-ahead pins its frames only while it copies them: wait for
      // a load to land rather than fail, then look again (it may hold id).
      if (shard.loads == 0) return installed.status();
      shard.io_cv.wait(lock);
      continue;
    }
    // Issue the read outside the latch, so hits on other pages of the
    // shard proceed. The pin keeps the frame alive, and unordered_map
    // never moves its nodes.
    Frame* load = *installed;
    lock.unlock();
    Clock::time_point ready;
    Status read_status = ReadWithRetry(id, load->data.get(), &ready);
    lock.lock();
    if (!LandLocked(&shard, load, read_status, ready)) return read_status;
    frame = load;
    loaded = true;
  }
  // The one device wait, for demand and read-ahead loads alike: a landed
  // frame is stamped with its read's ready time, and its fetches wait
  // here, pinned and off the latch, until then.
  if (frame->ready_at != Clock::time_point{}) {
    const auto ready = frame->ready_at;
    lock.unlock();
    std::this_thread::sleep_until(ready);
    lock.lock();
    frame->ready_at = {};
  }
  const bool ahead = frame->read_ahead;
  if (!loaded) {
    if (ahead) {
      frame->read_ahead = false;  // its load already counted the miss
      ++shard.ahead_misses;
    } else {
      ++shard.hits;
      if (m_hit_ != nullptr) m_hit_->Inc();
    }
    frame->ref_bit = true;
    if (policy_ == ReplacementPolicy::kLru) ListMoveToBack(&shard, frame);
  }
  if (was_miss != nullptr) *was_miss = loaded;
  if (was_ahead != nullptr) *was_ahead = ahead;
  return frame->data.get();
}

Result<BufferPool::Frame*> BufferPool::InstallLocked(Shard* shard, PageId id,
                                                     bool load) {
  if (shard->frames.size() >= shard->capacity) {
    CCAM_RETURN_NOT_OK(EvictOneLocked(shard));
  }
  Frame& frame = shard->frames[id];
  frame.id = id;
  frame.data = std::make_unique<char[]>(disk_->page_size());
  frame.pin_count = 1;
  frame.ref_bit = true;
  frame.io_pending = load;
  shard->loads += load;
  ListPushBack(shard, &frame);
  return &frame;
}

bool BufferPool::LandLocked(Shard* shard, Frame* frame, const Status& status,
                            Clock::time_point ready) {
  frame->io_pending = false;
  --shard->loads;
  shard->io_cv.notify_all();
  if (!status.ok()) {
    frame->io_failed = true;
    ListRemove(shard, frame);
    UnpinFailedLocked(shard, frame);
    return false;
  }
  // Counted only now, under the latch: a counter sample never sees a miss
  // whose read is still being copied or failed.
  frame->ready_at = ready;
  ++shard->misses;
  if (m_miss_ != nullptr) m_miss_->Inc();
  return true;
}

void BufferPool::UnpinFailedLocked(Shard* shard, Frame* frame) {
  if (--frame->pin_count > 0) return;
  shard->frames.erase(frame->id);
  shard->io_cv.notify_all();
}

bool BufferPool::ReadAheadWindow::Admit(PageId id) {
  if (pool_.policy_ != ReplacementPolicy::kLru || id == kInvalidPageId) {
    return true;
  }
  // At most capacity() pages are distinct, so a linear lookup suffices.
  if (std::find(pages_.begin(), pages_.end(), id) != pages_.end()) {
    return true;
  }
  const size_t s = static_cast<size_t>(id) % pool_.shards_.size();
  if (used_[s] == pool_.shards_[s]->capacity) return false;
  ++used_[s];
  pages_.push_back(id);
  return true;
}

void BufferPool::ReadAhead(const ReadAheadWindow& window, IoStats* io) {
  const std::vector<PageId>& distinct = window.pages_;
  if (distinct.empty()) return;
  // Reserve a pinned, io_pending frame per missing page, shard by shard in
  // first-touch order, exactly as the window's fetches would have.
  struct Load {
    Shard* shard;
    Frame* frame;
  };
  std::vector<Load> loads;
  std::vector<PageId> ids;
  std::vector<char*> outs;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (window.used_[s] == 0) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (PageId id : distinct) {
      if (static_cast<size_t>(id) % shards_.size() != s) continue;
      auto it = shard.frames.find(id);
      if (it != shard.frames.end()) {
        // A failed read's frame has already left the list; its last pin
        // out erases it.
        if (!it->second.io_failed) {
          it->second.ref_bit = true;
          ListMoveToBack(&shard, &it->second);
        }
        continue;
      }
      if (quarantine_ != nullptr && quarantine_->Contains(id)) continue;
      // Frames pinned by concurrent fetches can leave no victim: the rest
      // of this shard's window is then left to the demand fetches.
      Result<Frame*> frame = InstallLocked(&shard, id, /*load=*/true);
      if (!frame.ok()) break;
      loads.push_back({&shard, *frame});
      ids.push_back(id);
      outs.push_back((*frame)->data.get());
    }
  }
  if (loads.empty()) return;
  std::vector<Status> statuses(loads.size());
  const auto ready =
      disk_->ReadPages(ids.data(), outs.data(), ids.size(), statuses.data());
  // Land the loads as soon as they are copied, stamped with the batch's
  // ready time and unpinned; they are grouped by shard, so each latch is
  // taken once.
  for (size_t i = 0; i < loads.size();) {
    Shard& shard = *loads[i].shard;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (; i < loads.size() && loads[i].shard == &shard; ++i) {
      Frame& frame = *loads[i].frame;
      if (!LandLocked(&shard, &frame, statuses[i], ready)) continue;
      frame.read_ahead = true;
      --frame.pin_count;
      if (io != nullptr) ++io->reads;
    }
  }
}

Status BufferPool::ReadWithRetry(PageId id, char* data,
                                 Clock::time_point* ready) {
  Status status;
  *ready = disk_->ReadPages(&id, &data, 1, &status);
  // Only damage-shaped failures are worth re-reading: a torn transfer or a
  // checksum mismatch may be a transient fault (the injector's whole
  // point), while e.g. NotFound is deterministic.
  const bool retry = quarantine_ != nullptr &&
                     (status.IsCorruption() || status.IsShortRead() ||
                      status.IsIOError());
  for (int attempt = 0; retry && !status.ok() && attempt < read_retries_;
       ++attempt) {
    *ready = disk_->ReadPages(&id, &data, 1, &status);
    if (status.ok()) quarantine_->NoteRetrySuccess();
  }
  // Persistent damage: quarantine the page so later fetches fail fast
  // (this caller still sees the typed failure). Device-level IOError is
  // not page damage — retried above, but never quarantined.
  if (retry && (status.IsCorruption() || status.IsShortRead())) {
    quarantine_->Add(id, status.ToString());
  }
  return status;
}

Status BufferPool::UnpinPage(PageId id, bool dirty) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) {
    return Status::InvalidArgument("unpin of unbuffered page " +
                                   std::to_string(id));
  }
  Frame& frame = it->second;
  if (frame.pin_count <= 0) {
    return Status::InvalidArgument("unpin of unpinned page " +
                                   std::to_string(id));
  }
  frame.dirty |= dirty;
  --frame.pin_count;
  return Status::OK();
}

Status BufferPool::NewPage(PageId* id, char** data) {
  PageId fresh;
  CCAM_ASSIGN_OR_RETURN(fresh, disk_->AllocatePage());
  Shard& shard = ShardFor(fresh);
  std::unique_lock<std::mutex> lock(shard.mu);
  Result<Frame*> frame = InstallLocked(&shard, fresh, /*load=*/false);
  if (!frame.ok()) {
    // Roll the allocation back so a full pool leaves the disk unchanged
    // (the id returns to the free list and is reused next time).
    lock.unlock();
    (void)disk_->FreePage(fresh);
    return frame.status();
  }
  (*frame)->dirty = true;  // never materialized on disk yet
  *id = fresh;
  *data = (*frame)->data.get();
  return Status::OK();
}

bool BufferPool::Contains(PageId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.frames.count(id) > 0;
}

Status BufferPool::FlushPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end() || !it->second.dirty) return Status::OK();
  CCAM_RETURN_NOT_OK(disk_->WritePage(id, it->second.data.get()));
  it->second.dirty = false;
  if (m_writeback_ != nullptr) m_writeback_->Inc();
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [id, frame] : shard->frames) {
      if (frame.dirty) {
        CCAM_RETURN_NOT_OK(disk_->WritePage(id, frame.data.get()));
        frame.dirty = false;
        if (m_writeback_ != nullptr) m_writeback_->Inc();
      }
    }
  }
  return Status::OK();
}

void BufferPool::Discard(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) return;
  assert(it->second.pin_count == 0);
  ListRemove(&shard, &it->second);
  shard.frames.erase(it);
}

Status BufferPool::Reset() {
  CCAM_RETURN_NOT_OK(FlushAll());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->frames.clear();
    shard->head = shard->tail = shard->hand = nullptr;
  }
  return Status::OK();
}

size_t BufferPool::NumBuffered() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->frames.size();
  }
  return total;
}

BufferPool::Counters BufferPool::GetCounters() const {
  Counters total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.ahead_misses += shard->ahead_misses;
  }
  return total;
}

void BufferPool::ResetCounters() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->hits = 0;
    shard->misses = 0;
    shard->ahead_misses = 0;
  }
}

void BufferPool::SetMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_hit_ = m_miss_ = m_eviction_ = m_writeback_ = nullptr;
    return;
  }
  m_hit_ = metrics->GetCounter("buffer_pool.hit");
  m_miss_ = metrics->GetCounter("buffer_pool.miss");
  m_eviction_ = metrics->GetCounter("buffer_pool.eviction");
  m_writeback_ = metrics->GetCounter("buffer_pool.writeback");
}

int BufferPool::PinCount(PageId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  return it == shard.frames.end() ? 0 : it->second.pin_count;
}

PageGuard::PageGuard(BufferPool* pool, PageId id, IoStats* io)
    : pool_(pool), id_(id) {
  bool was_miss = false;
  bool was_ahead = false;
  auto res = pool->FetchPage(id, &was_miss, &was_ahead);
  if (res.ok()) {
    data_ = *res;
    if (io != nullptr) {
      io->reads += was_miss;
      io->ahead_misses += was_ahead;
    }
  } else {
    status_ = res.status();
    pool_ = nullptr;
  }
}

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      id_(other.id_),
      data_(other.data_),
      dirty_(other.dirty_),
      status_(other.status_) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    data_ = other.data_;
    dirty_ = other.dirty_;
    status_ = other.status_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::Release() {
  if (pool_ != nullptr && data_ != nullptr) {
    (void)pool_->UnpinPage(id_, dirty_);
  }
  pool_ = nullptr;
  data_ = nullptr;
}

}  // namespace ccam
