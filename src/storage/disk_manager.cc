#include "src/storage/disk_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "src/common/coding.h"

namespace ccam {

DiskManager::DiskManager(size_t page_size) : page_size_(page_size) {
  std::string zeros(page_size_, '\0');
  zero_seal_ = Crc32c(zeros.data(), zeros.size());
}

namespace {

/// Status for an injected kError / kNoSpace action with page-id context.
Status InjectedStatus(const FaultAction& fault, const std::string& op,
                      PageId id) {
  std::string where = op + " of page " + std::to_string(id);
  if (fault.kind == FaultAction::Kind::kNoSpace) {
    return Status::NoSpace("simulated device full: " + where);
  }
  return Status::FromCode(fault.code, "injected " + op + " error: " + where);
}

Status HaltedStatus(const std::string& op) {
  return Status::IOError("device halted by simulated crash: " + op);
}

}  // namespace

void DiskManager::SetFailpointPrefix(const std::string& prefix) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  prefix_ = prefix;
  fp_read_ = prefix + ".read";
  fp_write_ = prefix + ".write";
  fp_alloc_ = prefix + ".alloc";
  fp_free_ = prefix + ".free";
  MetricsRegistry* metrics = metrics_;
  lock.unlock();
  // Re-resolve the metric handles under the new prefix.
  if (metrics != nullptr) SetMetrics(metrics);
}

void DiskManager::SetMetrics(MetricsRegistry* metrics) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  metrics_ = metrics;
  if (metrics == nullptr) {
    m_reads_ = m_writes_ = m_allocs_ = m_frees_ = nullptr;
    m_read_us_ = m_write_us_ = nullptr;
    return;
  }
  m_reads_ = metrics->GetCounter(prefix_ + ".read");
  m_writes_ = metrics->GetCounter(prefix_ + ".write");
  m_allocs_ = metrics->GetCounter(prefix_ + ".alloc");
  m_frees_ = metrics->GetCounter(prefix_ + ".free");
  m_read_us_ = metrics->GetHistogram(prefix_ + ".read_us");
  m_write_us_ = metrics->GetHistogram(prefix_ + ".write_us");
}

void DiskManager::SetVerifyChecksums(bool verify) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  verify_checksums_ = verify;
}

bool DiskManager::verify_checksums() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return verify_checksums_;
}

Result<PageId> DiskManager::AllocatePage() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (halted()) return HaltedStatus("alloc");
  if (faults_ != nullptr) {
    if (auto fault = faults_->Hit(fp_alloc_)) {
      if (fault->kind == FaultAction::Kind::kCrash) {
        Halt();
        return Status::IOError("simulated crash during alloc");
      }
      return InjectedStatus(*fault, "alloc",
                            static_cast<PageId>(pages_.size()));
    }
  }
  allocs_.fetch_add(1, std::memory_order_relaxed);
  if (m_allocs_ != nullptr) m_allocs_->Inc();
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    allocated_[id] = true;
    std::memset(pages_[id].get(), 0, page_size_);
    seals_[id] = zero_seal_;
    return id;
  }
  PageId id = static_cast<PageId>(pages_.size());
  pages_.push_back(std::make_unique<char[]>(page_size_));
  std::memset(pages_.back().get(), 0, page_size_);
  allocated_.push_back(true);
  seals_.push_back(zero_seal_);
  return id;
}

Status DiskManager::FreePage(PageId id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (halted()) return HaltedStatus("free of page " + std::to_string(id));
  if (faults_ != nullptr) {
    if (auto fault = faults_->Hit(fp_free_)) {
      if (fault->kind == FaultAction::Kind::kCrash) {
        Halt();
        return Status::IOError("simulated crash during free of page " +
                               std::to_string(id));
      }
      return InjectedStatus(*fault, "free", id);
    }
  }
  if (id >= pages_.size() || !allocated_[id]) {
    return Status::InvalidArgument("free of unallocated page " +
                                   std::to_string(id));
  }
  allocated_[id] = false;
  free_list_.push_back(id);
  frees_.fetch_add(1, std::memory_order_relaxed);
  if (m_frees_ != nullptr) m_frees_->Inc();
  return Status::OK();
}

Status DiskManager::ReadPage(PageId id, char* out) {
  Status status;
  // Waited for outside the structure lock, so in-flight reads overlap.
  const auto ready = ReadPages(&id, &out, 1, &status);
  if (ready != std::chrono::steady_clock::time_point{}) {
    std::this_thread::sleep_until(ready);
  }
  return status;
}

std::chrono::steady_clock::time_point DiskManager::ReadPages(
    const PageId* ids, char* const* outs, size_t n, Status* statuses) {
  using Clock = std::chrono::steady_clock;
  // Metric handles are written only while the device is quiescent (attach
  // time), like the fault injector; the clock is read only when needed.
  MetricHistogram* read_hist = m_read_us_;
  const uint32_t latency = read_latency_us_.load(std::memory_order_relaxed);
  Clock::time_point t0;
  if (read_hist != nullptr) t0 = Clock::now();
  size_t done = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      statuses[i] = ReadLocked(ids[i], outs[i]);
      if (statuses[i].ok()) ++done;
    }
  }
  if (done == 0) return {};
  // One latency per batch: the batch's pages are queued at the device
  // together. Without latency the batch is ready once copied.
  Clock::time_point ready{};
  if (latency != 0) ready = Clock::now() + std::chrono::microseconds(latency);
  if (read_hist != nullptr) {
    const Clock::time_point end = latency != 0 ? ready : Clock::now();
    const auto elapsed = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - t0)
            .count());
    for (size_t i = 0; i < done; ++i) read_hist->Record(elapsed);
  }
  return ready;
}

Status DiskManager::ReadLocked(PageId id, char* out) {
  if (halted()) return HaltedStatus("read of page " + std::to_string(id));
  if (id >= pages_.size() || !allocated_[id]) {
    return Status::IOError("read of unallocated page " + std::to_string(id));
  }
  if (faults_ != nullptr) {
    if (auto fault = faults_->Hit(fp_read_)) {
      switch (fault->kind) {
        case FaultAction::Kind::kShort: {
          // A prefix transfers; the rest of the caller's buffer is
          // deterministic garbage (never the real page tail).
          size_t n = std::min(fault->bytes, page_size_);
          std::memcpy(out, pages_[id].get(), n);
          std::memset(out + n, 0xCD, page_size_ - n);
          return Status::ShortRead("short read of page " + std::to_string(id) +
                                   ": " + std::to_string(n) + "/" +
                                   std::to_string(page_size_) + " bytes");
        }
        case FaultAction::Kind::kCrash:
          Halt();
          return Status::IOError("simulated crash during read of page " +
                                 std::to_string(id));
        case FaultAction::Kind::kNoSpace:
        case FaultAction::Kind::kError:
          return InjectedStatus(*fault, "read", id);
      }
    }
  }
  std::memcpy(out, pages_[id].get(), page_size_);
  if (verify_checksums_) {
    uint32_t crc = Crc32c(out, page_size_);
    if (crc != seals_[id]) {
      return Status::Corruption("page " + std::to_string(id) +
                                " checksum mismatch: content crc32c " +
                                std::to_string(crc) + " != seal " +
                                std::to_string(seals_[id]));
    }
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  if (m_reads_ != nullptr) m_reads_->Inc();
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const char* in) {
  MetricHistogram* write_hist = m_write_us_;
  std::chrono::steady_clock::time_point t0;
  if (write_hist != nullptr) t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (halted()) return HaltedStatus("write of page " + std::to_string(id));
  if (id >= pages_.size() || !allocated_[id]) {
    return Status::IOError("write of unallocated page " + std::to_string(id));
  }
  if (faults_ != nullptr) {
    if (auto fault = faults_->Hit(fp_write_)) {
      switch (fault->kind) {
        case FaultAction::Kind::kShort:
        case FaultAction::Kind::kCrash: {
          // Torn write: a prefix lands, the page keeps its old tail — and
          // its old seal, unless every byte transferred (a complete write
          // is a complete write, crash or not).
          size_t n = std::min(fault->bytes, page_size_);
          std::memcpy(pages_[id].get(), in, n);
          if (n == page_size_) seals_[id] = Crc32c(in, page_size_);
          if (fault->kind == FaultAction::Kind::kCrash) {
            Halt();
            return Status::IOError(
                "simulated crash during write of page " + std::to_string(id) +
                " (torn after " + std::to_string(n) + " bytes)");
          }
          return Status::ShortWrite(
              "torn write of page " + std::to_string(id) + ": " +
              std::to_string(n) + "/" + std::to_string(page_size_) +
              " bytes");
        }
        case FaultAction::Kind::kNoSpace:
        case FaultAction::Kind::kError:
          return InjectedStatus(*fault, "write", id);
      }
    }
  }
  std::memcpy(pages_[id].get(), in, page_size_);
  seals_[id] = Crc32c(in, page_size_);
  writes_.fetch_add(1, std::memory_order_relaxed);
  if (m_writes_ != nullptr) m_writes_->Inc();
  if (write_hist != nullptr) {
    write_hist->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  return Status::OK();
}

Status DiskManager::VerifyPage(PageId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size() || !allocated_[id]) {
    return Status::InvalidArgument("verify of unallocated page " +
                                   std::to_string(id));
  }
  uint32_t crc = Crc32c(pages_[id].get(), page_size_);
  if (crc != seals_[id]) {
    return Status::Corruption("page " + std::to_string(id) +
                              " checksum mismatch: content crc32c " +
                              std::to_string(crc) + " != seal " +
                              std::to_string(seals_[id]));
  }
  return Status::OK();
}

bool DiskManager::IsAllocated(PageId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return id < pages_.size() && allocated_[id];
}

size_t DiskManager::NumAllocatedPages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return pages_.size() - free_list_.size();
}

IoStats DiskManager::stats() const {
  IoStats s;
  s.reads = reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.allocs = allocs_.load(std::memory_order_relaxed);
  s.frees = frees_.load(std::memory_order_relaxed);
  return s;
}

void DiskManager::ResetStats() { RestoreStats(IoStats{}); }

void DiskManager::RestoreStats(const IoStats& snapshot) {
  reads_.store(snapshot.reads, std::memory_order_relaxed);
  writes_.store(snapshot.writes, std::memory_order_relaxed);
  allocs_.store(snapshot.allocs, std::memory_order_relaxed);
  frees_.store(snapshot.frees, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Image persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kDiskMagic[8] = {'C', 'C', 'A', 'M', 'D', 'I', 'S', 'K'};
constexpr char kSealMagic[8] = {'C', 'C', 'A', 'M', 'S', 'E', 'A', 'L'};
constexpr char kWalMagic[8] = {'C', 'C', 'A', 'M', 'W', 'A', 'L', '0'};
}  // namespace

Status DiskManager::SaveToFile(const std::string& path) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(kDiskMagic, sizeof(kDiskMagic));
  char header[8];
  EncodeFixed32(header, static_cast<uint32_t>(page_size_));
  EncodeFixed32(header + 4, static_cast<uint32_t>(pages_.size()));
  out.write(header, sizeof(header));
  for (size_t i = 0; i < pages_.size(); ++i) {
    char flag = allocated_[i] ? 1 : 0;
    out.write(&flag, 1);
    out.write(pages_[i].get(), static_cast<std::streamsize>(page_size_));
  }
  // v2 tail sections. Readers of the original format stop at the pages;
  // readers of this format find the seals, then the page-log trailer.
  // Older builds kept a write-ahead page log there; it is always empty
  // now, written as its fixed 16 bytes so image bytes stay unchanged.
  out.write(kSealMagic, sizeof(kSealMagic));
  char count[4];
  EncodeFixed32(count, static_cast<uint32_t>(seals_.size()));
  out.write(count, sizeof(count));
  for (uint32_t seal : seals_) {
    char buf[4];
    EncodeFixed32(buf, seal);
    out.write(buf, sizeof(buf));
  }
  out.write(kWalMagic, sizeof(kWalMagic));
  char wal_len[8];
  EncodeFixed64(wal_len, 0);
  out.write(wal_len, sizeof(wal_len));
  out.flush();
  if (!out) return Status::ShortWrite("short write to " + path);
  return Status::OK();
}

Status DiskManager::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kDiskMagic, sizeof(magic)) != 0) {
    return Status::Corruption("not a ccam disk image: " + path);
  }
  char header[8];
  in.read(header, sizeof(header));
  if (!in) return Status::Corruption("truncated image header");
  uint32_t page_size = DecodeFixed32(header);
  uint32_t num_pages = DecodeFixed32(header + 4);
  if (page_size != page_size_) {
    return Status::InvalidArgument(
        "image page size " + std::to_string(page_size) +
        " does not match manager page size " + std::to_string(page_size_));
  }
  // Bound the claimed page count by the bytes actually present before
  // allocating anything: a hostile header must not size a reservation.
  std::streampos body_start = in.tellg();
  in.seekg(0, std::ios::end);
  uint64_t body_bytes = static_cast<uint64_t>(in.tellg() - body_start);
  in.seekg(body_start);
  if (num_pages > body_bytes / (1 + page_size_)) {
    return Status::Corruption(
        "image header claims " + std::to_string(num_pages) +
        " pages; the file holds at most " +
        std::to_string(body_bytes / (1 + page_size_)));
  }
  std::vector<std::unique_ptr<char[]>> pages;
  std::vector<bool> allocated;
  std::vector<PageId> free_list;
  pages.reserve(num_pages);
  for (uint32_t i = 0; i < num_pages; ++i) {
    char flag;
    in.read(&flag, 1);
    auto buf = std::make_unique<char[]>(page_size_);
    in.read(buf.get(), static_cast<std::streamsize>(page_size_));
    if (!in) return Status::Corruption("truncated page data");
    pages.push_back(std::move(buf));
    allocated.push_back(flag != 0);
    if (flag == 0) free_list.push_back(i);
  }
  // Optional v2 tail sections: page seals, then the page-log trailer.
  // A legacy image ends at the pages; its seals are computed from content.
  std::vector<uint32_t> seals;
  char section[8];
  in.read(section, sizeof(section));
  if (in.gcount() == 0) {
    seals.reserve(num_pages);
    for (uint32_t i = 0; i < num_pages; ++i) {
      seals.push_back(Crc32c(pages[i].get(), page_size_));
    }
  } else if (in.gcount() == sizeof(section) &&
             std::memcmp(section, kSealMagic, sizeof(section)) == 0) {
    char count_buf[4];
    in.read(count_buf, sizeof(count_buf));
    if (!in) return Status::Corruption("truncated seal section");
    uint32_t count = DecodeFixed32(count_buf);
    if (count != num_pages) {
      return Status::Corruption("seal count " + std::to_string(count) +
                                " does not match page count " +
                                std::to_string(num_pages));
    }
    for (uint32_t i = 0; i < count; ++i) {
      char buf[4];
      in.read(buf, sizeof(buf));
      if (!in) return Status::Corruption("truncated seal section");
      seals.push_back(DecodeFixed32(buf));
    }
    in.read(section, sizeof(section));
    if (in.gcount() != 0) {
      if (in.gcount() != sizeof(section) ||
          std::memcmp(section, kWalMagic, sizeof(section)) != 0) {
        return Status::Corruption("unknown image section after seals");
      }
      char wal_len_buf[8];
      in.read(wal_len_buf, sizeof(wal_len_buf));
      if (!in) return Status::Corruption("truncated page-log trailer");
      // A non-empty trailer is a page log an older durable build left
      // unreplayed: opening the platter without it would silently drop
      // committed transactions, so the image is refused.
      uint64_t wal_len = DecodeFixed64(wal_len_buf);
      if (wal_len != 0) {
        return Status::Corruption("image carries a " +
                                  std::to_string(wal_len) +
                                  "-byte unreplayed page log");
      }
    }
  } else {
    return Status::Corruption("unknown image section after pages");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  pages_ = std::move(pages);
  allocated_ = std::move(allocated);
  free_list_ = std::move(free_list);
  seals_ = std::move(seals);
  lock.unlock();
  // A restored image is a fresh device: any simulated crash-halt is over.
  halted_.store(false, std::memory_order_release);
  ResetStats();
  return Status::OK();
}

Result<size_t> DiskManager::PeekPageSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kDiskMagic, sizeof(magic)) != 0) {
    return Status::Corruption("not a ccam disk image: " + path);
  }
  char header[8];
  in.read(header, sizeof(header));
  if (!in) return Status::Corruption("truncated image header");
  return static_cast<size_t>(DecodeFixed32(header));
}

std::vector<PageId> DiskManager::AllocatedPageIds() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<PageId> out;
  for (PageId id = 0; id < pages_.size(); ++id) {
    if (allocated_[id]) out.push_back(id);
  }
  return out;
}

}  // namespace ccam
