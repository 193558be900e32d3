#include "src/storage/wal.h"

#include <algorithm>
#include <chrono>

#include "src/common/coding.h"
#include "src/storage/disk_manager.h"

namespace ccam {

namespace {

/// A complete frame header always carries an authentic length under the
/// crash model (crashes truncate, they never rewrite bytes), so any length
/// beyond this bound is damage inside the durable region, not a torn tail.
constexpr size_t kMaxPayload = size_t{1} << 24;

void EncodeFrame(std::string* dst, Wal::RecordType type, uint64_t txn,
                 std::string_view payload) {
  size_t start = dst->size();
  dst->push_back(static_cast<char>(type));
  PutFixed64(dst, txn);
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  dst->append(payload.data(), payload.size());
  uint32_t crc = Crc32c(dst->data() + start, dst->size() - start);
  PutFixed32(dst, crc);
}

}  // namespace

const char* WalRecordTypeName(Wal::RecordType type) {
  switch (type) {
    case Wal::RecordType::kBegin:
      return "begin";
    case Wal::RecordType::kPageImage:
      return "page-image";
    case Wal::RecordType::kPageFree:
      return "page-free";
    case Wal::RecordType::kCommit:
      return "commit";
  }
  return "unknown";
}

Status Wal::DeviceHalted(const char* op) const {
  if (device_ != nullptr && device_->halted()) {
    return Status::IOError(std::string("device halted by simulated crash: ") +
                           "wal " + op);
  }
  return Status::OK();
}

Status Wal::Append(RecordType type, uint64_t txn, std::string_view payload) {
  CCAM_RETURN_NOT_OK(DeviceHalted("append"));
  std::string frame;
  EncodeFrame(&frame, type, txn, payload);
  if (faults_ != nullptr) {
    if (auto fault = faults_->Hit("wal.append")) {
      switch (fault->kind) {
        case FaultAction::Kind::kCrash: {
          // The crash catches this append mid-flight: a torn prefix of the
          // buffered bytes plus this frame reaches the platter, the rest is
          // lost with the volatile tail, and the device halts.
          std::string in_flight = pending_ + frame;
          size_t n = std::min(fault->bytes, in_flight.size());
          durable_.append(in_flight.data(), n);
          pending_.clear();
          if (device_ != nullptr) device_->Halt();
          return Status::IOError(
              "simulated crash during wal append of " +
              std::string(WalRecordTypeName(type)) + " record (torn after " +
              std::to_string(n) + " bytes)");
        }
        case FaultAction::Kind::kShort: {
          // A prefix of the frame reaches the buffer. The caller sees the
          // failure and aborts; the abort discards the mangled tail.
          size_t n = std::min(fault->bytes, frame.size());
          pending_.append(frame.data(), n);
          return Status::ShortWrite(
              "short wal append of " + std::string(WalRecordTypeName(type)) +
              " record: " + std::to_string(n) + "/" +
              std::to_string(frame.size()) + " bytes");
        }
        case FaultAction::Kind::kNoSpace:
          return Status::NoSpace("simulated log device full: wal append");
        case FaultAction::Kind::kError:
          return Status::FromCode(fault->code, "injected wal append error");
      }
    }
  }
  pending_ += frame;
  ++appends_;
  if (m_append_ != nullptr) m_append_->Inc();
  return Status::OK();
}

Status Wal::Flush() {
  CCAM_RETURN_NOT_OK(DeviceHalted("flush"));
  // Clock reads happen only with a histogram attached, and the latency is
  // recorded only when the flush succeeds — injected failures never feed
  // the series.
  MetricHistogram* flush_hist = m_flush_us_;
  std::chrono::steady_clock::time_point t0;
  if (flush_hist != nullptr) t0 = std::chrono::steady_clock::now();
  if (faults_ != nullptr) {
    if (auto fault = faults_->Hit("wal.flush")) {
      switch (fault->kind) {
        case FaultAction::Kind::kCrash: {
          size_t n = std::min(fault->bytes, pending_.size());
          durable_.append(pending_.data(), n);
          pending_.clear();
          if (device_ != nullptr) device_->Halt();
          return Status::IOError("simulated crash during wal flush (torn after " +
                                 std::to_string(n) + " bytes)");
        }
        case FaultAction::Kind::kShort: {
          size_t n = std::min(fault->bytes, pending_.size());
          durable_.append(pending_.data(), n);
          pending_.erase(0, n);
          return Status::ShortWrite("short wal flush: " + std::to_string(n) +
                                    " bytes durable");
        }
        case FaultAction::Kind::kNoSpace:
          return Status::NoSpace("simulated log device full: wal flush");
        case FaultAction::Kind::kError:
          return Status::FromCode(fault->code, "injected wal flush error");
      }
    }
  }
  durable_ += pending_;
  pending_.clear();
  ++flushes_;
  if (m_flush_ != nullptr) m_flush_->Inc();
  if (flush_hist != nullptr) {
    auto dt = std::chrono::steady_clock::now() - t0;
    flush_hist->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(dt).count()));
  }
  return Status::OK();
}

Status Wal::Truncate() {
  CCAM_RETURN_NOT_OK(DeviceHalted("truncate"));
  durable_.clear();
  pending_.clear();
  ++truncates_;
  if (m_truncate_ != nullptr) m_truncate_->Inc();
  return Status::OK();
}

Result<std::vector<Wal::Record>> Wal::RecoverScan() const {
  std::vector<Record> records;
  const char* data = durable_.data();
  size_t size = durable_.size();
  size_t pos = 0;
  while (pos < size) {
    size_t remaining = size - pos;
    if (remaining < kFrameHeaderSize) break;  // torn tail: truncated header
    uint8_t raw_type = static_cast<uint8_t>(data[pos]);
    uint64_t txn = DecodeFixed64(data + pos + 1);
    uint32_t length = DecodeFixed32(data + pos + 9);
    if (raw_type < static_cast<uint8_t>(RecordType::kBegin) ||
        raw_type > static_cast<uint8_t>(RecordType::kCommit)) {
      return Status::Corruption("wal record at offset " + std::to_string(pos) +
                                " has invalid type " +
                                std::to_string(raw_type));
    }
    if (length > kMaxPayload) {
      return Status::Corruption("wal record at offset " + std::to_string(pos) +
                                " has implausible length " +
                                std::to_string(length));
    }
    size_t frame_size = kFrameHeaderSize + length + kFrameTrailerSize;
    if (remaining < frame_size) break;  // torn tail: truncated payload/crc
    uint32_t expected = DecodeFixed32(data + pos + kFrameHeaderSize + length);
    uint32_t actual = Crc32c(data + pos, kFrameHeaderSize + length);
    if (expected != actual) {
      return Status::Corruption("wal record at offset " + std::to_string(pos) +
                                " failed crc check");
    }
    Record rec;
    rec.type = static_cast<RecordType>(raw_type);
    rec.txn = txn;
    rec.payload.assign(data + pos + kFrameHeaderSize, length);
    records.push_back(std::move(rec));
    pos += frame_size;
  }
  return records;
}

void Wal::RestoreDurable(std::string bytes) {
  durable_ = std::move(bytes);
  pending_.clear();
}

WalStats Wal::stats() const {
  WalStats s;
  s.appends = appends_;
  s.flushes = flushes_;
  s.truncates = truncates_;
  s.durable_bytes = durable_.size();
  s.pending_bytes = pending_.size();
  return s;
}

void Wal::ResetStats() {
  appends_ = 0;
  flushes_ = 0;
  truncates_ = 0;
}

void Wal::SetMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_append_ = m_flush_ = m_truncate_ = nullptr;
    m_flush_us_ = nullptr;
    return;
  }
  m_append_ = metrics->GetCounter("wal.append");
  m_flush_ = metrics->GetCounter("wal.flush");
  m_truncate_ = metrics->GetCounter("wal.truncate");
  m_flush_us_ = metrics->GetHistogram("wal.flush_us");
}

}  // namespace ccam
