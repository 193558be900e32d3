#ifndef CCAM_STORAGE_WAL_H_
#define CCAM_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/common/status.h"

namespace ccam {

class DiskManager;

/// Statistics of the simulated log device. Appends and flushes are the
/// durability subsystem's analogue of page I/O: the crash harness seeds
/// kill points on them exactly as it does on page writes.
struct WalStats {
  uint64_t appends = 0;
  uint64_t flushes = 0;
  uint64_t truncates = 0;
  /// Bytes currently durable (survive a crash).
  uint64_t durable_bytes = 0;
  /// Bytes appended but not yet flushed (lost on a crash).
  uint64_t pending_bytes = 0;
};

/// Redo-only write-ahead log, modeled as an append-only simulated log
/// device with an explicit flush barrier.
///
/// Record frame (little-endian, fixed-width header):
///   [0]      type     u8   (RecordType)
///   [1..9)   txn      u64  (transaction id)
///   [9..13)  length   u32  (payload bytes)
///   [13..13+length)   payload
///   [.. +4)  crc32c   u32  over bytes [0, 13+length)
///
/// Durability model. Append() stages a frame in the volatile tail (the OS
/// write buffer); Flush() is the barrier that makes every staged byte
/// durable. A simulated crash loses the volatile tail and may leave a torn
/// prefix of the bytes in flight, so the durable log can end mid-frame —
/// RecoverScan() truncates that torn tail. A CRC mismatch on a *complete*
/// frame is different: that is damage inside the durable region (bit rot,
/// a mangled image) and surfaces as a typed Corruption, never as silent
/// acceptance and never as a wild decode.
///
/// Fault injection. When an injector is attached, Append() evaluates the
/// "wal.append" failpoint and Flush() evaluates "wal.flush". A kCrash
/// action makes a torn prefix of the in-flight bytes durable (`bytes` of
/// the volatile tail), then halts the attached device — composing with the
/// `disk.*` failpoints so one fault schedule can kill a workload inside
/// page writes and inside the log alike.
class Wal {
 public:
  enum class RecordType : uint8_t {
    kBegin = 1,      // transaction start; empty payload
    kPageImage = 2,  // payload: page id u32 + full page after-image
    kPageFree = 3,   // payload: page id u32
    kCommit = 4,     // transaction commit; empty payload
  };

  /// Fixed frame header bytes (type + txn + length) and trailer (crc).
  static constexpr size_t kFrameHeaderSize = 1 + 8 + 4;
  static constexpr size_t kFrameTrailerSize = 4;

  Wal() = default;

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Attaches the fault injector consulted by Append()/Flush() (nullptr
  /// detaches).
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }

  /// Attaches the disk whose halt state this log shares: a crash injected
  /// into the log halts the device, and a halted device fails every log
  /// operation — the log and the platter die together.
  void SetDevice(DiskManager* device) { device_ = device; }

  /// Attaches (or detaches) a metrics registry: successful operations bump
  /// "wal.append" / "wal.flush" / "wal.truncate" and each successful flush
  /// records its latency into the "wal.flush_us" histogram. Detached (the
  /// default) every site is one null-pointer test.
  void SetMetrics(MetricsRegistry* metrics);

  /// Appends one framed record to the volatile tail.
  Status Append(RecordType type, uint64_t txn, std::string_view payload);

  /// Flush barrier: every appended byte becomes durable.
  Status Flush();

  /// Checkpoint: discards the durable log and the volatile tail. Called
  /// once the pages a committed transaction touched are safely on the
  /// platter, and after recovery has replayed the log.
  Status Truncate();

  /// One decoded log record.
  struct Record {
    RecordType type;
    uint64_t txn = 0;
    std::string payload;
  };

  /// Scans the durable log: returns every complete, checksummed frame up
  /// to the first torn tail (an incomplete final frame, which is silently
  /// truncated — the crash contract) and fails with Corruption when a
  /// complete frame's CRC does not match (damage inside the durable
  /// region). Never reads out of bounds on any input.
  Result<std::vector<Record>> RecoverScan() const;

  /// The durable byte image (what a crash capture persists).
  const std::string& durable() const { return durable_; }

  /// Replaces the durable log with bytes restored from an image; the
  /// volatile tail is discarded.
  void RestoreDurable(std::string bytes);

  WalStats stats() const;
  void ResetStats();

 private:
  Status DeviceHalted(const char* op) const;

  std::string durable_;
  std::string pending_;
  uint64_t appends_ = 0;
  uint64_t flushes_ = 0;
  uint64_t truncates_ = 0;
  FaultInjector* faults_ = nullptr;
  DiskManager* device_ = nullptr;

  /// Cached metric handles (null = metrics detached; see SetMetrics).
  MetricCounter* m_append_ = nullptr;
  MetricCounter* m_flush_ = nullptr;
  MetricCounter* m_truncate_ = nullptr;
  MetricHistogram* m_flush_us_ = nullptr;
};

const char* WalRecordTypeName(Wal::RecordType type);

}  // namespace ccam

#endif  // CCAM_STORAGE_WAL_H_
