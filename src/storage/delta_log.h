#ifndef CCAM_STORAGE_DELTA_LOG_H_
#define CCAM_STORAGE_DELTA_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/storage/record.h"

namespace ccam {

/// One logical mutation against a published snapshot version. The delta
/// log is the repository's only durable write path: it records mutations
/// at the graph level — the form that can be replayed against *any* base
/// image, which is exactly what the versioned snapshot swap needs: after a
/// reorganization folds the log into a freshly reclustered image, the same
/// tail of records replays against the new base as well as the old one.
struct DeltaRecord {
  enum class Kind : uint8_t {
    kInsertNode = 1,  // payload: encoded NodeRecord (full adjacency)
    kDeleteNode = 2,  // payload: node id u32
    kInsertEdge = 3,  // payload: u u32, v u32, cost f32
    kDeleteEdge = 4,  // payload: u u32, v u32
  };

  Kind kind = Kind::kInsertNode;
  /// Log sequence number, strictly increasing across the store's lifetime.
  /// The MANIFEST's folded_lsn says which prefix a published image already
  /// contains; recovery replays only records with lsn > folded_lsn.
  uint64_t lsn = 0;
  NodeRecord node;  // kInsertNode
  NodeId u = kInvalidNodeId;
  NodeId v = kInvalidNodeId;
  float cost = 0.0f;
};

const char* DeltaKindName(DeltaRecord::Kind kind);

/// Append-only log of DeltaRecords backed by a real file. Frame format:
///
///   [0]      kind     u8
///   [1..9)   lsn      u64
///   [9..13)  length   u32  (payload bytes)
///   [13..13+length)   payload
///   [.. +4)  crc32c   u32  over bytes [0, 13+length)
///
/// Append() stages the frame in a volatile tail; Flush() writes it to the
/// file and is the acknowledgment barrier of the snapshot mutation path. A
/// crash injected at "snapshot.log.append" or "snapshot.log.flush" leaves
/// a torn prefix of the in-flight bytes in the file and halts the snapshot
/// store (via the halt flag shared with SnapshotManager). Scan() truncates
/// a torn tail silently — the crash contract — and fails loudly with
/// Corruption when a *complete* frame's CRC mismatches (damage inside the
/// durable region).
class DeltaLog {
 public:
  static constexpr size_t kFrameHeaderSize = 1 + 8 + 4;
  static constexpr size_t kFrameTrailerSize = 4;

  DeltaLog() = default;
  ~DeltaLog();

  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  /// Opens `path` for appending (creating it when absent). Any existing
  /// content is preserved; callers recover it with Scan() first.
  Status Open(const std::string& path);

  /// Closes the append stream (Open() reopens it; used around compaction,
  /// which replaces the file under the log).
  void Close();

  /// The snapshot store's halt flag: a crash injected into the log halts
  /// the whole store, and a halted store fails every log operation.
  void SetHaltFlag(std::atomic<bool>* halted) { halted_ = halted; }

  /// Injector consulted at "snapshot.log.append" / "snapshot.log.flush".
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }

  /// Stages one framed record in the volatile tail.
  Status Append(const DeltaRecord& record);

  /// Durability barrier: writes the staged tail to the file and flushes.
  Status Flush();

  uint64_t appends() const { return appends_; }
  uint64_t flushes() const { return flushes_; }

  /// Encodes one record as a complete frame (used by Append and by the
  /// compaction writer).
  static std::string EncodeFrame(const DeltaRecord& record);

  /// Decodes every complete, checksummed frame of `path`, truncating a
  /// torn final frame. A missing file decodes as an empty log. When
  /// `valid_bytes` is non-null it receives the byte length of the decoded
  /// prefix — recovery must physically truncate the file to it before
  /// appending again, or post-recovery frames land after the torn garbage
  /// and are unreadable on the next scan.
  static Result<std::vector<DeltaRecord>> ScanFile(
      const std::string& path, size_t* valid_bytes = nullptr);

  /// Writes `records` as a fresh log at `path` (the compaction writer;
  /// callers handle tmp+rename). `truncate_to` < npos writes only that
  /// byte prefix — the torn-write shape of an injected crash.
  static Status WriteAll(const std::string& path,
                         const std::vector<DeltaRecord>& records,
                         size_t truncate_to = SIZE_MAX);

 private:
  Status Halted(const char* op) const;
  /// Writes `bytes` to the file and flushes (used for both complete and
  /// torn-prefix writes).
  Status WriteRaw(const std::string& bytes);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::string pending_;
  uint64_t appends_ = 0;
  uint64_t flushes_ = 0;
  std::atomic<bool>* halted_ = nullptr;
  FaultInjector* faults_ = nullptr;
};

}  // namespace ccam

#endif  // CCAM_STORAGE_DELTA_LOG_H_
