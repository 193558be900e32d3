#ifndef CCAM_CORE_CRASH_HARNESS_H_
#define CCAM_CORE_CRASH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/ccam.h"

namespace ccam {

/// Deterministic crash-consistency driver shared by
/// tests/crash_consistency_test and tools/crashsim.
///
/// A run builds a CCAM file from a seeded geometric network, then applies a
/// seeded stream of mixed Insert-node / Delete-node / Insert-edge /
/// Delete-edge operations. With a `<failpoint>=crash:<bytes>@<k>` fault
/// armed, the k-th evaluation of that failpoint tears after <bytes> bytes
/// and halts the simulated device — modelling a power cut mid-I/O. The
/// harness then captures the platter state (dirty buffer-pool frames are
/// deliberately lost: they never reached disk), reopens the image with a
/// fresh instance and classifies the result. The workload is a pure
/// function of the seed, so the same (seed, crash point) always produces
/// the same crash and the same recovered image, byte for byte.
///
/// The file writes pages in place and keeps no log, so its criterion is
/// detect-only: reopen either succeeds with all invariants holding, or
/// fails with a clean typed Status — a torn state is never silently
/// accepted. Losing acknowledged operations is the snapshot store's
/// problem to rule out (see RunSnapshotCrashSim below), not the file's.
struct CrashSimOptions {
  uint64_t seed = 1995;
  size_t page_size = 1024;
  size_t buffer_pool_pages = 8;
  ReorgPolicy policy = ReorgPolicy::kSecondOrder;
  /// Nodes of the initial network the static create builds.
  int initial_nodes = 48;
  /// Mixed maintenance operations applied after create.
  int ops = 120;
  /// Bytes of the crashing write that reach the platter (the torn prefix).
  int torn_bytes = 96;
  /// Failpoint the kill is scheduled on ("disk.write": inside data page
  /// writes).
  std::string crash_failpoint = "disk.write";
  /// Where the crash capture image is written. Required.
  std::string image_path;
};

enum class CrashOutcome {
  /// The workload completed before the scheduled kill point.
  kNoCrash,
  /// Detect-only: reopen succeeded and file + graph invariants all hold.
  kRecovered,
  /// Detect-only: reopen (or an invariant check) failed with a clean typed
  /// Status — the torn state was *detected*, never silently accepted.
  kCorruptionDetected,
  /// Snapshot store: recovery succeeded, invariants hold, and the
  /// recovered state is exactly the acked prefix (or acked prefix +
  /// in-flight op).
  kDurable,
  /// Snapshot store failure: an acknowledged mutation is missing, or one
  /// past the in-flight one is present.
  kLostAck,
  /// Snapshot store failure: recovery errored, an invariant failed, or a
  /// second recovery of the recovered directory disagreed with the first.
  kRecoveryFailed,
};

const char* CrashOutcomeName(CrashOutcome outcome);

struct CrashRunResult {
  CrashOutcome outcome = CrashOutcome::kNoCrash;
  /// Status message of the detection/failure, empty when recovered.
  std::string detail;
  /// Page writes that fully completed before the device halted.
  uint64_t writes_before_crash = 0;
  /// Nodes visible after a successful reopen.
  size_t recovered_nodes = 0;
  /// CRC32C of the recovered version image (snapshot store only). Equal
  /// crcs across runs of the same (seed, crash point) certify
  /// byte-identical recovery.
  uint32_t recovered_image_crc = 0;
};

struct CrashPointReport {
  uint64_t crash_point = 0;  // 1-based index into the failpoint hits
  CrashRunResult result;
};

struct CrashSimReport {
  /// Evaluations of `crash_failpoint` in the fault-free workload (the
  /// kill-point space).
  uint64_t total_writes = 0;
  std::vector<CrashPointReport> points;
  size_t recovered = 0;
  size_t corruption_detected = 0;
  size_t no_crash = 0;
  size_t durable = 0;
  size_t lost_ack = 0;
  size_t recovery_failed = 0;

  /// Kill points whose outcome violates the active criterion. The store
  /// sweep passes only kDurable; the file sweep accepts kRecovered and
  /// kCorruptionDetected. kNoCrash always fails: the scheduled kill never
  /// fired, so the point tested nothing.
  size_t failures() const { return no_crash + lost_ack + recovery_failed; }
};

/// Runs the seeded workload fault-free and returns how many times
/// `options.crash_failpoint` is evaluated — the size of the kill-point
/// space for that failpoint.
Result<uint64_t> CountWorkloadWrites(const CrashSimOptions& options);

/// Runs the workload with a crash scheduled at the `crash_point`-th
/// evaluation of the configured failpoint (1-based), captures the platter,
/// reopens and classifies it as kRecovered or kCorruptionDetected.
/// Returns an error only on harness-level failures (e.g. the capture file
/// cannot be written); torn data is reported via the outcome, not as an
/// error.
Result<CrashRunResult> RunCrashOnce(const CrashSimOptions& options,
                                    uint64_t crash_point);

/// Sweeps `num_points` crash points spread evenly over the kill-point
/// space (all of them when `num_points` >= total).
Result<CrashSimReport> RunCrashSim(const CrashSimOptions& options,
                                   uint64_t num_points);

/// ---------------------------------------------------------------------------
/// Snapshot-store crash sweep (the versioned-swap reorganization protocol).
///
/// Same contract as the plain-file sweep, but the system under test is a
/// SnapshotManager: a seeded mutation stream with a synchronous
/// ReorganizeNow() every `reorg_every` acknowledged mutations, killed at the
/// k-th evaluation of one of the "snapshot.*" failpoints
/// (snapshot.log.append, snapshot.log.flush, snapshot.build,
/// snapshot.publish, snapshot.retire). The kill leaves the torn on-disk
/// shape of that instant — a torn log frame, a stray build image, a torn
/// MANIFEST.tmp, a half-compacted delta log — and the harness reopens the
/// directory with SnapshotManager::Open.
///
/// Always strict: the delta log is the repository's only durability
/// mechanism, so recovery must succeed and land on exactly the
/// acknowledged stream (plus, at most, the one mutation in flight when the
/// store halted). Because a
/// reorganization does not change the logical network, that criterion is
/// precisely "exactly the old version or exactly the new version, never a
/// blend": a recovered state mixing pre- and post-swap pages would fail
/// CheckConsistency() or diverge from the mirror. Recovery is also checked
/// to be idempotent — a second Open of the recovered directory yields the
/// same network and next lsn.
struct SnapshotCrashOptions {
  uint64_t seed = 1995;
  size_t page_size = 1024;
  size_t buffer_pool_pages = 8;
  /// Nodes of the initial network the store is created from.
  int initial_nodes = 48;
  /// Mutations applied after create (the kill-point space scales with
  /// these and with the reorganizations they trigger).
  int ops = 120;
  /// Synchronous ReorganizeNow() after every this-many acked mutations
  /// (0 disables reorganization — pure log-path sweep).
  int reorg_every = 10;
  /// Bytes of the crashing write that reach disk (the torn prefix).
  int torn_bytes = 96;
  /// Which "snapshot.*" failpoint the kill is scheduled on.
  std::string crash_failpoint = "snapshot.publish";
  /// Store directory; wiped and recreated by every run. Required.
  std::string dir;
};

/// Fault-free run: returns how many times `options.crash_failpoint` is
/// evaluated — the kill-point space of the snapshot protocol for that site.
Result<uint64_t> CountSnapshotKillPoints(const SnapshotCrashOptions& options);

/// Runs the snapshot workload with a crash at the `crash_point`-th
/// evaluation of the configured failpoint, reopens the store directory and
/// classifies against the strict criterion (kDurable / kLostAck /
/// kRecoveryFailed / kNoCrash).
Result<CrashRunResult> RunSnapshotCrashOnce(const SnapshotCrashOptions& options,
                                            uint64_t crash_point);

/// Sweeps `num_points` kill points spread evenly over the space (all of
/// them when `num_points` >= total). Reuses CrashSimReport;
/// `total_writes` holds the kill-point count.
Result<CrashSimReport> RunSnapshotCrashSim(const SnapshotCrashOptions& options,
                                           uint64_t num_points);

}  // namespace ccam

#endif  // CCAM_CORE_CRASH_HARNESS_H_
