#ifndef CCAM_STORAGE_IO_STATS_H_
#define CCAM_STORAGE_IO_STATS_H_

#include <cstdint>

namespace ccam {

/// Page I/O counters. The paper's experiments report the *number of data
/// page accesses*; these counters are the source of that metric.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocs = 0;
  uint64_t frees = 0;
  /// Fetches whose page a read-ahead had loaded and no fetch had touched
  /// since: the misses demand order would have had there. Each one's disk
  /// read is already in `reads`, so Accesses() leaves them out.
  uint64_t ahead_misses = 0;

  uint64_t Accesses() const { return reads + writes; }

  /// Accesses in demand order, for a reader whose own read-ahead hints
  /// loaded `own_loads` of these `reads`: every first fetch of a page a
  /// read-ahead loaded (its own or another session's) is the miss demand
  /// order would have had there, and its own loads are not misses of their
  /// own. Equals Accesses() when every own load is fetched by this reader
  /// and no other session's load is.
  uint64_t DemandAccesses(uint64_t own_loads) const {
    const uint64_t misses = reads + ahead_misses;
    return (misses > own_loads ? misses - own_loads : 0) + writes;
  }

  /// Delta between two snapshots, per-field *saturating* at zero. A
  /// "before" snapshot can legitimately exceed "after" when the counters
  /// were reset in between — a session outliving a pool Reset(), a bench
  /// sampling across LoadFromFile() (which zeroes the disk counters) — and
  /// the old wrapping subtraction silently turned that into a huge bogus
  /// delta that poisoned every derived average. A saturated field reads as
  /// "no accesses since the reset", which is the honest lower bound.
  friend IoStats operator-(const IoStats& a, const IoStats& b) {
    auto sub = [](uint64_t x, uint64_t y) { return x >= y ? x - y : 0; };
    return {sub(a.reads, b.reads), sub(a.writes, b.writes),
            sub(a.allocs, b.allocs), sub(a.frees, b.frees),
            sub(a.ahead_misses, b.ahead_misses)};
  }

  friend bool operator==(const IoStats& a, const IoStats& b) {
    return a.reads == b.reads && a.writes == b.writes &&
           a.allocs == b.allocs && a.frees == b.frees &&
           a.ahead_misses == b.ahead_misses;
  }
};

/// Field-wise sum of two counter snapshots (per-session totals).
inline IoStats SumStats(IoStats a, const IoStats& b) {
  a.reads += b.reads;
  a.writes += b.writes;
  a.allocs += b.allocs;
  a.frees += b.frees;
  a.ahead_misses += b.ahead_misses;
  return a;
}

}  // namespace ccam

#endif  // CCAM_STORAGE_IO_STATS_H_
