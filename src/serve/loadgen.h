#ifndef CCAM_SERVE_LOADGEN_H_
#define CCAM_SERVE_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "src/core/network_file.h"
#include "src/serve/query_service.h"
#include "src/serve/request.h"

namespace ccam {
namespace serve {

/// Workload shape for the open-loop load generator (the ccam_cli `serve`
/// subcommand and the serving tests drive the service through this one
/// implementation; perfbench has its own).
struct LoadgenOptions {
  /// Paying tenants; requests pick one uniformly.
  uint32_t tenants = 4;
  /// Aggregate offered arrival rate, requests/second (open loop: arrivals
  /// do not slow down when the service backs up — that is what the
  /// admission controller is for).
  double offered_qps = 2000.0;
  /// Run length in seconds.
  double duration_sec = 2.0;
  /// Hot-spot skew: requests' origin pages follow a zipf(theta) over the
  /// file's data pages (0 = uniform). The IVHS story: everyone asks about
  /// the same downtown interchanges at rush hour.
  double zipf_theta = 0.9;
  /// Operation mix, by weight (need not sum to 1).
  double w_route_eval = 0.5;
  double w_astar = 0.2;
  double w_aggregate = 0.2;
  /// Used only when the file has a valid hierarchy overlay.
  double w_hierarchy = 0.1;
  /// Distinct precomputed requests to cycle through.
  size_t pool_size = 4096;
  uint64_t seed = 42;
};

/// What one load run measured. Latency percentiles are client-observed
/// end-to-end (scheduled arrival to completion, exact — not histogram
/// buckets) over completed requests only; rejected requests count into
/// reject_rate.
struct LoadReport {
  uint64_t submitted = 0;
  uint64_t completed = 0;  // executed with an OK status
  uint64_t rejected = 0;
  /// Executed requests that failed with a status other than Overloaded
  /// (I/O, corruption, not-found, ...); excluded from completed and from
  /// the latency percentiles.
  uint64_t failed = 0;
  double elapsed_sec = 0.0;
  double qps = 0.0;  // completed / elapsed
  double reject_rate = 0.0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  /// Accounting over the run: data-page reads charged to the workers'
  /// sessions, the file's global disk-read delta, and whether they agree
  /// (the paper's conservation invariant, extended to the service).
  uint64_t session_reads = 0;
  uint64_t disk_reads = 0;
  bool conserved = false;
  /// Data buffer pool hit rate over the run.
  double hit_rate = 0.0;
};

/// Builds `options.pool_size` requests whose origins follow the zipf
/// hot-spot skew over the file's data pages. Routes are random walks over
/// the stored adjacency (so route-eval and aggregate requests are valid by
/// construction); OD searches use each walk's endpoints. Reads the file
/// single-threaded — call before starting the service and snapshot I/O
/// counters afterwards.
std::vector<ServeRequest> BuildRequestPool(NetworkFile* file,
                                           const LoadgenOptions& options);

/// Runs one open-loop load: submits `pool` requests round-robin with
/// exponential inter-arrival times at `options.offered_qps` for
/// `options.duration_sec`, waits for every ticket, and reports. The
/// service must be freshly constructed over `file` (its sessions' counters
/// start at zero) with no other traffic during the run, or the
/// conservation check is meaningless.
LoadReport RunLoad(QueryService* service, NetworkFile* file,
                   const std::vector<ServeRequest>& pool,
                   const LoadgenOptions& options);

}  // namespace serve
}  // namespace ccam

#endif  // CCAM_SERVE_LOADGEN_H_
