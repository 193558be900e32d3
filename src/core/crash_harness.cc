#include "src/core/crash_harness.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <filesystem>

#include "src/common/coding.h"
#include "src/common/fault_injector.h"
#include "src/common/random.h"
#include "src/graph/generator.h"
#include "src/storage/snapshot_manager.h"

namespace ccam {
namespace {

AccessMethodOptions MakeOptions(const CrashSimOptions& opt) {
  AccessMethodOptions o;
  o.page_size = opt.page_size;
  o.buffer_pool_pages = opt.buffer_pool_pages;
  o.seed = opt.seed;
  // Single-threaded clustering: the page *assignment* is bit-identical for
  // every thread count, but the crash model indexes into the page *write
  // sequence*, which must not depend on scheduling either.
  o.num_threads = 1;
  return o;
}

bool IsLogicalFailure(const Status& st) {
  return st.IsNotFound() || st.IsAlreadyExists() || st.IsNoSpace() ||
         st.IsInvalidArgument();
}

/// Applies the seeded workload to `file`: static create from a geometric
/// network, then `opt.ops` mixed maintenance operations. `net` mirrors the
/// successful operations so later picks stay (mostly) valid; the op stream
/// is a pure function of `opt.seed`. Returns OK when the workload either
/// ran to completion or stopped at a simulated device halt; anything else
/// is a harness-level error.
Status RunWorkload(Ccam* file, const CrashSimOptions& opt) {
  Network net = GenerateRandomGeometricNetwork(opt.initial_nodes,
                                               /*radius=*/220.0,
                                               /*extent=*/1000.0, opt.seed);
  Status st = file->Create(net);
  if (!st.ok()) return file->disk()->halted() ? Status::OK() : st;
  Random rng(opt.seed ^ 0x9e3779b97f4a7c15ULL);
  NodeId next_id = 0;
  for (NodeId id : net.NodeIds()) next_id = std::max(next_id, id + 1);
  for (int i = 0; i < opt.ops; ++i) {
    std::vector<NodeId> live = net.NodeIds();
    if (live.empty()) break;
    auto pick = [&] { return live[rng.Uniform(static_cast<uint32_t>(live.size()))]; };
    uint32_t kind = rng.Uniform(100);
    Status op;
    // Mirrors the operation into `net` once the file acked it.
    std::function<Status(Network*)> mirror;
    if (kind < 25) {
      // Insert a fresh node wired to up to two existing ones.
      NodeRecord rec;
      rec.id = next_id++;
      rec.x = rng.NextDouble() * 1000.0;
      rec.y = rng.NextDouble() * 1000.0;
      rec.payload = "n" + std::to_string(rec.id);
      NodeId a = pick();
      NodeId b = pick();
      float ca = 1.0f + static_cast<float>(rng.Uniform(9));
      float cb = 1.0f + static_cast<float>(rng.Uniform(9));
      rec.succ.push_back({a, ca});
      rec.pred.push_back({a, ca});
      if (b != a) {
        rec.succ.push_back({b, cb});
        rec.pred.push_back({b, cb});
      }
      op = file->InsertNode(rec, opt.policy);
      mirror = [rec](Network* n) {
        CCAM_RETURN_NOT_OK(n->AddNode(rec.id, rec.x, rec.y, rec.payload));
        for (const AdjEntry& e : rec.succ) {
          CCAM_RETURN_NOT_OK(n->AddBidirectionalEdge(rec.id, e.node, e.cost));
        }
        return Status::OK();
      };
    } else if (kind < 40) {
      NodeId victim = pick();
      op = file->DeleteNode(victim, opt.policy);
      mirror = [victim](Network* n) { return n->RemoveNode(victim); };
    } else if (kind < 75) {
      NodeId u = pick();
      NodeId v = pick();
      if (u == v || net.HasEdge(u, v)) continue;
      float cost = 1.0f + static_cast<float>(rng.Uniform(9));
      op = file->InsertEdge(u, v, cost, opt.policy);
      mirror = [u, v, cost](Network* n) { return n->AddEdge(u, v, cost); };
    } else {
      NodeId u = pick();
      const auto& succ = net.node(u).succ;
      if (succ.empty()) continue;
      NodeId v = succ[rng.Uniform(static_cast<uint32_t>(succ.size()))].node;
      op = file->DeleteEdge(u, v, opt.policy);
      mirror = [u, v](Network* n) { return n->RemoveEdge(u, v); };
    }
    if (op.ok()) {
      CCAM_RETURN_NOT_OK(mirror(&net));
    } else {
      if (file->disk()->halted()) return Status::OK();
      if (!IsLogicalFailure(op)) return op;
    }
  }
  return Status::OK();
}

std::vector<AdjEntry> SortedAdj(std::vector<AdjEntry> v) {
  std::sort(v.begin(), v.end(), [](const AdjEntry& a, const AdjEntry& b) {
    return a.node != b.node ? a.node < b.node : a.cost < b.cost;
  });
  return v;
}

Result<uint32_t> FileCrc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string bytes = ss.str();
  return Crc32c(bytes.data(), bytes.size());
}

/// The kill-point space of `point`: armed with a trigger that never
/// fires, Hit() only counts evaluations, so the hit count of a fault-free
/// `run` is the number of places a kill can land.
Result<uint64_t> CountKillPoints(
    uint64_t seed, const std::string& point,
    const std::function<Status(FaultInjector*)>& run) {
  FaultInjector faults(seed);
  faults.Arm(point, FaultAction{}, FaultTrigger::Once(0));
  CCAM_RETURN_NOT_OK(run(&faults));
  return faults.HitCount(point);
}

/// Runs `run_once` at `num_points` kill points spread evenly over the
/// space `count` returns (first and last included; all of them when
/// `num_points` >= the space) and tallies the outcomes.
Result<CrashSimReport> SweepKillPoints(
    const std::function<Result<uint64_t>()>& count,
    const std::function<Result<CrashRunResult>(uint64_t)>& run_once,
    uint64_t num_points) {
  CrashSimReport report;
  CCAM_ASSIGN_OR_RETURN(report.total_writes, count());
  if (report.total_writes == 0 || num_points == 0) return report;
  uint64_t n = std::min(num_points, report.total_writes);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t point =
        1 + (i * (report.total_writes - 1)) / (n > 1 ? n - 1 : 1);
    CrashPointReport entry;
    entry.crash_point = point;
    CCAM_ASSIGN_OR_RETURN(entry.result, run_once(point));
    switch (entry.result.outcome) {
      case CrashOutcome::kNoCrash:
        ++report.no_crash;
        break;
      case CrashOutcome::kRecovered:
        ++report.recovered;
        break;
      case CrashOutcome::kCorruptionDetected:
        ++report.corruption_detected;
        break;
      case CrashOutcome::kDurable:
        ++report.durable;
        break;
      case CrashOutcome::kLostAck:
        ++report.lost_ack;
        break;
      case CrashOutcome::kRecoveryFailed:
        ++report.recovery_failed;
        break;
    }
    report.points.push_back(std::move(entry));
  }
  return report;
}

}  // namespace

const char* CrashOutcomeName(CrashOutcome outcome) {
  switch (outcome) {
    case CrashOutcome::kNoCrash:
      return "no-crash";
    case CrashOutcome::kRecovered:
      return "recovered";
    case CrashOutcome::kCorruptionDetected:
      return "corruption-detected";
    case CrashOutcome::kDurable:
      return "durable";
    case CrashOutcome::kLostAck:
      return "lost-ack";
    case CrashOutcome::kRecoveryFailed:
      return "recovery-failed";
  }
  return "unknown";
}

Result<uint64_t> CountWorkloadWrites(const CrashSimOptions& options) {
  return CountKillPoints(options.seed, options.crash_failpoint,
                         [&](FaultInjector* faults) {
                           Ccam file(MakeOptions(options));
                           file.SetFaultInjector(faults);
                           return RunWorkload(&file, options);
                         });
}

Result<CrashRunResult> RunCrashOnce(const CrashSimOptions& options,
                                    uint64_t crash_point) {
  if (options.image_path.empty()) {
    return Status::InvalidArgument("CrashSimOptions::image_path is required");
  }
  FaultInjector faults(options.seed);
  CCAM_RETURN_NOT_OK(faults.Configure(
      options.crash_failpoint + "=crash:" +
      std::to_string(options.torn_bytes) + "@" +
      std::to_string(crash_point)));
  Ccam file(MakeOptions(options));
  file.SetFaultInjector(&faults);
  CCAM_RETURN_NOT_OK(RunWorkload(&file, options));

  CrashRunResult out;
  out.writes_before_crash = file.disk()->stats().writes;
  if (!file.disk()->halted()) {
    out.outcome = CrashOutcome::kNoCrash;
    return out;
  }
  {
    // Capture the platter exactly as the crash left it. Dirty buffer-pool
    // frames are deliberately NOT flushed — they never reached disk. The
    // capture includes the page seals.
    FaultInjector::SuppressScope suppress(&faults);
    CCAM_RETURN_NOT_OK(file.disk()->SaveToFile(options.image_path));
  }
  Ccam reopened(MakeOptions(options));
  Status st = reopened.OpenImage(options.image_path);
  if (st.ok()) st = reopened.CheckFileInvariants();
  if (st.ok()) st = reopened.CheckGraphInvariants();

  if (st.ok()) {
    out.outcome = CrashOutcome::kRecovered;
    out.recovered_nodes = reopened.PageMap().size();
  } else {
    out.outcome = CrashOutcome::kCorruptionDetected;
    out.detail = st.ToString();
  }
  return out;
}

Result<CrashSimReport> RunCrashSim(const CrashSimOptions& options,
                                   uint64_t num_points) {
  return SweepKillPoints(
      [&] { return CountWorkloadWrites(options); },
      [&](uint64_t point) { return RunCrashOnce(options, point); },
      num_points);
}

// --- Snapshot-store sweep ---------------------------------------------------

namespace {

SnapshotOptions MakeSnapshotOptions(const SnapshotCrashOptions& opt) {
  SnapshotOptions o;
  o.am.page_size = opt.page_size;
  o.am.buffer_pool_pages = opt.buffer_pool_pages;
  o.am.seed = opt.seed;
  // Deterministic build sequence, same reasoning as MakeOptions: the kill
  // point indexes into the failpoint-evaluation sequence, which must be a
  // pure function of the seed.
  o.am.num_threads = 1;
  o.dir = opt.dir;
  return o;
}

/// The snapshot oracle's reference states: the mirror of every
/// acknowledged mutation, and that state plus the mutation in flight when
/// the store halted. Reorganizations never change the logical network, so
/// a kill inside build/publish/retire leaves acked == in-flight.
struct SnapshotTrace {
  Network acked;
  Network inflight;
  bool halted = false;
};

/// Exact-state oracle: `got` must be precisely the network `want`, node
/// for node and edge for edge (adjacency order-insensitive — recovery
/// rebuilds predecessor lists in page-scan order).
Status CompareNetworks(const Network& got, const Network& want) {
  std::vector<NodeId> want_ids = want.NodeIds();
  std::vector<NodeId> got_ids = got.NodeIds();
  if (got_ids != want_ids) {
    return Status::Corruption("network holds " +
                              std::to_string(got_ids.size()) +
                              " nodes, expected " +
                              std::to_string(want_ids.size()) +
                              " (or differing ids)");
  }
  for (NodeId id : want_ids) {
    const NetworkNode& g = got.node(id);
    const NetworkNode& w = want.node(id);
    if (g.x != w.x || g.y != w.y || g.payload != w.payload) {
      return Status::Corruption("node " + std::to_string(id) +
                                ": attribute mismatch");
    }
    if (SortedAdj(g.succ) != SortedAdj(w.succ)) {
      return Status::Corruption("node " + std::to_string(id) +
                                ": successor list mismatch");
    }
    if (SortedAdj(g.pred) != SortedAdj(w.pred)) {
      return Status::Corruption("node " + std::to_string(id) +
                                ": predecessor list mismatch");
    }
  }
  return Status::OK();
}

/// Applies the seeded mutation stream to `mgr`, reorganizing every
/// `reorg_every` acked mutations. The op mix mirrors RunWorkload's, but
/// mutations are mirrored through SnapshotManager::ApplyMutation — the
/// same code path recovery replays, so oracle and store cannot diverge on
/// semantics. Returns OK when the workload ran to completion or stopped at
/// an injected halt.
Status RunSnapshotWorkload(SnapshotManager* mgr,
                           const SnapshotCrashOptions& opt,
                           SnapshotTrace* trace) {
  Network net = mgr->network();
  Random rng(opt.seed ^ 0x9e3779b97f4a7c15ULL);
  NodeId next_id = 0;
  for (NodeId id : net.NodeIds()) next_id = std::max(next_id, id + 1);

  // Crash bookkeeping: `rec` (when non-null) is the mutation the store
  // died inside of — acked state is the mirror, in-flight state is the
  // mirror plus that one mutation.
  auto halt_with = [&](const DeltaRecord* rec) {
    if (trace == nullptr) return;
    trace->halted = true;
    trace->inflight = net;
    if (rec != nullptr &&
        SnapshotManager::ValidateMutation(trace->inflight, *rec).ok()) {
      (void)SnapshotManager::ApplyMutation(&trace->inflight, *rec);
    }
    trace->acked = std::move(net);
  };

  int acked = 0;
  for (int i = 0; i < opt.ops; ++i) {
    std::vector<NodeId> live = net.NodeIds();
    if (live.empty()) break;
    auto pick = [&] {
      return live[rng.Uniform(static_cast<uint32_t>(live.size()))];
    };
    uint32_t kind = rng.Uniform(100);
    DeltaRecord rec;
    Status op;
    if (kind < 25) {
      rec.kind = DeltaRecord::Kind::kInsertNode;
      rec.node.id = next_id++;
      rec.node.x = rng.NextDouble() * 1000.0;
      rec.node.y = rng.NextDouble() * 1000.0;
      rec.node.payload = "n" + std::to_string(rec.node.id);
      NodeId a = pick();
      NodeId b = pick();
      float ca = 1.0f + static_cast<float>(rng.Uniform(9));
      float cb = 1.0f + static_cast<float>(rng.Uniform(9));
      rec.node.succ.push_back({a, ca});
      rec.node.pred.push_back({a, ca});
      if (b != a) {
        rec.node.succ.push_back({b, cb});
        rec.node.pred.push_back({b, cb});
      }
      op = mgr->InsertNode(rec.node);
    } else if (kind < 40) {
      rec.kind = DeltaRecord::Kind::kDeleteNode;
      rec.u = pick();
      op = mgr->DeleteNode(rec.u);
    } else if (kind < 75) {
      NodeId u = pick();
      NodeId v = pick();
      if (u == v || net.HasEdge(u, v)) continue;
      rec.kind = DeltaRecord::Kind::kInsertEdge;
      rec.u = u;
      rec.v = v;
      rec.cost = 1.0f + static_cast<float>(rng.Uniform(9));
      op = mgr->InsertEdge(rec.u, rec.v, rec.cost);
    } else {
      NodeId u = pick();
      const auto& succ = net.node(u).succ;
      if (succ.empty()) continue;
      rec.kind = DeltaRecord::Kind::kDeleteEdge;
      rec.u = u;
      rec.v = succ[rng.Uniform(static_cast<uint32_t>(succ.size()))].node;
      op = mgr->DeleteEdge(rec.u, rec.v);
    }
    if (op.ok()) {
      CCAM_RETURN_NOT_OK(SnapshotManager::ApplyMutation(&net, rec));
      ++acked;
      if (opt.reorg_every > 0 && acked % opt.reorg_every == 0) {
        Status reorg = mgr->ReorganizeNow();
        if (!reorg.ok()) {
          if (mgr->halted()) {
            halt_with(nullptr);
            return Status::OK();
          }
          return reorg;
        }
      }
    } else if (mgr->halted()) {
      halt_with(&rec);
      return Status::OK();
    } else if (!IsLogicalFailure(op)) {
      return op;
    }
  }
  if (trace != nullptr) {
    trace->halted = mgr->halted();
    trace->inflight = net;
    trace->acked = std::move(net);
  }
  return Status::OK();
}

/// Wipes and recreates the store directory, creates the store from the
/// seeded network and attaches the injector. The injector is attached
/// AFTER Create: the initial publication is not part of the kill-point
/// space (there is no previous version to fall back to).
Result<std::unique_ptr<SnapshotManager>> FreshStore(
    const SnapshotCrashOptions& opt, FaultInjector* faults) {
  if (opt.dir.empty()) {
    return Status::InvalidArgument("SnapshotCrashOptions::dir is required");
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.dir, ec);
  Network initial = GenerateRandomGeometricNetwork(opt.initial_nodes,
                                                   /*radius=*/220.0,
                                                   /*extent=*/1000.0, opt.seed);
  std::unique_ptr<SnapshotManager> mgr;
  CCAM_ASSIGN_OR_RETURN(mgr,
                        SnapshotManager::Create(MakeSnapshotOptions(opt),
                                                initial));
  mgr->SetFaultInjector(faults);
  return mgr;
}

}  // namespace

Result<uint64_t> CountSnapshotKillPoints(const SnapshotCrashOptions& options) {
  return CountKillPoints(
      options.seed, options.crash_failpoint, [&](FaultInjector* faults) {
        std::unique_ptr<SnapshotManager> mgr;
        CCAM_ASSIGN_OR_RETURN(mgr, FreshStore(options, faults));
        return RunSnapshotWorkload(mgr.get(), options, nullptr);
      });
}

Result<CrashRunResult> RunSnapshotCrashOnce(const SnapshotCrashOptions& options,
                                            uint64_t crash_point) {
  FaultInjector faults(options.seed);
  CCAM_RETURN_NOT_OK(faults.Configure(
      options.crash_failpoint + "=crash:" +
      std::to_string(options.torn_bytes) + "@" +
      std::to_string(crash_point)));
  std::unique_ptr<SnapshotManager> mgr;
  CCAM_ASSIGN_OR_RETURN(mgr, FreshStore(options, &faults));
  SnapshotTrace trace;
  CCAM_RETURN_NOT_OK(RunSnapshotWorkload(mgr.get(), options, &trace));

  CrashRunResult out;
  out.writes_before_crash = faults.HitCount(options.crash_failpoint);
  if (!mgr->halted()) {
    out.outcome = CrashOutcome::kNoCrash;
    return out;
  }
  // The directory now holds the torn on-disk shape of the kill instant
  // (the store never buffers durable state in memory only — the delta log
  // flush already happened for every acked mutation). Drop the halted
  // store and recover from the directory alone.
  mgr.reset();

  auto reopened = SnapshotManager::Open(MakeSnapshotOptions(options));
  if (!reopened.ok()) {
    out.outcome = CrashOutcome::kRecoveryFailed;
    out.detail = reopened.status().ToString();
    return out;
  }
  Status st = (*reopened)->CheckConsistency();
  if (!st.ok()) {
    out.outcome = CrashOutcome::kRecoveryFailed;
    out.detail = st.ToString();
    return out;
  }
  Network recovered = (*reopened)->network();
  uint64_t recovered_lsn = (*reopened)->NextLsn();
  out.recovered_nodes = recovered.NodeIds().size();

  // Strict criterion: exactly the acked stream, or acked + the in-flight
  // mutation (its log frame may have fully reached disk before the tear).
  Status acked = CompareNetworks(recovered, trace.acked);
  if (!acked.ok()) {
    Status inflight = CompareNetworks(recovered, trace.inflight);
    if (!inflight.ok()) {
      out.outcome = CrashOutcome::kLostAck;
      out.detail = "vs acked state: " + acked.ToString() +
                   "; vs acked+in-flight: " + inflight.ToString();
      return out;
    }
  }

  // Recovery must be idempotent: opening the once-recovered directory
  // again lands on the same network and the same next lsn.
  reopened->reset();
  auto again = SnapshotManager::Open(MakeSnapshotOptions(options));
  if (!again.ok()) {
    out.outcome = CrashOutcome::kRecoveryFailed;
    out.detail = "second recovery: " + again.status().ToString();
    return out;
  }
  Status same = CompareNetworks((*again)->network(), recovered);
  if (!same.ok() || (*again)->NextLsn() != recovered_lsn) {
    out.outcome = CrashOutcome::kRecoveryFailed;
    out.detail = "non-idempotent recovery: " +
                 (same.ok() ? "lsn mismatch" : same.ToString());
    return out;
  }
  uint32_t crc;
  CCAM_ASSIGN_OR_RETURN(
      crc, FileCrc(options.dir + "/v" +
                   std::to_string((*again)->CurrentVersionId()) + ".img"));
  out.recovered_image_crc = crc;
  out.outcome = CrashOutcome::kDurable;
  return out;
}

Result<CrashSimReport> RunSnapshotCrashSim(const SnapshotCrashOptions& options,
                                           uint64_t num_points) {
  return SweepKillPoints(
      [&] { return CountSnapshotKillPoints(options); },
      [&](uint64_t point) { return RunSnapshotCrashOnce(options, point); },
      num_points);
}

}  // namespace ccam
