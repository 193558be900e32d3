// crashsim — crash-consistency sweep driver.
//
// Runs the deterministic crash harness (src/core/crash_harness.h): a seeded
// CCAM maintenance workload is killed at scheduled kill points, the
// surviving platter state is reopened and verified. Prints a per-point
// outcome table, optionally writes a machine-readable JSON report, and
// exits nonzero on any classification failure:
//   - default (detect-only): the CCAM file writes pages in place, so a kill
//     point must recover or be detected with a clean typed Status; a
//     scheduled kill that never fires also fails.
//   - --snapshot: the system under test is the versioned snapshot store
//     (SnapshotManager), the only durable write path. The seeded mutation
//     stream interleaves synchronous reorganizations (--reorg-every=0 turns
//     them off), and the kill is scheduled on one of the "snapshot.*"
//     protocol failpoints (log.append, log.flush, build, publish, retire).
//     Every kill point must recover to exactly the acknowledged mutations
//     (plus at most the in-flight one) — exactly the old or exactly the new
//     version, never a blend.
//
// Usage:
//   crashsim [--seed=N] [--page-size=N] [--ops=N] [--points=N]
//            [--torn-bytes=N] [--policy=first|second|higher]
//            [--json=PATH] [--image=PATH] [--verbose]
//   crashsim --snapshot [--seed=N] [--page-size=N] [--ops=N] [--points=N]
//            [--torn-bytes=N] [--reorg-every=N] [--dir=PATH]
//            [--failpoint=snapshot.log.append|snapshot.log.flush|
//                         snapshot.build|snapshot.publish|snapshot.retire]
//            [--json=PATH] [--verbose]
//   crashsim --list-failpoints
//
// --list-failpoints prints the full failpoint catalog (name, site, what the
// injected fault models) plus the fault-schedule syntax, so chaos schedules
// can be authored without reading source.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/fault_injector.h"
#include "src/core/crash_harness.h"

namespace {

int ListFailpoints() {
  std::printf("failpoint catalog (name — site — injected fault):\n");
  for (const ccam::FailpointInfo& fp : ccam::FaultInjector::Catalog()) {
    std::printf("  %-22s %s\n  %-22s   %s\n", fp.name, fp.site, "", fp.notes);
  }
  std::printf(
      "\nschedule syntax (FaultInjector::Configure; comma-separated):\n"
      "  <point>=<action>[@<trigger>]\n"
      "  actions:  error[:<code>]   (code: io, corruption, notfound;"
      " default io)\n"
      "            short:<bytes>  |  torn:<bytes>  |  nospace  |"
      "  crash:<bytes>\n"
      "  triggers: @<n> (once, on hit n)   @<n>+ (from hit n on)\n"
      "            @every<n>               @p<prob>        (default: @1)\n"
      "  example:  disk.write=crash:96@17,disk.read=error@p0.01\n");
  return 0;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed=N] [--page-size=N] [--ops=N] [--points=N]\n"
      "          [--torn-bytes=N] [--policy=first|second|higher]\n"
      "          [--failpoint=disk.write] [--json=PATH] [--image=PATH]\n"
      "          [--verbose]\n"
      "       %s --snapshot [--seed=N] [--page-size=N] [--ops=N]\n"
      "          [--points=N] [--torn-bytes=N] [--reorg-every=N]\n"
      "          [--dir=PATH] [--failpoint=snapshot.*] [--json=PATH]\n"
      "          [--verbose]\n"
      "       %s --list-failpoints   (print the failpoint catalog and the\n"
      "          fault-schedule syntax, then exit)\n",
      argv0, argv0, argv0);
  return 2;
}

bool IsSnapshotFailpoint(const std::string& v) {
  return v == "snapshot.log.append" || v == "snapshot.log.flush" ||
         v == "snapshot.build" || v == "snapshot.publish" ||
         v == "snapshot.retire";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Publishes `body` at `path` via a temp file and an atomic rename: the
/// report either appears whole and parseable or not at all — an
/// interrupted or failed sweep can never leave a partial JSON object
/// where a gating script would try to parse it.
bool AtomicWriteFile(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << body;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

/// Valid error-report JSON for a sweep that died before producing a
/// report (--json consumers get a parseable document either way).
bool WriteJsonError(const std::string& path, const std::string& message) {
  std::ostringstream out;
  out << "{\n  \"error\": \"" << JsonEscape(message) << "\"\n}\n";
  return AtomicWriteFile(path, out.str());
}

bool WriteJsonReport(const std::string& path,
                     const ccam::CrashSimOptions& opt,
                     const ccam::CrashSimReport& report) {
  std::ostringstream out;
  out << "{\n"
      << "  \"seed\": " << opt.seed << ",\n"
      << "  \"page_size\": " << opt.page_size << ",\n"
      << "  \"policy\": \"" << ccam::ReorgPolicyName(opt.policy) << "\",\n"
      << "  \"torn_bytes\": " << opt.torn_bytes << ",\n"
      << "  \"failpoint\": \"" << JsonEscape(opt.crash_failpoint) << "\",\n"
      << "  \"total_kill_points\": " << report.total_writes << ",\n"
      << "  \"swept\": " << report.points.size() << ",\n"
      << "  \"counts\": {\n"
      << "    \"no_crash\": " << report.no_crash << ",\n"
      << "    \"recovered\": " << report.recovered << ",\n"
      << "    \"corruption_detected\": " << report.corruption_detected
      << ",\n"
      << "    \"durable\": " << report.durable << ",\n"
      << "    \"lost_ack\": " << report.lost_ack << ",\n"
      << "    \"recovery_failed\": " << report.recovery_failed << "\n"
      << "  },\n"
      << "  \"failures\": " << report.failures() << ",\n"
      << "  \"points\": [\n";
  for (size_t i = 0; i < report.points.size(); ++i) {
    const ccam::CrashPointReport& p = report.points[i];
    out << "    {\"point\": " << p.crash_point << ", \"outcome\": \""
        << ccam::CrashOutcomeName(p.result.outcome)
        << "\", \"writes_before_crash\": " << p.result.writes_before_crash
        << ", \"recovered_nodes\": " << p.result.recovered_nodes
        << ", \"recovered_image_crc\": " << p.result.recovered_image_crc
        << ", \"detail\": \"" << JsonEscape(p.result.detail) << "\"}"
        << (i + 1 < report.points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return AtomicWriteFile(path, out.str());
}

bool WriteSnapshotJsonReport(const std::string& path,
                             const ccam::SnapshotCrashOptions& opt,
                             const ccam::CrashSimReport& report) {
  std::ostringstream out;
  out << "{\n"
      << "  \"mode\": \"snapshot\",\n"
      << "  \"seed\": " << opt.seed << ",\n"
      << "  \"page_size\": " << opt.page_size << ",\n"
      << "  \"ops\": " << opt.ops << ",\n"
      << "  \"reorg_every\": " << opt.reorg_every << ",\n"
      << "  \"torn_bytes\": " << opt.torn_bytes << ",\n"
      << "  \"failpoint\": \"" << JsonEscape(opt.crash_failpoint) << "\",\n"
      << "  \"total_kill_points\": " << report.total_writes << ",\n"
      << "  \"swept\": " << report.points.size() << ",\n"
      << "  \"counts\": {\n"
      << "    \"no_crash\": " << report.no_crash << ",\n"
      << "    \"durable\": " << report.durable << ",\n"
      << "    \"lost_ack\": " << report.lost_ack << ",\n"
      << "    \"recovery_failed\": " << report.recovery_failed << "\n"
      << "  },\n"
      << "  \"failures\": " << report.failures() << ",\n"
      << "  \"points\": [\n";
  for (size_t i = 0; i < report.points.size(); ++i) {
    const ccam::CrashPointReport& p = report.points[i];
    out << "    {\"point\": " << p.crash_point << ", \"outcome\": \""
        << ccam::CrashOutcomeName(p.result.outcome)
        << "\", \"recovered_nodes\": " << p.result.recovered_nodes
        << ", \"recovered_image_crc\": " << p.result.recovered_image_crc
        << ", \"detail\": \"" << JsonEscape(p.result.detail) << "\"}"
        << (i + 1 < report.points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return AtomicWriteFile(path, out.str());
}

int RunSnapshotMode(const ccam::SnapshotCrashOptions& opt, uint64_t points,
                    bool verbose, const std::string& json_path) {
  auto report = ccam::RunSnapshotCrashSim(opt, points);
  if (!report.ok()) {
    std::fprintf(stderr, "crashsim: %s\n",
                 report.status().ToString().c_str());
    if (!json_path.empty()) {
      WriteJsonError(json_path, report.status().ToString());
    }
    return 1;
  }
  std::printf(
      "crashsim: snapshot mode seed=%llu page-size=%zu ops=%d "
      "reorg-every=%d torn-bytes=%d failpoint=%s — %llu kill points, "
      "%zu swept\n",
      static_cast<unsigned long long>(opt.seed), opt.page_size, opt.ops,
      opt.reorg_every, opt.torn_bytes, opt.crash_failpoint.c_str(),
      static_cast<unsigned long long>(report->total_writes),
      report->points.size());
  for (const ccam::CrashPointReport& p : report->points) {
    bool failed = p.result.outcome == ccam::CrashOutcome::kNoCrash ||
                  p.result.outcome == ccam::CrashOutcome::kLostAck ||
                  p.result.outcome == ccam::CrashOutcome::kRecoveryFailed;
    if (verbose || failed) {
      std::printf("  point %5llu: %-19s %s\n",
                  static_cast<unsigned long long>(p.crash_point),
                  ccam::CrashOutcomeName(p.result.outcome),
                  p.result.detail.c_str());
    }
  }
  std::printf("crashsim: %zu durable, %zu lost-ack, %zu recovery-failed, "
              "%zu no-crash\n",
              report->durable, report->lost_ack, report->recovery_failed,
              report->no_crash);
  if (!json_path.empty() &&
      !WriteSnapshotJsonReport(json_path, opt, *report)) {
    std::fprintf(stderr, "crashsim: cannot write JSON report to %s\n",
                 json_path.c_str());
    return 1;
  }
  if (report->failures() > 0) {
    std::fprintf(stderr,
                 "crashsim: FAIL — %zu kill point(s) recovered to a state "
                 "that is neither the old nor the new version\n",
                 report->failures());
    return 1;
  }
  std::printf("crashsim: OK — every kill point recovered to exactly the "
              "old or exactly the new version\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ccam::CrashSimOptions opt;
  opt.image_path = "/tmp/ccam_crashsim.img";
  ccam::SnapshotCrashOptions snap_opt;
  snap_opt.dir = "/tmp/ccam_crashsim_store";
  bool snapshot_mode = false;
  bool failpoint_set = false;
  uint64_t points = 64;
  bool verbose = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      snap_opt.seed = opt.seed;
    } else if (ParseFlag(argv[i], "page-size", &v)) {
      opt.page_size = std::strtoull(v.c_str(), nullptr, 10);
      snap_opt.page_size = opt.page_size;
    } else if (ParseFlag(argv[i], "ops", &v)) {
      opt.ops = std::atoi(v.c_str());
      snap_opt.ops = opt.ops;
    } else if (ParseFlag(argv[i], "points", &v)) {
      points = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "torn-bytes", &v)) {
      opt.torn_bytes = std::atoi(v.c_str());
      snap_opt.torn_bytes = opt.torn_bytes;
    } else if (ParseFlag(argv[i], "reorg-every", &v)) {
      snap_opt.reorg_every = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "image", &v)) {
      opt.image_path = v;
    } else if (ParseFlag(argv[i], "dir", &v)) {
      snap_opt.dir = v;
    } else if (ParseFlag(argv[i], "json", &v)) {
      json_path = v;
    } else if (std::strcmp(argv[i], "--snapshot") == 0) {
      snapshot_mode = true;
    } else if (std::strcmp(argv[i], "--list-failpoints") == 0) {
      return ListFailpoints();
    } else if (ParseFlag(argv[i], "failpoint", &v)) {
      if (v != "disk.write" && !IsSnapshotFailpoint(v)) {
        return Usage(argv[0]);
      }
      opt.crash_failpoint = v;
      snap_opt.crash_failpoint = v;
      failpoint_set = true;
    } else if (ParseFlag(argv[i], "policy", &v)) {
      if (v == "first") {
        opt.policy = ccam::ReorgPolicy::kFirstOrder;
      } else if (v == "second") {
        opt.policy = ccam::ReorgPolicy::kSecondOrder;
      } else if (v == "higher") {
        opt.policy = ccam::ReorgPolicy::kHigherOrder;
      } else {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (snapshot_mode) {
    if (failpoint_set && !IsSnapshotFailpoint(snap_opt.crash_failpoint)) {
      std::fprintf(stderr,
                   "crashsim: --snapshot requires a snapshot.* failpoint "
                   "(got %s)\n",
                   snap_opt.crash_failpoint.c_str());
      return 2;
    }
    return RunSnapshotMode(snap_opt, points, verbose, json_path);
  }
  if (IsSnapshotFailpoint(opt.crash_failpoint)) {
    std::fprintf(stderr,
                 "crashsim: --failpoint=%s requires --snapshot\n",
                 opt.crash_failpoint.c_str());
    return 2;
  }

  auto report = ccam::RunCrashSim(opt, points);
  if (!report.ok()) {
    std::fprintf(stderr, "crashsim: %s\n",
                 report.status().ToString().c_str());
    if (!json_path.empty()) {
      WriteJsonError(json_path, report.status().ToString());
    }
    return 1;
  }
  std::printf(
      "crashsim: seed=%llu page-size=%zu policy=%s torn-bytes=%d "
      "failpoint=%s mode=detect-only — %llu kill points, %zu swept\n",
      static_cast<unsigned long long>(opt.seed), opt.page_size,
      ccam::ReorgPolicyName(opt.policy), opt.torn_bytes,
      opt.crash_failpoint.c_str(),
      static_cast<unsigned long long>(report->total_writes),
      report->points.size());
  for (const ccam::CrashPointReport& p : report->points) {
    bool failed = p.result.outcome == ccam::CrashOutcome::kNoCrash ||
                  p.result.outcome == ccam::CrashOutcome::kLostAck ||
                  p.result.outcome == ccam::CrashOutcome::kRecoveryFailed;
    if (verbose || failed) {
      std::printf("  point %5llu: %-19s %s\n",
                  static_cast<unsigned long long>(p.crash_point),
                  ccam::CrashOutcomeName(p.result.outcome),
                  p.result.detail.c_str());
    }
  }
  std::printf(
      "crashsim: %zu recovered, %zu corruption-detected, %zu no-crash\n",
      report->recovered, report->corruption_detected, report->no_crash);
  if (!json_path.empty() && !WriteJsonReport(json_path, opt, *report)) {
    std::fprintf(stderr, "crashsim: cannot write JSON report to %s\n",
                 json_path.c_str());
    return 1;
  }
  if (report->failures() > 0) {
    std::fprintf(stderr, "crashsim: FAIL — %zu kill point(s) violated the "
                 "detection criterion\n",
                 report->failures());
    return 1;
  }
  std::printf("crashsim: OK — every crash point recovered or was "
              "detected with a typed status\n");
  return 0;
}
