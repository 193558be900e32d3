#!/usr/bin/env bash
# Bench-regression gate: diffs two bench JSON artifacts and fails when the
# current run regressed against the baseline.
#
# Understands both artifact schemas the benches emit:
#   * bench_util.h writer  — {"bench", "schema_version", "records": [...]};
#     records are joined on their string/bool fields (table, method, ...),
#   * google-benchmark     — {"context", "benchmarks": [...]}; entries are
#     joined on "name".
#
# Numeric fields whose names look like wall-clock measurements (ms, us,
# qps, time, rate, speedup) are compared within a relative tolerance
# (default 25%, only regressions in either direction are reported).
# Every other numeric field — page accesses, CRR, page counts — is the
# deterministic output of a seeded experiment and must match EXACTLY;
# any drift there is a correctness change, not noise.
#
# Artifacts produced by a DEBUG build (google-benchmark stamps
# "library_build_type": "debug" into its context) skip the wall-clock
# comparisons entirely, with a loud warning: debug timings measure
# assertion density, not performance. Deterministic fields still gate.
#
# Usage:
#   scripts/check_perf.sh baseline.json current.json [tolerance-pct]
#   scripts/check_perf.sh --smoke [build-dir]
#       builds the fastest bench plus the hierarchy-speedup bench (at its
#       smallest scale point), the shard-scaling bench (at a reduced
#       route count) and the partitioner ablation, runs each twice, and
#       diffs the artifact pairs — a self-test that the gate and the
#       writers agree, and that the CH overlay's page accesses, the
#       sharded file's read/cut/halo counts and every partitioner's CRR
#       and pages are run-to-run deterministic.
set -uo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if [[ "${1:-}" == "--smoke" ]]; then
  cd "$ROOT"
  BUILD="${2:-build}"
  cmake -B "$BUILD" -S . >/dev/null &&
    cmake --build "$BUILD" --target fig5_crr hierarchy_speedup \
      shard_scaling ablation_partitioner -j "$(nproc)" >/dev/null ||
    { echo "check_perf: smoke build failed"; exit 1; }
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  mkdir -p "$TMP/a" "$TMP/b"
  CCAM_BENCH_JSON_DIR="$TMP/a" "$BUILD/bench/fig5_crr" >/dev/null || exit 1
  CCAM_BENCH_JSON_DIR="$TMP/b" "$BUILD/bench/fig5_crr" >/dev/null || exit 1
  CCAM_BENCH_JSON_DIR="$TMP/a" CCAM_HIER_SIDES=32 \
    "$BUILD/bench/hierarchy_speedup" >/dev/null || exit 1
  CCAM_BENCH_JSON_DIR="$TMP/b" CCAM_HIER_SIDES=32 \
    "$BUILD/bench/hierarchy_speedup" >/dev/null || exit 1
  # Both artifacts hold counts only (their wall-clock columns go to
  # stdout), so the self-diffs never depend on host noise.
  "$0" "$TMP/a/BENCH_hierarchy_speedup.json" \
       "$TMP/b/BENCH_hierarchy_speedup.json" || exit 1
  # Shard scaling at a reduced route count; the reads, cut edges, halo,
  # crossings and mismatches must self-diff exactly.
  CCAM_BENCH_JSON_DIR="$TMP/a" CCAM_SHARD_ROUTES=40 \
    "$BUILD/bench/shard_scaling" >/dev/null || exit 1
  CCAM_BENCH_JSON_DIR="$TMP/b" CCAM_SHARD_ROUTES=40 \
    "$BUILD/bench/shard_scaling" >/dev/null || exit 1
  "$0" "$TMP/a/BENCH_shard_scaling.json" \
       "$TMP/b/BENCH_shard_scaling.json" || exit 1
  # Partitioner ablation: CRR, refined CRR and pages of all four
  # partitioners, and the thread sweep's "same pages" flags, exactly.
  CCAM_BENCH_JSON_DIR="$TMP/a" "$BUILD/bench/ablation_partitioner" \
    >/dev/null || exit 1
  CCAM_BENCH_JSON_DIR="$TMP/b" "$BUILD/bench/ablation_partitioner" \
    >/dev/null || exit 1
  "$0" "$TMP/a/BENCH_ablation_partitioner.json" \
       "$TMP/b/BENCH_ablation_partitioner.json" || exit 1
  set -- "$TMP/a/BENCH_fig5_crr.json" "$TMP/b/BENCH_fig5_crr.json"
fi

if [[ $# -lt 2 ]]; then
  echo "usage: $0 baseline.json current.json [tolerance-pct]" >&2
  echo "       $0 --smoke [build-dir]" >&2
  exit 2
fi

# A gate with no history is not a failure: the first run of a new bench
# (or a fresh checkout with no archived artifacts) has nothing to diff
# against. Warn loudly and pass, so CI pipelines can wire the gate in
# before the baseline exists.
if [[ ! -f "$1" ]]; then
  echo "check_perf: WARNING: baseline '$1' does not exist — nothing to" \
       "compare against yet. Passing; archive the current artifact to" \
       "start the history."
  exit 0
fi

BASELINE="$1" CURRENT="$2" TOL="${3:-25}" python3 - <<'EOF'
import json, os, sys

baseline_path = os.environ["BASELINE"]
current_path = os.environ["CURRENT"]
tol = float(os.environ["TOL"]) / 100.0

# Wall-clock-ish field names: noisy, compared within tolerance. Everything
# else numeric is deterministic and must match exactly.
NOISY = ("ms", "us", "time", "qps", "sec", "rate", "speedup")

def noisy(field):
    f = field.lower()
    return any(tok in f for tok in NOISY)

# Set by load() when an artifact came from a debug build (google-benchmark
# stamps "library_build_type" into its context). Debug wall-clock numbers
# measure assertion density, not performance: comparing them is pure
# noise, so the noisy fields are skipped entirely — loudly.
debug_build = False

def load(path):
    """Returns {join_key: {field: number}} for either artifact schema."""
    global debug_build
    with open(path) as f:
        doc = json.load(f)
    ctx = doc.get("context")
    if isinstance(ctx, dict) and ctx.get("library_build_type") == "debug":
        print(f"check_perf: WARNING: {os.path.basename(path)} was produced "
              "by a DEBUG build; wall-clock fields will NOT be compared "
              "(deterministic fields still must match exactly). Re-run the "
              "bench from a Release build for a real perf gate.")
        debug_build = True
    out = {}
    if "records" in doc:  # bench_util.h schema
        # Records are joined on their string/bool fields; many records can
        # share those (e.g. one per sweep point of the same table), so a
        # same-key occurrence index disambiguates — record emission order
        # is deterministic, making the index stable across runs.
        seen = {}
        for rec in doc["records"]:
            keys, nums = [], {}
            for field, value in rec.items():
                if isinstance(value, bool) or isinstance(value, str):
                    keys.append(f"{field}={value}")
                elif isinstance(value, (int, float)):
                    nums[field] = float(value)
            base = "/".join(keys) or "record"
            n = seen[base] = seen.get(base, 0) + 1
            out[base if n == 1 else f"{base}#{n}"] = nums
    elif "benchmarks" in doc:  # google-benchmark schema
        # "iterations" is auto-tuned from wall-clock by the framework, so
        # it is neither deterministic nor a measurement — skip it.
        skip = {"iterations", "repetition_index", "family_index",
                "per_family_instance_index"}
        for rec in doc["benchmarks"]:
            if rec.get("run_type") == "aggregate":
                continue
            nums = {f: float(v) for f, v in rec.items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                    and f not in skip}
            out[rec["name"]] = nums
    else:
        sys.exit(f"check_perf: {path}: neither 'records' nor 'benchmarks'")
    return out

base, cur = load(baseline_path), load(current_path)

# An empty baseline is a degenerate history, not a regression: the bench
# emitted a valid artifact with zero records (e.g. every sweep point was
# skipped at this scale). Warn and pass rather than flagging every current
# record as "new".
if not base:
    print(f"check_perf: WARNING: baseline {os.path.basename(baseline_path)} "
          "has no records — empty bench history, nothing to gate. Passing.")
    sys.exit(0)

failures, compared = [], 0

for key in sorted(base):
    if key not in cur:
        failures.append(f"missing record: {key}")
        continue
    for field, old in sorted(base[key].items()):
        if field not in cur[key]:
            failures.append(f"{key}: field '{field}' disappeared")
            continue
        new = cur[key][field]
        if noisy(field) and debug_build:
            continue
        compared += 1
        if noisy(field):
            limit = tol * max(abs(old), 1e-9)
            if abs(new - old) > limit:
                failures.append(
                    f"{key}: {field} {old:g} -> {new:g} "
                    f"({(new - old) / max(abs(old), 1e-9) * 100:+.1f}%, "
                    f"tolerance {tol * 100:.0f}%)")
        elif new != old:
            failures.append(
                f"{key}: {field} {old:g} -> {new:g} (deterministic field "
                "must match exactly)")
for key in sorted(cur):
    if key not in base:
        failures.append(f"new record (no baseline): {key}")

name = os.path.basename(current_path)
if failures:
    print(f"check_perf: {name}: {len(failures)} regression(s) "
          f"({compared} fields compared):")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print(f"check_perf: {name}: OK — {len(base)} records, "
      f"{compared} fields within tolerance {tol * 100:.0f}%")
EOF
