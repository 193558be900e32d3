#!/usr/bin/env bash
# Single-entry CI gate: runs the acceptance stages in sequence and
# prints a summary table. Any stage failing makes the script exit nonzero,
# but later stages still run so one CI invocation reports everything.
#
#   1. tier-1    — default `ctest` suite (fast correctness tests)
#   2. metrics   — tools/stats: end-to-end observability smoke (create,
#                  update churn and every query operator with the registry
#                  attached; every instrumented family must collect
#                  nonzero data)
#   3. perf      — scripts/check_perf.sh --smoke: bench JSON artifacts
#                  round-trip through the regression gate; then the
#                  repository benchmark's own checks: `perfbench/run.py
#                  --self-test` (its helper unit tests and BENCHMARK.json's
#                  shape) and a build of the `perfbench` program, both in
#                  a CI build directory (CARGO_TARGET_DIR), so a library
#                  change that breaks the benchmark fails here rather
#                  than in a benchmark run
#   4. serve     — serve_test and chaos_serve_test repeated until-fail:10,
#                  then snapshot_swap_test's SnapshotServeTest cases 10
#                  times, since a snapshot store is served through the
#                  same Submit / queue-lock path (a timing-dependent
#                  NoSpace or ticket failure fails CI instead of passing
#                  as a flake); serve_test holds the served-vs-serial
#                  equivalence oracle and the IoStats conservation check
#                  over a file, a snapshot store and a sharded file (the
#                  serving layer's wall-clock numbers are gated by
#                  perfbench's serve_hotspot and snapshot_rw bounds)
#   5. swap      — snapshot store: the 8-reader swap hammer (no reader
#                  error, one reorganization per swap) and a quick
#                  mid-swap crashsim sweep over every snapshot.* failpoint
#                  (recovery must land on exactly the old or exactly the
#                  new version)
#   6. shard     — sharded network file: the differential oracle + reader
#                  hammer suite (tests/shard_test), the ccam_cli shard
#                  subcommand's sharded-vs-unsharded check, and
#                  bench/shard_scaling emitting BENCH_shard_scaling.json
#                  (route results and the 1-shard accounting are gated in
#                  the binary; the artifact is diffed by check_perf.sh)
#   7. chaos     — scripts/check_chaos.sh: request-lifecycle chaos battery
#                  (serve hammer under deadline pressure with disk fault
#                  schedules, quarantine/read-retry suite, delta-log
#                  recovery fuzz under a concurrent reader)
#   8. faults    — scripts/check_faults.sh: fault-injection + crash
#                  consistency sweeps, differential oracle, lossless-ack
#                  snapshot-store crashsim with JSON gating
#   9. debug     — serve_test, chaos_serve_test, query_test, shard_test
#                  and snapshot_swap_test in a separate Debug build
#                  directory, so the `#ifndef NDEBUG` contract checks (the
#                  read-session thread assert and its death test, run by
#                  every session read and read-ahead hint, also on the
#                  retry and deadline paths that attach a context per
#                  request) run somewhere: tier-1 (RelWithDebInfo) and
#                  TSan both define NDEBUG
#  10. tsan      — scripts/check_tsan.sh: concurrency suites under
#                  ThreadSanitizer (separate build directory), with
#                  buffer_pool_test, quarantine_test and query_test for
#                  the pool's one load path (issue, stamp, wait at fetch;
#                  bounded re-reads and quarantine)
#  11. asan      — every target built, the whole tier-1 ctest suite,
#                  then the hierarchy_crash_test and
#                  crash_consistency_test (default, sampled) fault
#                  suites, under AddressSanitizer + UBSan (CCAM_ASAN /
#                  CCAM_UBSAN, separate build directory): among others,
#                  the search's page harvest grows the arc
#                  array a relax loop indexes, the serve/snapshot paths
#                  free versions and sessions under concurrency, the CH
#                  witness search indexes reused scratch arrays by dense
#                  core id, the overlay's LoadImage decodes page 0 of every
#                  torn crash capture, the pool's read-ahead reserves
#                  and drops frames, and the image loader decodes
#                  truncated, torn and hostile images
#
# Usage: scripts/ci.sh [build-dir] [tsan-build-dir] [debug-build-dir]
#                      [asan-build-dir]
#        (defaults: build, build-tsan, build-debug, build-asan; the
#        benchmark builds in <build-dir>-perfbench)
set -uo pipefail

BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"
DEBUG_BUILD="${3:-build-debug}"
ASAN_BUILD="${4:-build-asan}"
PERF_BUILD="${BUILD}-perfbench"  # the benchmark's own CMake project
cd "$(dirname "$0")/.."

declare -a STAGE_NAMES=() STAGE_RESULTS=()
FAILED=0

run_stage() {
  local name="$1"; shift
  echo
  echo "=== ci: $name ==="
  if "$@"; then
    STAGE_RESULTS+=("PASS")
  else
    STAGE_RESULTS+=("FAIL")
    FAILED=1
  fi
  STAGE_NAMES+=("$name")
}

tier1() {
  cmake -B "$BUILD" -S . &&
  cmake --build "$BUILD" -j "$(nproc)" &&
  ctest --test-dir "$BUILD" --output-on-failure
}

perf_stage() {
  scripts/check_perf.sh --smoke "$BUILD" || return 1
  local bench_dir="${PERF_BUILD}/perfbench-release"
  CARGO_TARGET_DIR="$PERF_BUILD" python3 perfbench/run.py --self-test ||
    return 1
  cmake --build "$bench_dir" --target perfbench -j "$(nproc)"
}

metrics() {
  cmake --build "$BUILD" --target stats -j "$(nproc)" &&
  "$BUILD/tools/stats" > /dev/null
}

serve_repeat() {
  cmake --build "$BUILD" --target serve_test chaos_serve_test \
    snapshot_swap_test -j "$(nproc)" &&
  ctest --test-dir "$BUILD" -R 'serve_test|chaos_serve_test' \
    --repeat until-fail:10 --output-on-failure &&
  "$BUILD/tests/snapshot_swap_test" --gtest_filter='SnapshotServeTest.*' \
    --gtest_repeat=10 --gtest_break_on_failure
}

shard_stage() {
  cmake --build "$BUILD" --target shard_test ccam_cli shard_scaling \
    -j "$(nproc)" || return 1
  "$BUILD/tests/shard_test" || return 1
  local net="${TMPDIR:-/tmp}/ccam_ci_shard.net"
  "$BUILD/tools/ccam_cli" generate --out "$net" --rows 16 --cols 16 \
    --seed 5 > /dev/null || return 1
  "$BUILD/tools/ccam_cli" shard --net "$net" --page-size 512 --shards 4 \
    --routes 32 || return 1
  CCAM_SHARD_ROUTES=60 "$BUILD/bench/shard_scaling"
}

swap_stage() {
  cmake --build "$BUILD" --target snapshot_swap_test crashsim \
    -j "$(nproc)" || return 1
  "$BUILD/tests/snapshot_swap_test" || return 1
  local fp
  for fp in snapshot.log.append snapshot.log.flush snapshot.build \
            snapshot.publish snapshot.retire; do
    "$BUILD/tools/crashsim" --snapshot --failpoint="$fp" --points=6 \
      --dir="${TMPDIR:-/tmp}/ccam_ci_swap_${fp//./_}" || return 1
  done
}

debug_asserts() {
  cmake -B "$DEBUG_BUILD" -S . -DCMAKE_BUILD_TYPE=Debug &&
  cmake --build "$DEBUG_BUILD" --target serve_test chaos_serve_test \
    query_test shard_test snapshot_swap_test -j "$(nproc)" &&
  "$DEBUG_BUILD/tests/serve_test" &&
  "$DEBUG_BUILD/tests/chaos_serve_test" &&
  "$DEBUG_BUILD/tests/query_test" &&
  "$DEBUG_BUILD/tests/shard_test" &&
  "$DEBUG_BUILD/tests/snapshot_swap_test"
}

asan_stage() {
  cmake -B "$ASAN_BUILD" -S . -DCCAM_ASAN=ON -DCCAM_UBSAN=ON &&
  cmake --build "$ASAN_BUILD" -j "$(nproc)" &&
  ctest --test-dir "$ASAN_BUILD" --output-on-failure &&
  "$ASAN_BUILD/tests/hierarchy_crash_test" &&
  "$ASAN_BUILD/tests/crash_consistency_test"
}

run_stage "tier-1 (ctest)" tier1
run_stage "metrics (tools/stats)" metrics
run_stage "perf (smoke + perfbench)" perf_stage
run_stage "serve (repeat)" serve_repeat
run_stage "swap (hammer + mid-swap crashsim)" swap_stage
run_stage "shard (oracle + hammer + bench)" shard_stage
run_stage "chaos (check_chaos.sh)" scripts/check_chaos.sh "$BUILD"
run_stage "faults (check_faults.sh)" scripts/check_faults.sh "$BUILD"
run_stage "debug asserts (Debug build)" debug_asserts
run_stage "tsan (check_tsan.sh)" scripts/check_tsan.sh "$TSAN_BUILD"
run_stage "asan + ubsan" asan_stage

echo
echo "=== ci summary ==="
printf '%-28s %s\n' "stage" "result"
printf '%-28s %s\n' "-----" "------"
for i in "${!STAGE_NAMES[@]}"; do
  printf '%-28s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done

exit "$FAILED"
