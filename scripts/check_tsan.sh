#!/usr/bin/env bash
# Builds the ThreadSanitizer configuration and runs every concurrency
# test suite under it: the thread pool, the deterministic parallel
# clustering, the sharded buffer pool / query-session hammer, the
# metrics-registry increment-conservation hammer, the hierarchy
# overlay (thread-pool-parallel witness searches + concurrent CH readers),
# and the query-serving layer (8-thread submit hammer under overload plus
# cancellation racing an immediate shutdown — serve_test), the snapshot
# store's swap hammer (8 reader threads across 50 back-to-back version
# swaps — snapshot_swap_test), and the request-lifecycle chaos battery
# (8 workers under deadline pressure with disk fault schedules, retries,
# breaker trips and mid-flight cancellation — chaos_serve_test), and the
# sharded network file's 8-thread reader hammer (per-thread facade
# sessions over 4 shards, with exact IoStats conservation — shard_test),
# and the buffer pool's one load path: the issue, stamp and wait-at-fetch
# unit tests of demand misses and read-ahead (buffer_pool_test), the
# bounded re-reads and the 8-thread quarantine hammer (PoolRetryTest,
# PageQuarantine — quarantine_test) and the operators' read-ahead oracles
# over sessions (ReadAheadTest, SearchReadAheadTest — query_test).
# Every serve worker shares the service's one run-queue lock and condition
# variable, and races there show up only intermittently, so serve_test and
# chaos_serve_test run three times (--repeat until-fail:3).
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

BUILD="${1:-build-tsan}"
TESTS='thread_pool_test|cluster_determinism_test|buffer_pool_test|buffer_pool_concurrency_test|quarantine_test|metrics_test|hierarchy_test|snapshot_swap_test|shard_test|query_test'
SERVE_TESTS='serve_test|chaos_serve_test'

# No explicit generator: reuse whatever an existing cache was made with.
cmake -B "$BUILD" -S . -DCCAM_TSAN=ON
cmake --build "$BUILD" --target \
  thread_pool_test cluster_determinism_test buffer_pool_test \
  buffer_pool_concurrency_test quarantine_test metrics_test hierarchy_test \
  serve_test snapshot_swap_test chaos_serve_test shard_test query_test
ctest --test-dir "$BUILD" -R "$TESTS" --output-on-failure
ctest --test-dir "$BUILD" -R "$SERVE_TESTS" --repeat until-fail:3 \
  --output-on-failure

echo "TSan: all concurrency tests passed with zero reported races."
