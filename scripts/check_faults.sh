#!/usr/bin/env bash
# Runs the fault-injection and crash-consistency acceptance suite: the
# `faults`-labeled ctest suites (skipped by the default `ctest` run via
# the `faults` configuration), including the heavy sweeps (>= 200 crash
# points, every snapshot-store log kill point, 10k-op differential-oracle
# workloads at 1 KiB and 4 KiB pages), plus a detect-only crashsim seed
# sweep across reorganization policies and a lossless-ack crashsim sweep of
# the snapshot store.
# Usage: scripts/check_faults.sh [build-dir]   (default: build)
set -euo pipefail

BUILD="${1:-build}"

cmake -B "$BUILD" -S .
cmake --build "$BUILD" --target \
  fault_injector_test crash_consistency_test dynamic_oracle_test crashsim

# Fast suites + acceptance sweeps (the `faults` ctest configuration).
ctest --test-dir "$BUILD" -C faults -L faults --output-on-failure

# crashsim seed sweep (detect-only): every (seed, policy) pair must report
# every crash point as recovered or corruption-detected — crashsim exits
# nonzero otherwise.
for seed in 7 11 1995; do
  for policy in first second; do
    "$BUILD"/tools/crashsim --seed="$seed" --policy="$policy" --points=40 \
      --image="${TMPDIR:-/tmp}/ccam_crashsim_${seed}_${policy}.img"
  done
done

# Lossless-ack sweep of the snapshot store, the only durable write path:
# with reorganization off, every kill point of the delta log's append and
# flush (the acknowledgment barrier) must recover exactly the acknowledged
# mutations, or those plus the one in flight. Gated twice: on crashsim's
# exit code AND on the machine-readable report (failures must be 0 and the
# durable count must equal the points swept).
JSON_DIR="${TMPDIR:-/tmp}"
for seed in 1995 2024; do
  for fp in snapshot.log.append snapshot.log.flush; do
    json="$JSON_DIR/ccam_crashsim_store_${fp}_${seed}.json"
    "$BUILD"/tools/crashsim --snapshot --reorg-every=0 --failpoint="$fp" \
      --seed="$seed" --points=100000 \
      --dir="$JSON_DIR/ccam_crashsim_store_${fp}_${seed}" --json="$json"
    grep -q '"failures": 0,' "$json" || {
      echo "check_faults: $json reports failures" >&2; exit 1; }
    python3 - "$json" <<'PY' || exit 1
import json, sys
report = json.load(open(sys.argv[1]))
if report["counts"]["durable"] != report["swept"]:
    sys.exit("check_faults: %s: %d durable of %d swept"
             % (sys.argv[1], report["counts"]["durable"], report["swept"]))
PY
  done
done

echo "faults: every crash point recovered or was detected; oracle replay"
echo "faults: saw zero divergences; the snapshot store lost zero acked"
echo "faults: mutations. All fault suites passed."
