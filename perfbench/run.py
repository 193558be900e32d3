#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds perfbench/ (an optimized CMake build of the library
in ../src plus the benchmark program) if needed, runs one workload and
relays the program's output; its last line is the JSON result. The metrics it prints
and their units come from BENCHMARK.json (end_to_end for --trace 0,
per_layer for --trace 1). The second form builds and runs the unit tests
of the benchmark's own helpers and checks BENCHMARK.json's shape.

Build output goes to $CARGO_TARGET_DIR (default .bench_build) and run
files to .bench_work, both under the working directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("serve_hotspot", "query_cpu", "snapshot_rw", "shard_routes")
RUN_TIMEOUT_S = 170
SETTLE_AFTER_BUILD_S = 10


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench-release")


def build(target):
    """Configures (once) and builds `target`; returns the binary path.

    When the build changed the binary, flushes the build's writes and
    pauses briefly, so a run right after compiling does not share the host
    with the compiler's aftermath.
    """
    out = build_dir()
    binary = os.path.join(out, target)
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise RuntimeError("build failed")
    if os.path.getmtime(binary) != before:
        os.sync()
        time.sleep(SETTLE_AFTER_BUILD_S)
    return binary


def source_id():
    """The commit, or a digest of the sources when not in a git checkout."""
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_spec(spec):
    """The shape checks the benchmark relies on; returns a list of problems."""
    problems = []
    names = set()
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            if m["name"] in names:
                problems.append(f"duplicate metric {m['name']}")
            names.add(m["name"])
            if "," in m["name"] or ":" in m["name"] or "," in m["unit"]:
                problems.append(f"metric {m['name']}: ',' or ':' in name/unit")
    for m in spec.get("end_to_end", []):
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"{m['name']}: bound outside (0, 0.25]")
    if {w["name"] for w in spec.get("workloads", [])} - set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload perfbench lacks")
    if not any(m["name"] == "setup_s" for m in spec.get("end_to_end", [])):
        problems.append("setup_s missing from end_to_end")
    return problems


def self_test():
    problems = check_spec(load_spec())
    for p in problems:
        log(p)
    binary = build("perfbench_helpers_test")
    rc = subprocess.run([binary]).returncode
    return 1 if problems or rc else 0


def run(args):
    spec = load_spec()
    group = "per_layer" if args.trace == 1 else "end_to_end"
    names = ",".join(f"{m['name']}:{m['unit']}" for m in spec[group])
    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--names", names, "--commit", source_id(),
           "--work-dir", os.path.abspath(".bench_work")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"workload exceeded {RUN_TIMEOUT_S} s; killed")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (OSError, RuntimeError, KeyError, ValueError) as err:
        log(f"error: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
