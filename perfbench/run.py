#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark binary is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) on first use. The last line of
stdout is the binary's JSON result; anything that goes wrong (no sources to
build, a failed build, an invalid or failed run) exits non-zero without
printing a result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read-hot", "read-cold", "plan-join", "learn-churn")
RUN_TIMEOUT_S = 170


def source_digest():
    """Content hash of the library sources (the checkout has no git metadata)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path or None."""
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        print("perfbench: no library sources next to the benchmark", file=sys.stderr)
        return None
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd + generator, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.path.isfile(exe) else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; for smoke_test.py only")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isabs(build_dir):
        build_dir = os.path.abspath(build_dir)
    exe = build(build_dir)
    if exe is None:
        return 1

    env = dict(os.environ, PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--span-dir", build_dir]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: binary exited with {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
