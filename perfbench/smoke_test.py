#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark: all four workloads at tiny sizes.

    python3 perfbench/smoke_test.py

Runs the gated workloads and read-hot once untraced and once traced in smoke
mode (small tables, short phases), and asserts that each run emits exactly
the metrics BENCHMARK.json names, with their units, and that the output
checks ran.
Takes about a minute once the driver is built.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    # read-hot runs through the same command but is not gated (README.md).
    workloads = [w["name"] for w in spec["workloads"]]
    if "read-hot" not in workloads:
        workloads.append("read-hot")
    for workload in workloads:
        for trace in (0, 1):
            name = f"{workload} trace={trace}"
            try:
                result, log = run(workload, trace)
            except AssertionError as e:
                failures.append(str(e))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                failures.append(f"{name}: missing {missing} extra {extra} "
                                f"wrong units {wrong}")
            if not all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()):
                failures.append(f"{name}: a metric value is not a number")
            checks = re.search(r"range-checked (\d+)", log)
            if result["attempted"] < 1 or checks is None or int(checks.group(1)) < 1:
                failures.append(f"{name}: the output checks did not run")
            print(f"ok  {name}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
