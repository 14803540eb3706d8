#!/usr/bin/env python3
"""Tiny-size smoke run of every benchmark workload.

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json, and sockets_drift, through
perfbench/run.py with a short stream (--updates 4096) for a fraction of a
second, untraced and traced.
Fails (exit 1) when a run exits non-zero, reports correct=false, prints a
last line that is not the result object, or misses a metric BENCHMARK.json
names (end-to-end metrics untraced, per-layer metrics traced) or gives it
another unit. End-to-end metrics must also be positive.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_UPDATES = 4096
# Workloads the measuring program knows beyond BENCHMARK.json's: too
# unsteady on a shared host to gate on (README.md), but they must still run.
EXTRA_WORKLOADS = ["sockets_drift"]


def check_run(bench, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
           "--updates", str(SMOKE_UPDATES)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    problems = []
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        problems.append("exit status %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["last line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correctness check failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(m["name"] for m in expected) - set(metrics)),
            sorted(set(metrics) - set(m["name"] for m in expected))))
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append("%s unit %r != %r" % (m["name"], got.get("unit"),
                                                   m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)):
            problems.append("%s is not a number" % m["name"])
        elif not trace and value <= 0:
            problems.append("%s = %r is not positive" % (m["name"], value))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = False
    for workload in [w["name"] for w in bench["workloads"]] + EXTRA_WORKLOADS:
        for trace in (0, 1):
            problems = check_run(bench, workload, trace)
            print("%-14s trace=%d %s" % (workload, trace,
                                         "ok" if not problems
                                         else "FAIL: " + "; ".join(problems)))
            failed |= bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
