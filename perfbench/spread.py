#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...]
                                [--seconds S]

For each workload, runs perfbench/run.py once per seed (untraced) and
prints, per end-to-end metric of BENCHMARK.json, the median of the runs and
the spread: (third quartile - first quartile) / median, with quartiles from
statistics.quantiles(values, n=4). A spread marked "!" is at or above a
third of the metric's bound. Exit status 1 if any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds",
                        default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds.split(","):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", seed, "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %s: FAILED (exit %d)" % (workload, seed,
                                                        proc.returncode))
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in bench["end_to_end"]:
            series = values[m["name"]]
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "!" if spread >= m["bound"] / 3 else " "
            print("%-14s %-16s median %-14.6g spread %.4f%s (bound %.2f)" %
                  (workload, m["name"], median, spread, flag, m["bound"]))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
