#!/usr/bin/env python3
"""Diff two benchmark JSON files and flag throughput regressions.

Usage:
    scripts/compare_bench.py BASELINE.json CANDIDATE.json
        [--threshold=PCT] [--report-only] [--min_ratio=PATTERN=RATIO ...]

Accepted input formats (either side, auto-detected, mixable):
  * the aggregate written by scripts/run_benches.sh
    (schema "nmcount-bench-baseline-v1"),
  * raw google-benchmark JSON (bench_micro --benchmark_out /
    --json_out),
  * a single BenchReport JSON from a tracked bench's --json_out.

Every metric is a throughput (higher is better):
  * micro rows  -> "micro/<name>" = items_per_second,
  * tracked benches -> "bench/<name>" = updates_per_sec,
  * named bench scalars -> "bench/<name>/<metric>" (the BenchReport
    "metrics" array — throughput-only benches report through these).
Metrics present on only one side are reported but never gate. A micro
row of the baseline aggregate may carry "bound_pct": that row gates at
its own bound instead of --threshold (run_benches.sh writes it for rows
whose median moves by more than the threshold between steady runs).

--min_ratio=PATTERN=RATIO (repeatable) is a hard speedup gate: every
shared metric whose name contains PATTERN must satisfy
candidate >= RATIO * baseline. Gate failures exit 1 even under
--report-only (the soft flag covers incidental regressions, not the
speedups a change exists to deliver); a PATTERN matching no shared
metric is a usage error (exit 2) so a renamed benchmark cannot silently
disarm its gate.

Exit codes: 0 = no regression beyond --threshold (default 10%) and all
--min_ratio gates met, 1 = at least one regression (suppressed by
--report-only) or missed gate (never suppressed), 2 = usage or
unreadable/undecodable input.
"""

import json
import sys
from pathlib import Path

SCHEMA = "nmcount-bench-baseline-v1"


def fail_usage(message):
    print(f"compare_bench: {message}", file=sys.stderr)
    print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
    return 2


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from err


def metrics_from_google_benchmark(doc):
    out = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        rate = row.get("items_per_second")
        if rate:
            out[f"micro/{row['name']}"] = float(rate)
    return out


def metrics_from_bench_report(doc):
    out = {}
    rate = doc.get("updates_per_sec")
    if rate:
        out[f"bench/{doc['bench']}"] = float(rate)
    # Throughput-only benches (e.g. bench_e15_concurrent_serving) report
    # named scalars in a "metrics" array instead of RunRecord batches.
    for metric in doc.get("metrics", []):
        value = metric.get("value")
        if value:
            out[f"bench/{doc['bench']}/{metric['name']}"] = float(value)
    return out


def row_bounds(doc):
    """{metric_name: bound_pct} for aggregate micro rows that carry one."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return {}
    return {f"micro/{row['name']}": float(row["bound_pct"])
            for row in doc.get("micro", []) if "bound_pct" in row}


def metrics_from_aggregate(doc):
    out = {}
    for row in doc.get("micro", []):
        rate = row.get("items_per_second")
        if rate:
            out[f"micro/{row['name']}"] = float(rate)
    for bench in doc.get("benches", []):
        out.update(metrics_from_bench_report(bench))
    return out


def extract_metrics(doc, path):
    """Normalizes any accepted format into {metric_name: throughput}."""
    if isinstance(doc, dict):
        if doc.get("schema") == SCHEMA:
            return metrics_from_aggregate(doc)
        if "benchmarks" in doc:
            return metrics_from_google_benchmark(doc)
        if "bench" in doc:
            return metrics_from_bench_report(doc)
    raise ValueError(f"{path}: unrecognized benchmark JSON shape")


def main(argv):
    threshold_pct = 10.0
    report_only = False
    min_ratios = []
    positional = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            try:
                threshold_pct = float(arg.split("=", 1)[1])
            except ValueError:
                return fail_usage(f"bad --threshold value in '{arg}'")
            if threshold_pct < 0:
                return fail_usage("--threshold must be >= 0")
        elif arg.startswith("--min_ratio="):
            spec = arg.split("=", 1)[1]
            pattern, sep, ratio_text = spec.rpartition("=")
            if not sep or not pattern:
                return fail_usage(
                    f"bad --min_ratio spec '{spec}' (want PATTERN=RATIO)")
            try:
                ratio = float(ratio_text)
            except ValueError:
                return fail_usage(f"bad --min_ratio ratio in '{spec}'")
            if ratio <= 0:
                return fail_usage("--min_ratio ratio must be > 0")
            min_ratios.append((pattern, ratio))
        elif arg == "--report-only":
            report_only = True
        elif arg.startswith("-"):
            return fail_usage(f"unknown flag {arg}")
        else:
            positional.append(arg)
    if len(positional) != 2:
        return fail_usage("expected exactly two JSON paths")

    try:
        baseline_doc = load_json(positional[0])
        baseline = extract_metrics(baseline_doc, positional[0])
        bounds = row_bounds(baseline_doc)
        candidate = extract_metrics(load_json(positional[1]), positional[1])
    except ValueError as err:
        print(f"compare_bench: {err}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"compare_bench: no metrics in {positional[0]}", file=sys.stderr)
        return 2

    regressions = []
    shared = sorted(set(baseline) & set(candidate))
    width = max((len(name) for name in shared), default=10)
    print(f"{'metric':<{width}}  {'baseline':>14}  {'candidate':>14}  delta")
    for name in shared:
        old, new = baseline[name], candidate[name]
        delta_pct = (new - old) / old * 100.0
        marker = ""
        if delta_pct < -bounds.get(name, threshold_pct):
            marker = "  << REGRESSION"
            regressions.append((name, delta_pct))
        print(f"{name:<{width}}  {old:>14.3e}  {new:>14.3e}  "
              f"{delta_pct:+7.1f}%{marker}")
    for name in sorted(set(baseline) - set(candidate)):
        print(f"{name:<{width}}  {baseline[name]:>14.3e}  {'-':>14}  "
              "(missing from candidate)")
    for name in sorted(set(candidate) - set(baseline)):
        print(f"{name:<{width}}  {'-':>14}  {candidate[name]:>14.3e}  "
              "(new metric)")

    gate_failures = []
    for pattern, ratio in min_ratios:
        matched = [name for name in shared if pattern in name]
        if not matched:
            print(f"compare_bench: --min_ratio pattern '{pattern}' matches "
                  "no shared metric (renamed benchmark?)", file=sys.stderr)
            return 2
        for name in matched:
            achieved = candidate[name] / baseline[name]
            if achieved < ratio:
                gate_failures.append((name, ratio, achieved))

    if gate_failures:
        print(f"\n{len(gate_failures)} --min_ratio gate(s) missed "
              "(hard failure, not suppressed by --report-only):",
              file=sys.stderr)
        for name, ratio, achieved in gate_failures:
            print(f"  {name}: required >= {ratio:g}x baseline, "
                  f"achieved {achieved:.2f}x", file=sys.stderr)
    if regressions:
        print(f"\n{len(regressions)} metric(s) slower than baseline by more "
              f"than {threshold_pct:g}%:", file=sys.stderr)
        for name, delta_pct in regressions:
            print(f"  {name}: {delta_pct:+.1f}%", file=sys.stderr)
        if report_only and not gate_failures:
            print("(--report-only: not failing)", file=sys.stderr)
            return 0
    if gate_failures or (regressions and not report_only):
        return 1
    if not shared:
        print("note: no shared metrics between the two files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
