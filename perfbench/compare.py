#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage:

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

BASE_DIR and NEW_DIR hold the result files run.py writes to .bench_results
(<workload>-seed<n>-trace<0|1>.json), one directory per commit. For every
workload and end-to-end metric it prints both medians, the change, the
run-to-run spread (interquartile range over median) and a verdict:

    better      the new median is better by more than the base spread
    unchanged   worse by no more than the metric's bound
    WORSE       worse by more than the bound
    unresolved  a side's spread is wider than the bound, so the bound cannot
                be judged (unless every new run beats every base run)

Per-layer medians from the traced runs follow, grouped by the layer each
metric belongs to. Exits 1 when any end-to-end metric is WORSE.
"""
import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict


def load_runs(directory, trace):
    """{workload: [result, ...]} for the runs of one mode in `directory`."""
    runs = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, f"*-trace{trace}.json"))):
        with open(path) as f:
            result = json.load(f)
        runs[result["workload"]].append(result)
    return runs


def values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def spread(vals):
    """Interquartile range over median, as statistics.quantiles gives it."""
    if len(vals) < 2:
        return float("inf")
    med = statistics.median(vals)
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


def verdict(base, new, bound, lower_is_better):
    b_med, n_med = statistics.median(base), statistics.median(new)
    change = (n_med - b_med) / abs(b_med) if b_med else 0.0
    worse_by = change if lower_is_better else -change
    if lower_is_better:
        dominates = max(new) < min(base)
    else:
        dominates = min(new) > max(base)
    if max(spread(base), spread(new)) > bound:
        return change, "better" if dominates else "unresolved"
    if worse_by > bound:
        return change, "WORSE"
    if -worse_by > spread(base):
        return change, "better"
    return change, "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(os.path.dirname(
                        os.path.abspath(__file__))), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)

    worse = 0
    base_e2e, new_e2e = load_runs(args.base, 0), load_runs(args.new, 0)
    print(f"{'workload':18s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>13s} {'bound':>6s}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            base = values(base_e2e.get(w["name"], []), m["name"])
            new = values(new_e2e.get(w["name"], []), m["name"])
            if not base or not new:
                print(f"{w['name']:18s} {m['name']:20s} {'(no runs)':>12s}")
                continue
            change, v = verdict(base, new, m["bound"], m["better"] == "lower")
            worse += v == "WORSE"
            print(f"{w['name']:18s} {m['name']:20s} {statistics.median(base):12.5g} "
                  f"{statistics.median(new):12.5g} {change:+8.1%} "
                  f"{spread(base):6.3f}/{spread(new):6.3f} {m['bound']:6.2f}  {v}"
                  f"  (n={len(base)}/{len(new)})")

    base_layer, new_layer = load_runs(args.base, 1), load_runs(args.new, 1)
    for w in spec["workloads"]:
        base, new = base_layer.get(w["name"], []), new_layer.get(w["name"], [])
        if not base or not new:
            continue
        print(f"\nper-layer medians, {w['name']} (traced runs: {len(base)} base, {len(new)} new)")
        by_module = defaultdict(list)
        for name, metric in new[0]["metrics"].items():
            by_module[metric["module"]].append(name)
        for module in sorted(by_module):
            print(f"  [{module}]")
            for name in sorted(by_module[module]):
                b, n = values(base, name), values(new, name)
                if not b or not n:
                    continue
                b_med, n_med = statistics.median(b), statistics.median(n)
                change = f"{(n_med - b_med) / abs(b_med):+8.1%}" if b_med else "     n/a"
                unit = new[0]["metrics"][name]["unit"]
                print(f"    {name:36s} {b_med:12.5g} -> {n_med:12.5g} {unit:6s} {change}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
