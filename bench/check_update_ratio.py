#!/usr/bin/env python3
"""Bench-smoke ratio guard: fail if the dynamic update path has lost its win.

Reads a google-benchmark JSON file (BENCH_update.json) and asserts that
BM_DynamicUpdate/<n> is at least --min-ratio times faster (per-update wall
time) than BM_StaticRecompute/<n>, so the epoch tax (the work between
updates: index rebuild, rebase; see DESIGN.md §9) cannot silently creep
back. bench/run_bench.sh runs it twice, on a single-thread run
(OMP_NUM_THREADS=1) and on a default-team run, so a parallel path that
loses to the serial one on real cores fails it too.

Usage: check_update_ratio.py BENCH_update.json [--n 32768] [--min-ratio 1.3]
"""
import argparse
import json
import sys


def real_time_us(bench):
    t = bench["real_time"]
    unit = bench.get("time_unit", "ns")
    scale = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}[unit]
    return t * scale


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("json_path")
    ap.add_argument("--n", type=int, default=32768)
    ap.add_argument("--min-ratio", type=float, default=1.3)
    args = ap.parse_args()

    with open(args.json_path) as f:
        data = json.load(f)

    dyn = stat = None
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        if b["name"] == f"BM_DynamicUpdate/{args.n}":
            dyn = real_time_us(b)
        elif b["name"] == f"BM_StaticRecompute/{args.n}":
            stat = real_time_us(b)
    if dyn is None or stat is None:
        print(
            f"check_update_ratio: missing BM_DynamicUpdate/{args.n} or "
            f"BM_StaticRecompute/{args.n} in {args.json_path}",
            file=sys.stderr,
        )
        return 2

    ratio = stat / dyn
    print(
        f"check_update_ratio: static {stat:.1f}us / dynamic {dyn:.1f}us "
        f"= {ratio:.2f}x (required >= {args.min_ratio:.2f}x)"
    )
    if ratio < args.min_ratio:
        print(
            "check_update_ratio: FAIL — the epoch tax crept back "
            f"(ratio {ratio:.2f} < {args.min_ratio:.2f})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
