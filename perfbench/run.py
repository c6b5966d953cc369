#!/usr/bin/env python3
"""Build and run the service benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload update_storm --seed 1 --seconds 10 --trace 0

Builds perfbench/ (Release) into .bench_build/perfbench, runs the perfbench
binary and forwards its report. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"} holding exactly the metrics
BENCHMARK.json names for the mode: its end_to_end metrics when untraced, its
per_layer metrics when traced. The full result (every metric, its sample
count and layer, the run stamp) and, for traced runs, a chrome://tracing
file are written to .bench_results/.

Exits non-zero, without a result line, when the build fails or a metric is
missing; exits non-zero after the result line when the correctness gate
fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(min(os.cpu_count() or 1, 8))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=800)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step failed: {exc}")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return BINARY


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
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
    return "tree-" + digest.hexdigest()[:16]


def contract_line(result, spec, trace):
    """The result line: exactly the spec's metrics for the mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise KeyError(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            raise KeyError(f"metric {m['name']} has unit {got['unit']}, "
                           f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        log(f"cannot read BENCHMARK.json: {exc}")
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    binary = build()
    if binary is None:
        return 3
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS_DIR, "--sha", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        line = contract_line(result, spec, args.trace == 1)
    except (ValueError, KeyError, IndexError) as exc:
        sys.stdout.write(proc.stdout)
        log(f"no usable result (exit {proc.returncode}): {exc}")
        return 5
    for text in lines[:-1]:
        print(text)
    print(json.dumps(line), flush=True)
    if proc.returncode != 0 or not line["correct"]:
        log("correctness gate failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
