"""Tests of the benchmark itself: seeded inputs and the correctness gate.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The perfbench binary is built through run.py first (Release, into
.bench_build).
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

WORKLOADS = ("update_storm", "sharded_sessions")
OUT = os.path.join(run.RESULTS_DIR, "tests")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench failed to build")
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def perfbench(self, *args):
        return subprocess.run([self.binary, *args, "--out", OUT], stdout=subprocess.PIPE,
                              text=True, timeout=170)

    def stream_info(self, workload, seed):
        proc = self.perfbench("--workload", workload, "--seed", str(seed), "--stream-hash")
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def stream_hash(self, workload, seed):
        return self.stream_info(workload, seed)["inputs_hash"]

    def tiny_run(self, workload, trace):
        proc = self.perfbench("--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--tiny")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return proc.returncode, result

    def test_same_seed_gives_identical_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.stream_hash(w, 7), self.stream_hash(w, 7))

    def test_other_seed_gives_other_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(self.stream_hash(w, 7), self.stream_hash(w, 8))

    def test_sharded_cross_inserts_are_stationary(self):
        # tags_by_half: per writer stream and half, counts of
        # [local, cross insert, cross delete, block join].
        halves = self.stream_info("sharded_sessions", 7)["tags_by_half"]
        for first, second in zip(halves[0::2], halves[1::2]):
            total = sum(first)
            self.assertGreater(first[1], 0.07 * total)
            self.assertLess(abs(first[1] - second[1]), 0.05 * first[1])

    def test_tiny_untraced_run_passes_gate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result = self.tiny_run(w, 0)
                self.assertEqual(rc, 0, result.get("violations"))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                line = run.contract_line(result, self.spec, trace=False)
                for name, metric in line["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_tiny_traced_run_emits_every_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result = self.tiny_run(w, 1)
                self.assertEqual(rc, 0, result.get("violations"))
                line = run.contract_line(result, self.spec, trace=True)
                self.assertEqual(set(line["metrics"]),
                                 {m["name"] for m in self.spec["per_layer"]})
                trace = os.path.join(OUT, f"{w}-seed3-trace1.trace.json")
                with open(trace) as f:
                    self.assertTrue(json.load(f))

    def test_contract_line_rejects_a_missing_metric(self):
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        with self.assertRaises(KeyError):
            run.contract_line(result, self.spec, trace=False)


if __name__ == "__main__":
    unittest.main()
