#!/usr/bin/env python3
"""Self-tests of the closed-loop benchmark.

Runs every workload briefly and checks the determinism contract: on one
seed, two untraced runs and one traced run give identical per-round
counts, op digests and final-utility bits, and a second seed changes
which entities are perturbed but not the problem size, the op count or
the round count.  Also checks the result line of run.py and that the
benchmark refuses to run without the repository's sources.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

# achieved_vs_planned is cumulative from the first enactment, so a
# fanout_loop run needs ~30 rounds to clear its 0.9 floor.
ROUNDS = {"paper_churn": 12, "federated_local": 40, "fanout_loop": 30}
SHAPE_KEYS = ("ops", "flows", "nodes", "classes")


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check(self, workload):
        rounds = ROUNDS[workload]
        first = run.run_binary(self.binary, workload, 7, rounds, False)
        second = run.run_binary(self.binary, workload, 7, rounds, False)
        traced = run.run_binary(self.binary, workload, 7, rounds, True)
        other = run.run_binary(self.binary, workload, 8, rounds, False)
        for doc in (first, second, traced, other):
            self.assertTrue(doc["correct"], doc["gate_failures"])
        # The traced document's fingerprint is its untraced copy's; the
        # binary's gate has already compared the traced copy against it.
        self.assertEqual(first["fingerprint"], second["fingerprint"])
        self.assertEqual(first["fingerprint"], traced["fingerprint"])

        a, b = first["fingerprint"], other["fingerprint"]
        for key in SHAPE_KEYS:
            self.assertEqual(a[key], b[key], key)
        self.assertEqual(len(a["iterations_per_round"]), rounds)
        self.assertEqual(len(b["iterations_per_round"]), rounds)
        self.assertNotEqual(a["ops_digest"], b["ops_digest"])

    def test_paper_churn(self):
        self.check("paper_churn")

    def test_federated_local(self):
        self.check("federated_local")

    def test_fanout_loop(self):
        self.check("fanout_loop")


class ResultLine(unittest.TestCase):
    def run_py(self, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "fanout_loop",
             "--seed", "3", "--seconds", "2", "--trace", str(trace)],
            capture_output=True, text=True, cwd=run.ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_untraced_reports_every_end_to_end_metric(self):
        result = self.run_py(0)
        end_to_end, _ = run.load_catalogue()
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in end_to_end))
        self.assertTrue(result["correct"])

    def test_traced_reports_every_per_layer_metric_and_writes_a_trace(self):
        result = self.run_py(1)
        _, per_layer = run.load_catalogue()
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in per_layer))
        with open(os.path.join(run.build_dir(), "traces", "fanout_loop_seed3.json")) as f:
            trace = json.load(f)
        names = {e["name"] for e in trace["traceEvents"]}
        for name in ("round", "lrgp.step", "lrgp.enact_offer", "fastpath.run", "oracle.solve"):
            self.assertIn(name, names)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = os.path.join(run.build_dir(), "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fanout_loop", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, env=env, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
