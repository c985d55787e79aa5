#!/usr/bin/env python3
"""Self-test of the benchmark: determinism of the simulated-output digest
and the shape of the result line.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py (the first run compiles it), then:
  * the same seed gives the same digest in two separate processes;
  * a different seed gives a different digest on star64 and bulk16_loss,
    and the same one on paper_sweep (whose seed only orders its cells);
  * the traced run reproduces the untraced run's digest, so the
    observe-only seam and the attached Tracer leave the simulation unchanged;
  * the last stdout line carries exactly the result keys and the metrics
    BENCHMARK.json names;
  * bad arguments exit non-zero without a result.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace=0):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d exited %d" % (workload, seed, proc.returncode))
    lines = proc.stdout.splitlines()
    digest = [l.split()[1] for l in lines if l.startswith("digest ")]
    return digest[0], json.loads(lines[-1])


class DigestTest(unittest.TestCase):
    def test_same_seed_same_digest_across_processes(self):
        for workload in ("paper_sweep", "star64", "bulk16_loss"):
            a, result = run(workload, 5)
            b, _ = run(workload, 5)
            self.assertEqual(a, b, workload)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)

    def test_seed_changes_digest_where_it_changes_inputs(self):
        self.assertNotEqual(run("star64", 5)[0], run("star64", 6)[0])
        self.assertNotEqual(run("bulk16_loss", 5)[0], run("bulk16_loss", 6)[0])
        self.assertEqual(run("paper_sweep", 5)[0], run("paper_sweep", 6)[0])

    def test_traced_run_reproduces_untraced_digest(self):
        untraced, _ = run("bulk16_loss", 7, trace=0)
        traced, result = run("bulk16_loss", 7, trace=1)
        self.assertEqual(untraced, traced)
        self.assertTrue(result["correct"])


class ResultShapeTest(unittest.TestCase):
    def check(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})

    def test_end_to_end_metrics(self):
        _, result = run("star64", 3)
        self.check(result, [m["name"] for m in SPEC["end_to_end"]])
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name])
            self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_and_shares(self):
        _, result = run("paper_sweep", 3, trace=1)
        self.check(result, [m["name"] for m in SPEC["per_layer"]])
        shares = [m["value"] for name, m in result["metrics"].items()
                  if name.endswith(".share")]
        self.assertAlmostEqual(sum(shares), 1.0, places=9)

    def test_bad_arguments_fail_without_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "star64", "--seed", "1", "--seconds", "1", "--trace", "2"]):
            proc = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, timeout=600)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
