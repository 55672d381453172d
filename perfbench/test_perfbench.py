#!/usr/bin/env python3
"""Tests of the benchmark itself. From the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark through run.py (incremental) and check that
  * the workload generator is a pure function of (workload, seed): the same
    seed gives the same schedule and inputs twice, in one process and across
    processes, and another seed gives other inputs;
  * the allocation counts of one replayed solo decision repeat exactly,
    within a process and across processes;
  * a short run prints a result object with exactly the metrics
    BENCHMARK.json names, in their units, and passes the correctness gate;
  * each split decision's parts and glue add up to its time.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(*args):
    proc = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout


class SelfTest(unittest.TestCase):
    def test_inputs_and_allocation_counts_repeat_across_processes(self):
        code_a, out_a = run("--selftest")
        code_b, out_b = run("--selftest")
        self.assertEqual(code_a, 0, out_a)
        self.assertIn("selftest ok", out_a)
        compared = [l for l in out_a.splitlines() if l.startswith(("inputs ", "allocs "))]
        self.assertEqual(len(compared), 8, out_a)
        self.assertEqual(compared,
                         [l for l in out_b.splitlines() if l.startswith(("inputs ", "allocs "))])


class ResultShape(unittest.TestCase):
    def check(self, trace, kind):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            want = {m["name"]: m["unit"] for m in json.load(f)[kind]}
        code, out = run("--workload", "adapt_vp", "--seed", "3", "--seconds", "2",
                        "--trace", str(trace))
        self.assertEqual(code, 0, out)
        lines = out.strip().splitlines()
        host = json.loads(lines[-2])["host"]
        self.assertEqual(host["seed"], 3)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        return result["metrics"]

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        metrics = self.check(1, "per_layer")
        # Each decision's parts and glue come from the same replayed decision
        # and add up to its time.
        splits = {
            "vp.predict_ms": ["vp.encode_ms", "llm.prefill_ms", "llm.steps_ms", "vp.head_ms",
                              "vp.glue_ms"],
            "abr.choose_ms": ["abr.encode_ms", "llm.forward_ms_abr", "abr.head_ms", "abr.glue_ms"],
            "cjs.choose_ms": ["cjs.gnn_ms", "llm.forward_ms_cjs", "cjs.head_ms", "cjs.glue_ms"],
            "adapt.step_ms": ["adapt.forward_ms", "adapt.backward_ms", "adapt.optim_ms",
                              "adapt.glue_ms"],
        }
        for total, parts in splits.items():
            self.assertAlmostEqual(metrics[total]["value"],
                                   sum(metrics[p]["value"] for p in parts), places=9, msg=total)
            for p in parts:
                self.assertGreaterEqual(metrics[p]["value"], 0.0, p)


if __name__ == "__main__":
    unittest.main(verbosity=2)
