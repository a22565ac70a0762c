#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json and the interaction map agree, then smoke-runs
every workload at a tiny size, untraced and traced, and checks that each
run passes its output checks and prints exactly the metrics that
BENCHMARK.json names, with their units.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Requests per smoke run: enough for every check (chaos must still crash,
# retry and fail over), small enough to finish in seconds.
TINY = {"day_pooled": 2000, "day_p2c": 2000, "fresh_inputs": 200, "chaos": 2000}


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--requests", str(TINY[workload])]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.strip().splitlines()[-2:]]


class Spec(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        bench = load("BENCHMARK.json")
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_run_py(self):
        sys.path.insert(0, HERE)
        import run as bench_run

        names = [w["name"] for w in load("BENCHMARK.json")["workloads"]]
        self.assertEqual(tuple(names), bench_run.WORKLOADS)
        self.assertEqual(set(names), set(TINY))

    def test_interaction_map_covers_every_per_layer_metric(self):
        bench = load("BENCHMARK.json")
        rows = load("perfbench/interactions.json")["per_layer"]
        workloads = {w["name"] for w in bench["workloads"]}
        targets = {m["name"] for m in bench["end_to_end"]} | {"host.parallel_sim_ips"}
        self.assertEqual([r["metric"] for r in rows], [m["name"] for m in bench["per_layer"]])
        for row in rows:
            for metric, on in row["moves"].items():
                self.assertIn(metric, targets)
                self.assertTrue(set(on) <= workloads, row)


class Smoke(unittest.TestCase):
    def check(self, trace, section):
        bench = load("BENCHMARK.json")
        units = {m["name"]: m["unit"] for m in bench[section]}
        for workload in TINY:
            with self.subTest(workload=workload):
                context, result = run(workload, trace)
                self.assertEqual(context["context"]["workload"], workload)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], context)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(len(context["context"]["digest"]), 1)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, units)
                for name, value in result["metrics"].items():
                    self.assertRegex(name, NAME)
                    self.assertIsInstance(value["value"], (int, float))

    def test_untraced_runs_print_the_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_runs_print_the_per_layer_metrics(self):
        self.check(1, "per_layer")


class Aggregation(unittest.TestCase):
    def test_runs_that_all_fail_print_no_result(self):
        sys.path.insert(0, HERE)
        import run as bench_run

        failing = [{"errors": ["check"], "offered": 10, "served": 10}, None]
        self.assertIsNone(bench_run.end_to_end(failing, 20))
        self.assertIsNone(bench_run.per_layer(failing, failing))

    def test_served_frac_pools_requests_over_runs(self):
        sys.path.insert(0, HERE)
        import run as bench_run

        ok = {"errors": [], "offered": 10, "served": 9, "sim_ips": 1.0, "peak_rss_mb": 1.0,
              "setup_s": 1.0, "chase_s": 1.0, "draws_s": 1.0}
        bad = dict(ok, errors=["check"])
        # One check-failed run of three loses its 10 requests: (9 + 9) / 30.
        self.assertAlmostEqual(bench_run.end_to_end([ok, bad, ok], 30)["served_frac"], 0.6)


if __name__ == "__main__":
    unittest.main()
