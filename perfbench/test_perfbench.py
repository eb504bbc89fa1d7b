#!/usr/bin/env python3
"""Tests of the perf-ledger benchmark: its output format and its answer checks.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py (first run: about a minute), runs
every workload for one second untraced and graph-analytics traced.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, seconds=1, seed=3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class OutputFormat(unittest.TestCase):
    def check(self, done, declared):
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, done.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        # Operations the program fails (a shed query, a stalled team wave)
        # are reported, not a benchmark error; a wrong answer clears
        # `correct`, checked above.
        self.assertLessEqual(result["failed"], result["attempted"])
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
        return result, json.loads(lines[-2])["provenance"]

    def test_every_workload_untraced(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                result, prov = self.check(run(workload["name"], 0), SPEC["end_to_end"])
                self.assertEqual(prov["workload"], workload["name"])
                # Pinned to one CPU, and the CPU clock ran for most of
                # the timed phase.
                self.assertGreaterEqual(prov["cpu"], 0)
                self.assertGreater(prov["driver.cpu_share"], 0.5)
                self.assertGreater(
                    prov.get("checked_answers", 0) + prov.get("checked_rounds", 0), 0)
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        result, prov = self.check(run("graph-analytics", 1), SPEC["per_layer"])
        for name in ("scaleout.submit_us", "scaleout.watches_notified", "kernel.cc_ms",
                     "msbfs.wave_ms", "dynamic.repair_ms"):
            self.assertGreater(result["metrics"][name]["value"], 0, name)
        spans = json.loads(
            (ROOT / ".bench_build" / "perfbench-out" / "spans-graph-analytics-seed3.json")
            .read_text())["spans"]
        self.assertTrue(any(s["name"] == "scaleout.submit" for s in spans))

    def test_unknown_workload_fails(self):
        done = run("no-such-workload", 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)

    def test_fails_without_the_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


class SelfTests(unittest.TestCase):
    """The C++ self-tests the benchmark's build makes."""

    def self_test(self, name):
        run(SPEC["workloads"][0]["name"], 0)  # builds the self-tests too
        done = subprocess.run([str(ROOT / ".bench_build" / "perfbench" / name)],
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_wrong_answers_are_caught(self):
        self.self_test("perfbench_checks_test")

    def test_failures_and_stalls_degrade_the_figures(self):
        self.self_test("perfbench_ledger_test")


if __name__ == "__main__":
    unittest.main()
