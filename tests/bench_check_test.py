#!/usr/bin/env python3
"""Tests tools/bench_check.py on small fixture documents.

Usage: python3 tests/bench_check_test.py

Every committed baseline under bench/baselines/ must pass against
itself; each kind of broken gate must exit non-zero and name its metric.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "tools", "bench_check.py")

BASELINE = {
    "bench": "fixture",
    "speedup": 10.0,
    "bytes": 100.0,
    "identical": True,
    "runs": [{"mode": "batch", "threads": 1, "rows": 4000},
             {"mode": "batch", "threads": 4, "rows": 9000}],
    "gates": [
        {"metric": "speedup", "better": "higher", "max_regression": 0.5},
        {"metric": "bytes", "better": "lower", "max_regression": 0.1,
         "ceiling": 150},
        {"metric": "identical", "equals": True},
        {"metric": "runs[mode=batch,threads=4].rows", "floor": 5000},
        {"metric": "runs[mode=batch,threads=1].rows",
         "ceiling": "runs[mode=batch,threads=4].rows", "strict": True},
    ],
}


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baseline = self.write("baseline.json", json.dumps(BASELINE))

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, text):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def run_check(self, current, baseline=None):
        return subprocess.run(
            [sys.executable, CHECKER, "--current", current,
             "--baseline", baseline or self.baseline],
            capture_output=True, text=True)

    def check_with(self, mutate):
        doc = json.loads(json.dumps(BASELINE))
        mutate(doc)
        return self.run_check(self.write("current.json", json.dumps(doc)))

    def expect_failure(self, metric, mutate):
        result = self.check_with(mutate)
        self.assertNotEqual(result.returncode, 0, result.stdout)
        self.assertIn("FAIL: " + metric, result.stderr)
        return result

    def test_baseline_passes_against_itself(self):
        result = self.run_check(self.baseline)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("OK (5 gates", result.stdout)

    def test_committed_baselines_pass_against_themselves(self):
        paths = sorted(glob.glob(os.path.join(ROOT, "bench", "baselines",
                                              "*.json")))
        self.assertTrue(paths)
        for path in paths:
            result = self.run_check(path, path)
            self.assertEqual(result.returncode, 0,
                             f"{path}: {result.stderr}")

    def test_within_max_regression_passes(self):
        result = self.check_with(
            lambda d: d.update(speedup=5.0, bytes=110.0))
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_past_max_regression_fails(self):
        self.expect_failure("speedup", lambda d: d.update(speedup=4.99))
        self.expect_failure("bytes", lambda d: d.update(bytes=110.5))

    def test_floor_and_ceiling_breaches_fail(self):
        self.expect_failure("runs[mode=batch,threads=4].rows",
                            lambda d: d["runs"][1].update(rows=4999))
        self.expect_failure("bytes", lambda d: d.update(bytes=151.0))

    def test_strict_bound_read_from_the_run_fails_on_a_tie(self):
        self.expect_failure("runs[mode=batch,threads=1].rows",
                            lambda d: d["runs"][0].update(rows=9000))

    def test_false_equals_fails(self):
        self.expect_failure("identical",
                            lambda d: d.update(identical=False))

    def test_missing_metric_fails(self):
        result = self.expect_failure("speedup", lambda d: d.pop("speedup"))
        self.assertIn("missing", result.stderr)

    def test_run_py_output_is_read_from_its_last_line(self):
        doc = {"correct": True, "failed": 0,
               "metrics": {"decision_accuracy": {"value": 0.8,
                                                 "unit": "ratio"}}}
        baseline = dict(doc, gates=[
            {"metric": "correct", "equals": True},
            {"metric": "metrics.decision_accuracy.value",
             "better": "higher", "max_regression": 0.05}])
        base_path = self.write("pipe_base.json", json.dumps(baseline))
        lines = ["workload plan-offline seed 7: 4 pool workers",
                 "decision_accuracy                  0.8 ratio"]
        good = self.write("good.txt",
                          "\n".join(lines + [json.dumps(doc), ""]))
        result = self.run_check(good, base_path)
        self.assertEqual(result.returncode, 0, result.stderr)

        doc["metrics"]["decision_accuracy"]["value"] = 0.75
        bad = self.write("bad.txt", "\n".join(lines + [json.dumps(doc)]))
        result = self.run_check(bad, base_path)
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("FAIL: metrics.decision_accuracy.value",
                      result.stderr)


if __name__ == "__main__":
    unittest.main()
