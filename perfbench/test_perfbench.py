#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

They build the driver (as run.py does), run its self-test (which runs
every workload at a reduced input size), run every workload once at
full size in both modes, and check the result lines against
BENCHMARK.json and the result contract.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_py(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract(self):
        doc = spec()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds",
                                    "workloads", "end_to_end",
                                    "per_layer"})
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         ["static_sweep", "migration_mix",
                          "service_storm"])
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        names += [w["name"] for w in doc["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(1 <= doc["run_seconds"] <= 60)


class DriverTest(unittest.TestCase):
    def test_selftest(self):
        done = run_py("--selftest")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("selftest passed", done.stdout)

    def test_every_workload_in_both_modes(self):
        doc = spec()
        for workload in doc["workloads"]:
            digests = set()
            for trace, listed in (("0", doc["end_to_end"]),
                                  ("1", doc["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    done = run_py("--workload", workload["name"],
                                  "--seed", "3", "--seconds", "0",
                                  "--trace", trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    lines = done.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        [(n, m["unit"]) for n, m in
                         result["metrics"].items()],
                        [(m["name"], m["unit"]) for m in listed])
                    digests.update(line for line in lines
                                   if line.startswith("sim_digest "))
            # The traced run simulates exactly what the untraced one does.
            self.assertEqual(len(digests), 1, digests)

    def test_refuses_without_sources(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=ROOT / ".bench_out") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_py("--workload", "static_sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
