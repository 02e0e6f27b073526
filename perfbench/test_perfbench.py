"""The benchmark's own tests.

Every workload runs on a tiny input with every check on, traced and
untraced; then one output per workload is corrupted (a byte of a saved
.smtr, a cell of a query table, a record of the live archive) and the
check must count it as failed. Run from the checkout root:

    python3 -m unittest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "1",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[section]]


class TinyWorkloads(unittest.TestCase):
    def test_every_check_passes_on_every_workload(self):
        for workload in ("record", "query", "live"):
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--trace", trace,
                                 "--tiny")
                    result = result_of(proc)
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(declared(section)))
                    if trace == "1":
                        self.assertIn("the states query reproduces",
                                      proc.stdout)

    def test_corrupted_output_raises_failed_ratio(self):
        for workload, damage in (("record", "smtr"), ("query", "table"),
                                 ("live", "archive")):
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--trace", "0",
                             "--tiny", "--corrupt", damage)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                ratio = [line for line in proc.stdout.splitlines()
                         if line.split()[:1] == ["failed_ratio"]]
                self.assertEqual(len(ratio), 1, proc.stdout)
                self.assertGreater(float(ratio[0].split()[1]), 0.0)

    def test_fails_without_the_monitoring_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        scratch = os.path.join(ROOT, ".bench_work")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "record", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
