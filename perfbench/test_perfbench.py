#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny input sizes.

    python3 perfbench/test_perfbench.py

Each workload runs untraced and traced: every metric named in
BENCHMARK.json is printed, with its unit, and the result is correct.  A run
whose reference count is deliberately off by one must fail the correctness
gate.  A directory holding only the benchmark's own files must make the
command fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra, cwd=ROOT):
    args = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, lines, result


class Workloads(unittest.TestCase):
    def check(self, workload, trace):
        proc, lines, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        report = "\n".join(lines[:-1])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertRegex(report, rf"{workload} +{m['name']} +\S+ {m['unit']}")
        host = json.loads(next(l for l in lines if l.startswith("host "))[5:])
        self.assertEqual(set(host), {"nproc", "cpu_model", "workers", "seed",
                                     "oversubscribed", "verdict"})
        return result

    def test_ppi_count(self):
        self.check("ppi_count", 0)
        self.check("ppi_count", 1)

    def test_serve_mix(self):
        end_to_end = self.check("serve_mix", 0)
        self.assertGreater(end_to_end["metrics"]["queries_per_s"]["value"], 0)
        self.check("serve_mix", 1)


class Gate(unittest.TestCase):
    def test_off_by_one_reference_fails_every_workload(self):
        for workload in ("ppi_count", "serve_mix"):
            proc, _, result = run(workload, 0, "--perturb-reference")
            self.assertNotEqual(proc.returncode, 0, workload)
            self.assertFalse(result["correct"], workload)
            # The perturbed instance's VF2 count moves with its reference,
            # so the failures come from comparing the program's outputs: the
            # instance runs under both schedulers at least once each.
            self.assertGreaterEqual(result["failed"], 2, workload)
            self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0, workload)


class Standalone(unittest.TestCase):
    def test_benchmark_files_alone_fail_without_a_result(self):
        alone = os.path.join(ROOT, ".bench_work", "standalone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            proc, lines, result = run("ppi_count", 0, cwd=alone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
