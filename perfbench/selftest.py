#!/usr/bin/env python3
"""Self-tests of the benchmark: every workload at its shortest length.

    python3 perfbench/selftest.py [-v]

Checks the result-line contract (keys, metric names and units against
BENCHMARK.json) untraced and traced for every workload, that forcing
undetermined SVAs through the public conflict budget (0) is reported as
incorrect with a nonzero failed fraction, and that the command fails
without printing a result when only BENCHMARK.json and the benchmark's
own files are present. Takes about two minutes on a 4-CPU host.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT, env=None):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace),
                              *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Contract(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        spec = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in spec])
        for m in spec:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if trace:
            self.assertEqual(res["metrics"]["ops_failed_frac"]["value"], 0)
            self.assertGreater(res["metrics"]["trace.spans"]["value"], 0)
            self.assertGreater(
                res["metrics"]["host.probe_samples"]["value"], 0)
        return res

    def test_workloads(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_sat_counts_repeat_at_jobs_1(self):
        a = self.check("synth_cold_seq", 1)["metrics"]
        b = self.check("synth_cold_seq", 1)["metrics"]
        for name in ("sat.conflicts", "sat.propagations"):
            self.assertEqual(a[name]["value"], b[name]["value"], name)


class Failures(unittest.TestCase):
    def test_forced_unknowns_are_reported(self):
        proc = run("synth_cold_par", 1, "--conflict-budget", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result_of(proc)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertGreater(res["metrics"]["ops_failed_frac"]["value"], 0)
        self.assertIn("undetermined or degraded", proc.stderr)

    def test_fails_without_the_program_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in BENCH["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
        try:
            proc = run("litmus_campaign", 0, cwd=bare, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
