#!/usr/bin/env python3
"""Tests of the whole-job benchmark itself: that it measures the real
program, that its output checks fire, and that its trace inputs are
deterministic. Run from the repository root:

    python3 -m unittest e2ebench/test_e2ebench.py
"""
import contextlib
import copy
import filecmp
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BINARY = run.build()


@functools.lru_cache(maxsize=None)
def child(mode, workload, seed=run.DEFAULT_SEED, seconds=0):
    """The harness's raw record; cached, so callers that change it copy it."""
    return run.run_child(BINARY, mode, workload, seed, seconds)


def bench(*args):
    """run.py as the driver calls it; returns (result JSON, stdout, stderr)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout, proc.stderr


class SelfTest(unittest.TestCase):
    def test_split_path_and_mirror_match_runner_execute(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                d = child("run", workload, seed=7)
                self.assertTrue(d["selftest"])
                for r in d["selftest"]:
                    self.assertEqual(r["split_digest"], r["exec_digest"], r["key"])
                    self.assertEqual(r["mirror"], r["exec"], r["key"])
                    if "twin" in r:
                        self.assertEqual(r["twin"], r["exec"], r["key"])
                checker = run.Checker(workload, 7, run.load_digests(
                    os.path.join(HERE, "expected_digests.txt")))
                checker.self_test(d["selftest"])
                attempted, metrics = run.end_to_end(d, checker)
                self.assertEqual(checker.failures, [])
                self.assertEqual(set(metrics), set(run.END_TO_END_UNITS))


class OutputCheck(unittest.TestCase):
    def test_recorded_digests_pass_at_default_seed(self):
        result, _, _ = bench("--workload", "fig7-8T", "--seed", "1", "--seconds", "0")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_corrupted_digest_fails_the_job_and_names_it(self):
        victim = "8T_01|M-BT|1024"
        table = run.load_digests(os.path.join(HERE, "expected_digests.txt"))
        table[("fig7-8T", "full", victim)] = "0" * 16
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            correct, attempted, failed, _ = run.run_workload(BINARY, "fig7-8T", 1, 0, 0, table)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (8, 1))
        self.assertIn(f"FAILED {victim}: full CSV digest", stderr.getvalue())
        self.assertIn("failed_job_ratio 1/8", stdout.getvalue())

    def test_twin_mismatch_fails_the_job(self):
        d = child("run", "fig7-2T-timed", seed=3)
        bad = copy.deepcopy(d)
        bad["twins"][0]["counters"]["repartitions"] += 1
        checker = run.Checker("fig7-2T-timed", 3, {})
        run.end_to_end(bad, checker)
        self.assertEqual([k for k, _ in checker.failures], [bad["twins"][0]["key"]])
        self.assertIn("functional twin", checker.failures[0][1])


class TraceInputs(unittest.TestCase):
    def record(self, seed, out):
        subprocess.run([BINARY, "record-traces", "--workload", "trace-4T", "--seed", str(seed),
                        "--tmp", out], check=True, stdout=subprocess.DEVNULL, timeout=120)
        return sorted(os.listdir(out))

    def test_same_seed_same_bytes_other_seed_differs(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            a, b, c = (os.path.join(tmp, n) for n in "abc")
            names = self.record(5, a)
            self.assertEqual(len(names), 8)
            self.assertEqual(self.record(5, b), names)
            self.assertEqual(self.record(6, c), names)
            _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []))
            _, mismatch, _ = filecmp.cmpfiles(a, c, names, shallow=False)
            self.assertEqual(sorted(mismatch), names)

    def test_no_core_wraps_before_its_quota(self):
        d = child("trace", "trace-4T", seed=1)
        self.assertEqual([j["wraps"] for j in d["jobs"]], [0] * len(d["jobs"]))

    def test_a_wrap_fails_the_job(self):
        d = copy.deepcopy(child("trace", "trace-4T", seed=1))
        d["jobs"][0]["wraps"] = 1
        checker = run.Checker("trace-4T", 1, run.load_digests(
            os.path.join(HERE, "expected_digests.txt")))
        checker.self_test(d["selftest"])
        run.per_layer(d, checker)
        self.assertEqual([k for k, _ in checker.failures], [d["jobs"][0]["key"]])
        self.assertIn("wraps before the quota", checker.failures[0][1])


class TracedRun(unittest.TestCase):
    def test_no_job_has_a_negative_tracing_overhead(self):
        # Beyond the job's own spread: the mirror is one run, and host noise
        # alone can put it a little under the fastest untraced repeat.
        for workload in ("fig7-2T-timed", "trace-4T"):
            jobs = child("trace", workload, seed=1)["jobs"]
            for j in jobs:
                base = j["twin_wall_s"] if j["timed"] else j["wall_s"]
                self.assertGreaterEqual(run.tracing_overhead(j), min(base) - max(base), j["key"])
            self.assertGreater(sum(run.tracing_overhead(j) for j in jobs), 0.0, workload)

    def test_timed_overhead_is_taken_against_the_functional_twin(self):
        # The mirror drives the functional loop; the timed overlay is not
        # tracing overhead.
        j = {"timed": True, "mirror_wall_s": 1.1, "wall_s": [1.3, 1.2, 1.4],
             "twin_wall_s": [1.05, 1.0, 1.02]}
        self.assertAlmostEqual(run.tracing_overhead(j), 0.1)
        j["timed"] = False
        self.assertAlmostEqual(run.tracing_overhead(j), -0.1)


if __name__ == "__main__":
    unittest.main()
