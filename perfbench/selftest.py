#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Each test runs perfbench/run.py with --tiny (a few workloads, short
traces) and checks one property of the benchmark, not of the program:

  - every metric of BENCHMARK.json prints, by name, with its unit;
  - a corrupted expected golden hash is caught;
  - an `overloaded` refusal from the daemon counts as a failure;
  - two seeds change the call order but not the verified outputs.
"""

import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".bench_build")
PIPESIMD = os.path.join(SCRATCH, "perfbench", "pipedepth", "tools",
                        "pipesimd")
WORKLOADS = ("catalog_cold", "golden_cells")


def run(workload, seed=1, trace=0, *extra):
    """Run one tiny workload; returns (exit code, notes, result)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"] + list(extra),
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    notes = [line[2:] for line in lines if line.startswith("# ")]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return out.returncode, notes, result


def note_field(notes, key):
    """Value after `key` in the "order ... outputs ..." note."""
    for note in notes:
        match = re.search(key + r" ([0-9a-f]{16})", note)
        if match:
            return match.group(1)
    return None


class BenchmarkSelfTest(unittest.TestCase):

    def test_every_metric_prints_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, _, result = run(workload, 1, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed",
                                         "metrics"])
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_corrupted_golden_hash_is_caught(self):
        table = os.path.join(ROOT, "tests", "sweep", "golden_sim_hashes.inc")
        with open(table) as f:
            text = f.read()
        # Flip one digit of the first row's result hash.
        match = re.search(r"\{\"\w+\", \d+, 0x([0-9a-f])", text)
        digit = match.group(1)
        flipped = "0" if digit != "0" else "1"
        corrupt = text[:match.start(1)] + flipped + text[match.end(1):]
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".inc", dir=SCRATCH,
                                         delete=False) as f:
            f.write(corrupt)
        try:
            code, notes, result = run("golden_cells", 1, 0,
                                      "--golden-table", f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any(n.startswith("MISMATCH") for n in notes))

    def test_overloaded_refusal_counts_as_failure(self):
        # The traced catalog run serves its grid from pipesimd as one
        # pipelined burst; a one-slot admission queue refuses some. The
        # wrapper replaces the daemon: a later --daemon wins.
        run("golden_cells")  # builds pipesimd, if no test has yet
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".sh", dir=SCRATCH,
                                         delete=False) as f:
            f.write('#!/bin/sh\nexec "%s" "$@" --max-queue 1\n' % PIPESIMD)
        os.chmod(f.name, os.stat(f.name).st_mode | stat.S_IXUSR)
        try:
            code, notes, result = run("catalog_cold", 1, 1,
                                      "--daemon", f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any(n.startswith("failed: overloaded")
                            for n in notes))

    def test_seed_changes_order_not_outputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = run(workload, 1)
                b = run(workload, 2)
                self.assertEqual((a[0], b[0]), (0, 0))
                self.assertNotEqual(note_field(a[1], "order"),
                                    note_field(b[1], "order"))
                self.assertIsNotNone(note_field(a[1], "outputs"))
                self.assertEqual(note_field(a[1], "outputs"),
                                 note_field(b[1], "outputs"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
