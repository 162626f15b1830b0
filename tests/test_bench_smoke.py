"""The benchmark's traced smoke runs: one untraced and two traced passes
of each workload, whatever --seconds says.

A traced run fails when a layer function it wraps by name is gone or no
longer called (bench/run.py's `REQUIRED` spans), or when a job's output
leaves bench/golden.json; a refactor that breaks either fails here."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "workload, seed",
    [("kernel-highprec", 1), ("kernel-highprec", 2), ("knot-lattice", 1), ("verify-sweep", 1)],
)
def test_traced_smoke_run(workload, seed):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *argv],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # bench/run.py exits 0 on wrong output too: its last line says
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] and report["failed"] == 0, report
