"""Capture the expected output of every job of every workload universe.

Usage (from the repository root): python3 bench/make_golden.py

Runs each job once through tetindex.cli.run and writes bench/golden.json:
per job its exit code and either the digest of the series, the number of
identity reports (all of which must hold), or nothing for a job that
must exit without output.  Run it only on a commit whose outputs are
trusted; the benchmark compares every later commit against this file.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from run import series_digest  # noqa: E402
from tetindex import cli  # noqa: E402

os.chdir(ROOT)  # job argv name files relative to the repository root


def expected(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv + ["--format", "json"])
    entry = {"code": code}
    if out.getvalue():
        record = json.loads(out.getvalue())
        if record["kind"] == "series":
            entry["digest"] = series_digest(record["series"])
        else:
            if not all(r["holds"] for r in record["reports"]):
                raise SystemExit(f"{' '.join(argv)}: identity does not hold")
            entry["reports"] = len(record["reports"])
    return entry


def main():
    jobs = {}
    for workload in workloads.WORKLOADS:
        universe = workloads.universe(workload)
        workloads.write_exprs(ROOT, universe)
        for job in universe:
            key = " ".join(job["argv"])
            jobs[key] = expected(job["argv"])
            print(workload, key, jobs[key], file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    out = {"captured_at": commit, "jobs": jobs}
    (BENCH / "golden.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
