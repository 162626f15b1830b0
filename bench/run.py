"""tetindex benchmark: CLI-level workloads, checked against golden outputs.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client sends the seeded job list to a worker process,
which runs each job through ``tetindex.cli.run``; the next job goes out
only after the previous answer is back.  Every pass starts fresh
interpreters, so all caches start cold.

--trace 0 repeats passes for about S seconds, at least two.  In each
pass every job also runs, right before or after, on a frozen copy of the
seed code in a second worker.  The end-to-end times are divided by that
copy's, which cancels the drift of the host's speed.  --trace 1 makes one
untraced and two traced passes and reports the per-layer metrics; the two
traced passes must agree on every count.  Every job's output is checked
either way.  The last line of stdout is one JSON object; a readable
report and the environment go to stderr, and the full record to
.bench_out/.

Metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
REF_SRC = BENCH / "seed_ref"  # byte-identical copy of src/tetindex at the seed commit
OUT_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 170  # every run must end well within 180 s
MIN_PASSES = 2
SETUPS_PER_PASS = 5
IND41_H10 = [1, 0, -8, 0, -9, 0, 18, 0, 46, 0]  # 1 - 8q - 9q^2 + 18q^3 + 46q^4

# spans and counters each workload must exercise; a zero here means a
# wrapper bound at the wrong site, not a fast program
SERIES = ["series.mul", "series.inverse", "series.add", "series.qpoch"]
INDEX = ["tetrahedron.tet_index", "tetrahedron.tet_term", "cli.run"]
BOUNDS = ["tetrahedron.min_degree_bound", "tetrahedron.analytic_degree_lb"]
REQUIRED = {
    "kernel-highprec": SERIES + INDEX,
    "verify-sweep": INDEX + BOUNDS + ["identities.charge_product", "identities.window",
                                      "identities.check", "bailey.verify"],
    "knot-lattice": SERIES + INDEX + BOUNDS + ["lattice.eval"],
}
LAYERS = ("series", "tetrahedron", "identities", "lattice", "bailey", "cli")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- passes -------------------------------------------------------------------


class Worker:
    """A fresh worker process; `ask` sends one job and waits for its answer."""

    def __init__(self, src, deadline, trace_file=None):
        cmd = [sys.executable, "-I", str(BENCH / "worker.py"), str(src)]
        if trace_file is not None:
            cmd.append(str(trace_file))
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if ready.strip() != "ready":
            self.__exit__()
            raise BenchError(f"worker for {src} did not start")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def ask(self, argv) -> dict:
        try:
            self.proc.stdin.write(json.dumps(argv) + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise BenchError(f"worker died: {exc}") from exc
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("worker died")
        return json.loads(line)

    def finish(self) -> dict:
        """End the input and return the worker's final line."""
        try:
            self.proc.stdin.close()
        except OSError as exc:
            raise BenchError(f"worker died: {exc}") from exc
        tail = self.proc.stdout.read().splitlines()
        if self.proc.wait() != 0 or not tail:
            raise BenchError(f"worker failed (exit {self.proc.returncode})")
        return json.loads(tail[-1])


def run_pass(jobs, deadline, reference=False, parity=0, trace_file=None) -> dict:
    """Run `jobs` in a fresh worker, one after another.

    With `reference`, a second fresh worker runs the frozen seed copy, and
    each job runs on both back to back; which side goes first alternates
    from job to job, starting with the seed copy when `parity` is 1.
    """
    with Worker(SRC, deadline, trace_file) as cur:
        answers, ref_ns = [], []
        if reference:
            with Worker(REF_SRC, deadline) as ref:
                for i, job in enumerate(jobs):
                    ref_first = (i + parity) % 2 == 1
                    if ref_first:
                        ref_ns.append(ref.ask(job["argv"])["ns"])
                    answers.append(cur.ask(job["argv"]))
                    if not ref_first:
                        ref_ns.append(ref.ask(job["argv"])["ns"])
                ref.finish()
        else:
            answers = [cur.ask(job["argv"]) for job in jobs]
        final = cur.finish()
    return {"setup_s": cur.setup_s, "jobs": answers, "ref_ns": ref_ns,
            "wall_s": sum(a["ns"] for a in answers) / 1e9, **final}


# -- correctness --------------------------------------------------------------


def series_digest(series: dict) -> str:
    text = json.dumps(series, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _coeff(series: dict, h: int) -> int:
    i = h - series["lead_half_exp"]
    return int(series["coeffs"][i]) if i >= 0 else 0


def is_truncation(low: dict, high: dict) -> bool:
    """True iff `low` is `high` cut at low's precision."""
    top = low["prec_half_exp"]
    if top > high["prec_half_exp"]:
        return False
    start = min(low["lead_half_exp"], high["lead_half_exp"])
    return all(_coeff(low, h) == _coeff(high, h) for h in range(start, top))


def check_job(key: str, res: dict, expected: dict | None):
    """(failure message or None, parsed series or None) for one job."""
    if expected is None:
        return f"{key}: no golden output", None
    if res["code"] != expected["code"]:
        return f"{key}: exit {res['code']}, expected {expected['code']} {res['err']!r}", None
    if "digest" not in expected and "reports" not in expected:
        return (f"{key}: unexpected output" if res["out"] else None), None
    try:
        record = json.loads(res["out"])
    except ValueError:
        return f"{key}: output is not JSON", None
    if "reports" in expected:
        reports = record.get("reports", [])
        if len(reports) != expected["reports"] or not all(r["holds"] for r in reports):
            return f"{key}: identity reports differ from golden", None
        return None, None
    series = record.get("series")
    if series is None or series_digest(series) != expected["digest"]:
        return f"{key}: series differs from golden", None
    if key == "ind41 --prec 10" and [_coeff(series, h) for h in range(10)] != IND41_H10:
        return f"{key}: not the figure-eight coefficients 1, -8, -9, 18, 46", None
    return None, series


def check_pass(jobs, results, golden) -> list[str]:
    """One message per failed job of a pass."""
    failures, ladders = [], {}
    for job, res in zip(jobs, results):
        key = " ".join(job["argv"])
        why, series = check_job(key, res, golden.get(key))
        if why is not None:
            failures.append(why)
        elif job["ladder"]:
            ladders.setdefault(job["ladder"], []).append((key, series))
    for steps in ladders.values():
        for (low_key, low), (_, high) in zip(steps, steps[1:]):
            if not is_truncation(low, high):
                failures.append(f"{low_key}: not a truncation of the next ladder step")
    return failures


# -- metrics ------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(passes, setups) -> tuple[dict, dict]:
    """Medians over the passes of a run.

    The *_vs_seed metrics divide by the frozen seed copy, measured job by
    job in the same pass: the host's speed drifts by tens of percent over
    seconds to minutes, and both sides of a ratio see nearly the same
    drift.  job_p50_vs_seed is the median job's slowdown, the median of
    the per-job ratios, which pairs each job with its own seed run.
    """
    lat = [[a["ns"] / 1e6 for a in p["jobs"]] for p in passes]
    ref = [[ns / 1e6 for ns in p["ref_ns"]] for p in passes]
    pairs = list(zip(lat, ref))
    metrics = {
        "setup_s": _median(setups),
        "wall_vs_seed": _median([sum(x) / sum(r) for x, r in pairs]),
        "job_p50_vs_seed": _median([_median([a / b for a, b in zip(x, r)]) for x, r in pairs]),
        "job_max_vs_seed": _median([max(x) / max(r) for x, r in pairs]),
        "peak_rss_mb": _median([p["rss_mb"] for p in passes]),
    }
    extra = {
        "jobs_per_pass": len(lat[0]),
        "passes": len(passes),
        "setups": len(setups),
        "wall_s": _median([sum(x) / 1e3 for x in lat]),
        "job_p50_ms": _median([_median(x) for x in lat]),
        "job_max_s": _median([max(x) / 1e3 for x in lat]),
        "seed_wall_s": _median([sum(r) / 1e3 for r in ref]),
    }
    if len(lat[0]) >= 100:  # at least ten samples beyond the 90th percentile
        extra["job_p90_ms"] = _median([_quantile(x, 0.9) for x in lat])
        extra["job_p90_vs_seed"] = _median([_quantile(x, 0.9) / _quantile(r, 0.9)
                                            for x, r in pairs])
    extra.update({"pass_wall_s": [sum(x) / 1e3 for x in lat],
                  "pass_seed_wall_s": [sum(r) / 1e3 for r in ref],
                  "setup_samples_s": setups, "job_ms": lat, "seed_job_ms": ref})
    return metrics, extra


def counts_of(summary: dict) -> dict:
    """Everything in a trace summary that must repeat exactly."""
    return {
        "calls": {name: agg[0] for name, agg in summary["spans"].items()},
        **{key: summary[key] for key in ("counts", "windows", "boxes", "bailey_windows")},
    }


def per_layer(s1: dict, s2: dict, overhead: float) -> tuple[dict, dict]:
    agg, counts = s1["spans"], s1["counts"]

    def calls(name):
        return agg.get(name, [0, 0])[0]

    def self_s(name):
        return (s1["spans"].get(name, [0, 0])[1] + s2["spans"].get(name, [0, 0])[1]) / 2e9

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0

    windows = s1["windows"]
    boxes = [extent for _, extent, _ in s1["boxes"]]
    bailey = [extent for *_, extent in s1["bailey_windows"]]
    index_calls = calls("tetrahedron.tet_index")
    metrics = {f"{name}.self_s": self_s(name) for name in agg}
    metrics.update({f"{name}.calls": calls(name) for name in agg})
    metrics.update({f"{name}.calls": counts.get(name, 0) for name in spans.COUNTED})
    metrics.update({
        "series.mul.coeff_ops": counts.get("series.mul.coeff_ops", 0),
        "series.inverse.coeff_ops": counts.get("series.inverse.coeff_ops", 0),
        "tetrahedron.tet_index.cache_hit_ratio":
            counts.get("tetrahedron.tet_index.hits", 0) / index_calls if index_calls else 0,
        "tetrahedron.min_degree_bound.series_evals":
            counts.get("tetrahedron.min_degree_bound.series_evals", 0),
        "identities.window.count": len(windows),
        "identities.window.extent_max": max(windows, default=0),
        "identities.window.extent_mean": mean(windows),
        "lattice.box_extent_max": max(boxes, default=0),
        "lattice.box_extent_mean": mean(boxes),
        "lattice.points_summed": sum(points for *_, points in s1["boxes"]),
        "bailey.window_count": len(bailey),
        "bailey.window_extent_max": max(bailey, default=0),
        "bailey.window_extent_mean": mean(bailey),
        "trace.overhead_frac": overhead,
    })
    total = sum(self_s(name) for name in agg) or 1.0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(self_s(n) for n in agg if n.split(".")[0] == layer)
    extra = {
        "self_share": {layer: metrics[f"{layer}.self_s"] / total for layer in LAYERS},
        "self_share_by_span": {n: self_s(n) / total for n in sorted(agg)},
        "box_extents": s1["boxes"],
        "bailey_windows": s1["bailey_windows"],
    }
    return metrics, extra


def select(metrics: dict, declared: list[dict]) -> dict:
    """The declared metrics, by name and unit, in BENCHMARK.json's order."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


# -- runs ---------------------------------------------------------------------


def run_untraced(jobs, golden, seconds, deadline):
    passes, setups, failures = [], [], []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        p = run_pass(jobs, deadline, reference=True, parity=len(passes) % 2)
        passes.append(p)
        failures += check_pass(jobs, p["jobs"], golden)
        # spread the set-up samples over the run, like the passes
        setups += [p["setup_s"]] + [run_pass([], deadline)["setup_s"]
                                    for _ in range(SETUPS_PER_PASS - 1)]
        took = time.monotonic() - t0
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_PASSES and elapsed + took > seconds:
            break
    metrics, extra = end_to_end(passes, setups)
    extra["bailey.heuristic_fallbacks"] = sum(r["fallbacks"] for p in passes for r in p["jobs"])
    return metrics, extra, len(jobs) * len(passes), failures


def run_traced(workload, jobs, golden, seed, deadline):
    base = run_pass(jobs, deadline)
    traced = [
        run_pass(jobs, deadline, trace_file=OUT_DIR / f"spans-{workload}-seed{seed}-{i}.json")
        for i in (1, 2)
    ]
    failures = []
    for p in [base] + traced:
        failures += check_pass(jobs, p["jobs"], golden)
    s1, s2 = (p["trace"] for p in traced)
    if counts_of(s1) != counts_of(s2):
        failures.append("two traced passes with the same seed gave different counts")
    overhead = _median([p["wall_s"] for p in traced]) / base["wall_s"] - 1
    metrics, extra = per_layer(s1, s2, overhead)
    for name in REQUIRED[workload]:
        if metrics[f"{name}.calls"] == 0:
            raise BenchError(f"{name} recorded no call on {workload}")
    fallbacks = sum(r["fallbacks"] for p in traced for r in p["jobs"])
    metrics["bailey.heuristic_fallbacks"] = fallbacks
    metrics["cli.output_bytes"] = sum(len(r["out"].encode()) for r in traced[0]["jobs"])
    return metrics, extra, 3 * len(jobs), failures


def environment() -> dict:
    src = ROOT / "src" / "tetindex"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "tetindex" / "__init__.py").is_file():
        print(f"bench: no tetindex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((BENCH / "golden.json").read_text())["jobs"]
    jobs = workloads.jobs(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workloads.write_exprs(ROOT, jobs)

    try:
        if args.trace:
            metrics, extra, attempted, failures = run_traced(
                args.workload, jobs, golden, args.seed, deadline)
            reported = select(metrics, spec["per_layer"])
        else:
            metrics, extra, attempted, failures = run_untraced(
                jobs, golden, args.seconds, deadline)
            reported = select(metrics, spec["end_to_end"])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": reported, "detail": extra,
              "failures": failures}
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    report = sys.stderr
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()), file=report)
    for name, m in reported.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}", file=report)
    for name, value in extra.items():
        if not isinstance(value, (list, dict)):
            print(f"  {name:45s} {value:.6g}", file=report)
    for layer, share in extra.get("self_share", {}).items():
        print(f"  self-time share {layer:28s} {share:.3f}", file=report)
    if metrics.get("bailey.heuristic_fallbacks") or extra.get("bailey.heuristic_fallbacks"):
        print("  bailey bounds: UNCERTIFIED (heuristic scan fallback used)", file=report)
    for why in failures[:20]:
        print(f"  FAIL {why}", file=report)
    print(f"  fail_frac {len(failures) / attempted:.4g} of {attempted} jobs; "
          f"record in {out_file.relative_to(ROOT)}", file=report)

    result = {"correct": not failures, "attempted": attempted,
              "failed": min(len(failures), attempted), "metrics": reported}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
