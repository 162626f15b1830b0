"""Job tables of the three workloads.

A job is a CLI argv (the worker appends ``--format json``), the ladder's
name for the steps of a precision ladder, and for an ``eval`` of a
generated expression the file's text (``write_exprs`` writes it).  Each
workload draws its jobs from a fixed universe: the seed selects a sample
and an order, and the program only ever sees the resulting argv lists.
``golden.json`` holds the expected output of every job of every universe
(``make_golden.py``).

The samples are stratified and the big jobs are the same for every seed,
so that the amount of work, and with it the timing, hardly depends on
the seed.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("kernel-highprec", "verify-sweep", "knot-lattice")

# kernel-highprec: a charge grid at H 160..240, a rising ladder, one H=1200 job
KERNEL_GRID = [(m, e) for m in range(-5, 6) for e in range(-4, 5) if (m, e) != (0, 0)]
KERNEL_PRECS = (160, 180, 200, 220, 240)
KERNEL_LADDER = [(1, 5, h) for h in (200, 400, 800)]
KERNEL_TOP = (0, 0, 1200)

# verify-sweep: the acceptance sweeps, sampled, plus one Bailey chain per depth
PENTAGON = list(itertools.product(range(-2, 3), repeat=4))
SHIFTED = list(itertools.product(range(-1, 2), repeat=5))
TRIALITY = [(m, e) for m in range(-6, 7) for e in range(-6, 7)]
SAMPLES = {"pentagon": 100, "shifted": 40, "triality": 60, "lattice_pentagon": 24}
# (n0, t, steps): two chains of similar cost per depth 2, 3, 4
BAILEY_MENU = (
    ((0, 1, (1, -1)), (1, 0, (-1, 1))),
    ((-1, 0, (1, -1, 1)), (1, 1, (0, -1, 1))),
    ((0, 1, (1, -1, 2, 0)), (0, -1, (1, 1, -1, 0))),
)

# knot-lattice: pentagon right-hand sides as rank-1 lattice sums (many
# short jobs, so the median job is not one of the big ones; they run first,
# so that their cost does not depend on where the big ones fall), then the
# ind41 ladder, a rank-3 sum and a divergent sum
IND41_LADDER = (10, 40, 80)
RANK3 = ["eval", "--file", "bench/exprs/rank3.txt", "--prec", "6"]
DIVERGENT = ["eval", "--file", "bench/exprs/divergent.txt", "--prec", "10"]
EXPR_DIR = ".bench_out/exprs"


def _tet(m, e, prec):
    return ["tet", "-m", str(m), "-e", str(e), "--prec", str(prec)]


def _pentagon(m1, m2, e1, e2):
    return ["pentagon", "--m1", str(m1), "--m2", str(m2),
            "--e1", str(e1), "--e2", str(e2), "--prec", "8"]


def _shifted(m1, m2, e1, e2, e0):
    return ["pentagon", "--shifted", "--m1", str(m1), "--m2", str(m2),
            "--e1", str(e1), "--e2", str(e2), "--e0", str(e0), "--prec", "8"]


def _triality(m, e):
    return ["triality", "-m", str(m), "-e", str(e), "--prec", "12"]


def _bailey(n0, t, steps):
    # the equals form keeps a leading minus from reading as a flag
    return ["bailey", "--n0", str(n0), "--t", str(t),
            "--steps=" + ",".join(map(str, steps)), "--m-range=-2..2", "--prec", "8"]


def _ind41(prec):
    return ["ind41", "--prec", str(prec)]


def _shift(c):
    return "e3" if c == 0 else f"e3 {'+' if c > 0 else '-'} {abs(c)}"


def _lattice_pentagon(m1, m2, e1, e2):
    """eval of the pentagon right-hand side, written in the lattice DSL."""
    text = (f"sum e3 : q^(e3) * I({m1}, {_shift(e1)}) * I({m2}, {_shift(e2)})"
            f" * I({m1 + m2}, e3)\n")
    path = f"{EXPR_DIR}/pentagon-rhs_{m1}_{m2}_{e1}_{e2}.txt"
    return {"argv": ["eval", "--file", path, "--prec", "8"], "ladder": None,
            "expr": text}


def _job(argv, ladder=None):
    return {"argv": argv, "ladder": ladder}


def write_exprs(root, jobs) -> None:
    """Write the expression files that `jobs` read, under `root`."""
    for job in jobs:
        if "expr" in job:
            path = root / job["argv"][2]
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(job["expr"], encoding="utf-8")


def _stratified(rng, universe, k):
    """One point from each of k contiguous strata of the universe's order."""
    n = len(universe)
    return [universe[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]


def _interleave(rng, free, chain):
    """Shuffle `free` and insert `chain` at seeded positions, in its order."""
    free = list(free)
    rng.shuffle(free)
    n = len(free) + len(chain)
    slots = set(rng.sample(range(n), len(chain)))
    free_it, chain_it = iter(free), iter(chain)
    return [next(chain_it) if i in slots else next(free_it) for i in range(n)]


def _kernel_prec(m, e, shift):
    return KERNEL_PRECS[(m + 2 * e + shift) % len(KERNEL_PRECS)]


def jobs(workload: str, seed: int) -> list[dict]:
    """The seeded job list of one pass over `workload`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "kernel-highprec":
        shift = rng.randrange(len(KERNEL_PRECS))
        free = [_job(_tet(m, e, _kernel_prec(m, e, shift))) for m, e in KERNEL_GRID]
        free.append(_job(_tet(*KERNEL_TOP)))
        ladder = [_job(_tet(*step), "tet") for step in KERNEL_LADDER]
        return _interleave(rng, free, ladder)
    if workload == "verify-sweep":
        free = (
            [_job(_pentagon(*c)) for c in _stratified(rng, PENTAGON, SAMPLES["pentagon"])]
            + [_job(_shifted(*c)) for c in _stratified(rng, SHIFTED, SAMPLES["shifted"])]
            + [_job(_triality(*c)) for c in _stratified(rng, TRIALITY, SAMPLES["triality"])]
            + [_job(_bailey(*rng.choice(pair))) for pair in BAILEY_MENU]
        )
        rng.shuffle(free)
        return free
    if workload == "knot-lattice":
        ladder = [_job(_ind41(h), "ind41") for h in IND41_LADDER]
        sums = _stratified(rng, PENTAGON, SAMPLES["lattice_pentagon"])
        rng.shuffle(sums)
        big = _interleave(rng, [_job(RANK3), _job(DIVERGENT)], ladder)
        return [_lattice_pentagon(*c) for c in sums] + big
    raise ValueError(f"unknown workload {workload!r}")


def universe(workload: str) -> list[dict]:
    """Every job that `jobs(workload, seed)` can produce, for any seed."""
    if workload == "kernel-highprec":
        grid = [_tet(m, e, h) for m, e in KERNEL_GRID for h in KERNEL_PRECS]
        argvs = grid + [_tet(*KERNEL_TOP)] + [_tet(*s) for s in KERNEL_LADDER]
    elif workload == "verify-sweep":
        argvs = (
            [_pentagon(*c) for c in PENTAGON]
            + [_shifted(*c) for c in SHIFTED]
            + [_triality(*c) for c in TRIALITY]
            + [_bailey(*chain) for pair in BAILEY_MENU for chain in pair]
        )
    elif workload == "knot-lattice":
        argvs = [_ind41(h) for h in IND41_LADDER] + [RANK3, DIVERGENT]
        return [_job(a) for a in argvs] + [_lattice_pentagon(*c) for c in PENTAGON]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [_job(a) for a in argvs]
