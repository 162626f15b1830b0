"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
machine-greppable PASS/FAIL line (run pytest with -s to see them all;
on failure the line appears in the captured output).
"""

import itertools
import random
import sys

from oracle import naive_pentagon_rhs, naive_tet_index, same_to_order
from test_lattice import _cube_sum
from tetindex.bailey import bailey_chain, bailey_seed_delta, bailey_step, bailey_verify
from tetindex.identities import (
    _pentagon_sum,
    pentagon_check,
    pentagon_rhs,
    pentagon_shifted_check,
    pentagon_window_extent,
    triality_check,
)
from tetindex.lattice import (
    IND41_TEXT,
    eval_expr_with_box,
    ind41,
    parse_expr,
)
from tetindex.series import QSeries, equal_to_order, one
from tetindex.tetrahedron import tet_index


def _record(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    assert ok, f"acceptance criterion failed: {name}"


def _random_series(rng, max_len=8):
    lead = rng.randint(-10, 10)
    coeffs = [rng.randint(-99, 99) for _ in range(rng.randint(0, max_len))]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    prec = lead + len(coeffs)
    if not coeffs:
        return QSeries(prec, (), prec)
    return QSeries(lead, tuple(coeffs), prec)


def test_criterion_1_figure_eight_coefficients():
    s = ind41(10)
    got = [s.coefficient(2 * j) for j in range(5)]
    odd = [s.coefficient(2 * j + 1) for j in range(5)]
    _record(
        "1 figure-eight index coefficients",
        got == [1, -8, -9, 18, 46] and all(c == 0 for c in odd),
    )


def test_criterion_2_pentagon_sweep():
    bad = [
        t
        for t in itertools.product(range(-2, 3), repeat=4)
        if not pentagon_check(*t, 8).holds
    ]
    _record("2 pentagon sweep [-2,2]^4 at H=8", not bad)


def test_criterion_3_shifted_pentagon_sweep():
    bad = [
        t
        for t in itertools.product(range(-1, 2), repeat=5)
        if not pentagon_shifted_check(*t, 8).holds
    ]
    _record("3 shifted pentagon sweep [-1,1]^5 at H=8", not bad)


def test_criterion_4_triality_sweep():
    bad = [
        (m, e)
        for m in range(-6, 7)
        for e in range(-6, 7)
        if not triality_check(m, e, 12).holds
    ]
    _record("4 triality sweep |m|,|e|<=6 at H=12", not bad)


def test_criterion_5_bailey_suite():
    ok = True
    for n0 in (-1, 0, 1):
        for t in (-1, 0, 1, 2):
            seed = bailey_seed_delta(n0, t)
            ok = ok and bailey_verify(seed, (-3, 3), 6).holds
            for s in (-1, 0, 1, 2):
                ok = ok and bailey_verify(bailey_step(seed, s), (-3, 3), 6).holds
    chain = bailey_chain(0, 1, [1, -1], (-2, 2), 4)
    ok = ok and len(chain) == 3 and all(r.holds for r in chain)
    _record("5 Bailey pair suite and depth-2 chain", ok)


def test_criterion_6_oracle_equivalence():
    ok = all(
        same_to_order(naive_tet_index(m, e, 12), tet_index(m, e, 12), 12)
        for m in range(-4, 5)
        for e in range(-4, 5)
    )
    rng = random.Random(2026)
    for _ in range(10):
        args = tuple(rng.randint(-2, 2) for _ in range(4))
        ok = ok and same_to_order(
            naive_pentagon_rhs(*args, 6), pentagon_rhs(*args, 6), 6
        )
    _record("6 independent-oracle equivalence", ok)


def test_criterion_7_ring_axioms_and_replay_stability():
    rng = random.Random(41)
    ok = True
    for _ in range(1000):
        a, b, c = (_random_series(rng) for _ in range(3))
        left, right = (a * b) * c, a * (b * c)
        ok = ok and equal_to_order(left, right, min(left.prec, right.prec))
        ld, rd = a * (b + c), a * b + a * c
        ok = ok and equal_to_order(ld, rd, min(ld.prec, rd.prec))
        ok = ok and a * b == b * a
    for _ in range(50):
        u = _random_series(rng)
        v = QSeries(0, (1,) + u.coeffs, u.prec - u.lead + 1)
        ok = ok and equal_to_order(v * v.inverse(), one(v.prec), v.prec)
    for args in [(0, 0, 0, 0), (2, 2, 2, 2), (1, -1, 2, 0)]:
        base = pentagon_rhs(*args, 8)
        extent = pentagon_window_extent(*args, 8)
        ok = ok and equal_to_order(base, _cube_sum(_pentagon_sum(*args), extent + 8, 8), 8)
    expr = parse_expr(IND41_TEXT)
    base, extent = eval_expr_with_box(expr, 8)
    ok = ok and equal_to_order(base, _cube_sum(expr, extent + 4, 8), 8)
    _record("7 ring axioms, inverses, window/box replay", ok)
