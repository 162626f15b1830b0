"""Mechanical verification of the pentagon, triality and duality
identities.

Each check computes both sides as exact truncated series and reports
coefficientwise agreement.  The infinite charge sums on the right-hand
sides run over one integer e3, with charges and prefactor affine in e3:
they are rank-1 lattice sums, built as `LatticeSumExpr`s and summed by
the one evaluator of `lattice`, whose certificate solves them exactly
on both sides of e3 = 0.  Their window covers, with `margin` values to
spare on both ends, the farthest e3 whose term reaches below the
requested precision, and only the terms that do are summed.  A sum with
infinitely many such terms raises at once, naming the side it diverges
on, and a window wider than its cap raises too, so a failed convergence
assumption is a loud error instead of a silent truncation.
The Bailey step window, whose terms are not affine in its index, is
still grown here by `_grow_symmetric_window`, whose tail is screened
to a finite horizon by the same test that decides the window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .lattice import (
    AffineForm,
    LatticeSumExpr,
    _cap_error,
    _check_window_args,
    _evaluate,
    charge_product,
)
from .series import QSeries, equal_to_order
from .tetrahedron import _direct

__all__ = [
    "CheckReport",
    "compare_series",
    "triality_check",
    "duality_check",
    "pentagon_lhs",
    "pentagon_rhs",
    "pentagon_check",
    "pentagon_shifted_lhs",
    "pentagon_shifted_rhs",
    "pentagon_shifted_check",
    "pentagon_window_extent",
    "pentagon_shifted_window_extent",
    "DEFAULT_MARGIN",
    "DEFAULT_WINDOW_CAP",
]

DEFAULT_MARGIN = 3
DEFAULT_WINDOW_CAP = 64
# how far past a candidate Bailey step window its tail screen looks
TAIL_HORIZON = 200


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a coefficientwise identity check.

    `first_mismatch` is (half_exp, lhs_coeff, rhs_coeff) for the lowest
    disagreeing order, or None when the identity holds.  `window` is the
    half-width of the charge-sum window the check summed over, if any.
    """

    verified_to: int
    holds: bool
    first_mismatch: tuple[int, int, int] | None = None
    window: int | None = None

    def __post_init__(self):
        if self.holds != (self.first_mismatch is None):
            raise ValueError("holds must mirror the absence of a mismatch")


def compare_series(lhs: QSeries, rhs: QSeries, order: int) -> CheckReport:
    """Coefficientwise comparison below half-exponent `order`."""
    if not equal_to_order(lhs, rhs, order):
        lo = min(lhs.lead, rhs.lead)
        for h in range(lo, order):
            a, b = lhs.coefficient(h), rhs.coefficient(h)
            if a != b:
                return CheckReport(order, False, (h, a, b))
    return CheckReport(order, True)


def _merge(a: CheckReport, b: CheckReport) -> CheckReport:
    if a.holds:
        return b if not b.holds else a
    if b.holds or a.first_mismatch[0] <= b.first_mismatch[0]:
        return a
    return b


def _sign_pow(k: int) -> int:
    return -1 if k % 2 else 1


def _grow_symmetric_window(meets, margin: int, cap: int, what: str) -> int:
    """Smallest window half-width E such that `meets` holds at the
    outermost `margin` values on both ends and at the TAIL_HORIZON
    positions beyond them.

    This is the Bailey step window, whose terms are not affine in the
    summation index.  The degree profile need not be monotone: a term
    far outside a locally converged window can still dip below the
    precision, so a dip in the tail forces the window out to it.  The
    tail is screened by `meets` itself, memoized, so each position is
    evaluated at most once.  Only dips within the horizon are seen."""
    _check_window_args(margin, cap, what)
    known: dict[int, bool] = {}

    def ok(j):
        if j not in known:
            known[j] = meets(j)
        return known[j]

    e = margin
    while e <= cap:
        if all(ok(j) and ok(-j) for j in range(e - margin + 1, e + 1)):
            dip = None
            for j in range(e + 1, e + TAIL_HORIZON + 1):
                if not (ok(j) and ok(-j)):
                    dip = j
                    break
            if dip is None:
                return e
            e = dip
        else:
            e += 1
    raise _cap_error(what, cap)


def triality_check(m: int, e: int, prec: int) -> CheckReport:
    """Both charge-rotation identities
    I(m,e) = (-q^(1/2))^m I(-e-m, m) = (-q^(1/2))^(-e) I(e, -e-m).

    This is the rotation as proven in the literature on the index; note
    the parity constraint: any other pairing of prefactor and rotated
    charges puts the two sides in different q^(1/2)-classes.  Each side
    is its own sum over n, never derived from another orbit member as
    `tet_index` derives it, so the three sums are independent.
    """
    if prec <= 0:
        return CheckReport(prec, True)
    lhs = _direct(m, e, prec)
    r1 = _direct(-e - m, m, prec - m).scaled(_sign_pow(m), m)
    r2 = _direct(e, -e - m, prec + e).scaled(_sign_pow(e), -e)
    return _merge(compare_series(lhs, r1, prec), compare_series(lhs, r2, prec))


def duality_check(m: int, e: int, prec: int) -> CheckReport:
    """The duality I(m,e) = I(-e,-m), each side its own sum over n."""
    if prec <= 0:
        return CheckReport(prec, True)
    return compare_series(_direct(m, e, prec), _direct(-e, -m, prec), prec)


def pentagon_lhs(m1: int, m2: int, e1: int, e2: int, prec: int) -> QSeries:
    """I(m1-e2, e1) * I(m2-e1, e2)."""
    return charge_product(((m1 - e2, e1), (m2 - e1, e2)), 0, 1, prec)


def _pentagon_sum(m1, m2, e1, e2, e0=0, pref_h=0) -> LatticeSumExpr:
    """sum over e3 of q^(e3 + pref_h/2) I(m1,e1+e3) I(m2,e2+e3)
    I(m1+m2, e0+e3) as a rank-1 lattice sum (forms in half-units)."""

    def factor(m, e):
        return AffineForm((0,), 2 * m), AffineForm((2,), 2 * e)

    return LatticeSumExpr(
        ("e3",), 1, AffineForm((2,), pref_h),
        (factor(m1, e1), factor(m2, e2), factor(m1 + m2, e0)),
    )


def _report(lhs, rhs_sum, prec, margin, cap, what) -> CheckReport:
    """Compare lhs() with the certified sum `rhs_sum` below `prec`; the
    report carries the sum's window half-width."""
    rhs, extent = _evaluate(rhs_sum, prec, margin, cap, what)
    if prec <= 0:
        return CheckReport(prec, True, window=extent)
    return replace(compare_series(lhs(), rhs, prec), window=extent)


def pentagon_rhs(
    m1: int,
    m2: int,
    e1: int,
    e2: int,
    prec: int,
    margin: int = DEFAULT_MARGIN,
    cap: int = DEFAULT_WINDOW_CAP,
    min_window: int = 0,
) -> QSeries:
    """Charge sum over e3 of q^(e3) I(m1,e1+e3) I(m2,e2+e3) I(m1+m2,e3),
    adaptively truncated.  `min_window` forces a larger window (used by
    the stability-replay tests)."""
    expr = _pentagon_sum(m1, m2, e1, e2)
    return _evaluate(expr, prec, margin, cap, "pentagon window", min_window)[0]


def pentagon_window_extent(
    m1, m2, e1, e2, prec, margin=DEFAULT_MARGIN, cap=DEFAULT_WINDOW_CAP
) -> int:
    """The window half-width of pentagon_rhs, which is evaluated for it."""
    expr = _pentagon_sum(m1, m2, e1, e2)
    return _evaluate(expr, prec, margin, cap, "pentagon window")[1]


def pentagon_check(
    m1: int,
    m2: int,
    e1: int,
    e2: int,
    prec: int,
    margin: int = DEFAULT_MARGIN,
    cap: int = DEFAULT_WINDOW_CAP,
) -> CheckReport:
    """Pentagon identity with m3 = m1 + m2 imposed internally."""
    return _report(
        lambda: pentagon_lhs(m1, m2, e1, e2, prec),
        _pentagon_sum(m1, m2, e1, e2), prec, margin, cap, "pentagon window",
    )


def pentagon_shifted_lhs(
    m1: int, m2: int, e1: int, e2: int, e0: int, prec: int
) -> QSeries:
    """(-1)^(m2-e1+e0) q^((m2-e1) - e0/2)
    I(m1-e2+e0, e1-e0) I(-m2+e1-e2, m2-e1+e0).

    This is the pentagon identity after the charge shifts
    e3 -> e3+e0, e1 -> e1-e0, e2 -> e2-e0 and one triality rotation of
    the second left-hand factor; the prefactor is forced by that
    rotation (see triality_check for the rotation convention)."""
    sign = _sign_pow(m2 - e1 + e0)
    return charge_product(
        ((m1 - e2 + e0, e1 - e0), (-m2 + e1 - e2, m2 - e1 + e0)),
        2 * (m2 - e1) - e0,
        sign,
        prec,
    )


def pentagon_shifted_rhs(
    m1: int,
    m2: int,
    e1: int,
    e2: int,
    e0: int,
    prec: int,
    margin: int = DEFAULT_MARGIN,
    cap: int = DEFAULT_WINDOW_CAP,
    min_window: int = 0,
) -> QSeries:
    """Charge sum of q^(e3 + (m2-e1)/2) I(m1,e1+e3) I(m2,e2+e3)
    I(m1+m2, e0+e3), adaptively truncated."""
    expr = _pentagon_sum(m1, m2, e1, e2, e0, m2 - e1)
    return _evaluate(
        expr, prec, margin, cap, "shifted-pentagon window", min_window
    )[0]


def pentagon_shifted_window_extent(
    m1, m2, e1, e2, e0, prec, margin=DEFAULT_MARGIN, cap=DEFAULT_WINDOW_CAP
) -> int:
    """The window half-width of pentagon_shifted_rhs, evaluated for it."""
    expr = _pentagon_sum(m1, m2, e1, e2, e0, m2 - e1)
    return _evaluate(expr, prec, margin, cap, "shifted-pentagon window")[1]


def pentagon_shifted_check(
    m1: int,
    m2: int,
    e1: int,
    e2: int,
    e0: int,
    prec: int,
    margin: int = DEFAULT_MARGIN,
    cap: int = DEFAULT_WINDOW_CAP,
) -> CheckReport:
    """Shifted pentagon identity used to seed the Bailey construction."""
    return _report(
        lambda: pentagon_shifted_lhs(m1, m2, e1, e2, e0, prec),
        _pentagon_sum(m1, m2, e1, e2, e0, m2 - e1), prec, margin, cap,
        "shifted-pentagon window",
    )
