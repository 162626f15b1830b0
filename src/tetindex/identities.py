"""Mechanical verification of the pentagon, triality and duality
identities.

Each check computes both sides as exact truncated series and compares
them coefficientwise through `compare_series`, the one comparer of the
package: it builds every `CheckReport`, names the lowest mismatch of any
pair of sides, and refuses a precision below 1 if no side starts below
it, for a check would then compare no coefficient and hold vacuously.
The infinite charge sums on the right-hand sides run over one integer
e3, with charges and prefactor affine in e3: they are rank-1 lattice
sums, built as `LatticeSumExpr`s and summed by the one evaluator of
`lattice`, whose certificate solves them exactly on both sides of
e3 = 0.  Their window extends to the farthest e3 whose term reaches
below the requested precision, and only the terms that do are summed;
the report carries its half-width.  A sum with infinitely many such
terms raises at once, naming the side it diverges on, so a failed
convergence assumption is a loud error instead of a silent truncation.
The Bailey step window is cut the same way: `_members_window` solves
one shifted-pentagon sum per seed point and takes the widest window.
"""

from __future__ import annotations

from .lattice import (
    AffineForm,
    LatticeSumExpr,
    _Certificate,
    _low_points,
    charge_product,
    eval_expr_with_box,
)
from .series import Frozen, QSeries, equal_to_order
from .tetrahedron import _horner

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
]


class CheckReport(Frozen):
    """Outcome of a coefficientwise identity check.

    `first_mismatch` is (half_exp, lhs_coeff, rhs_coeff) for the lowest
    disagreeing order, or None when the identity holds.  `window` is the
    half-width of the charge-sum window the check summed over, if any.
    """

    __slots__ = ("verified_to", "holds", "first_mismatch", "window")

    def __init__(
        self, verified_to: int, holds: bool,
        first_mismatch: tuple[int, int, int] | None = None, window: int | None = None,
    ):
        object.__setattr__(self, "verified_to", verified_to)
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "first_mismatch", first_mismatch)
        object.__setattr__(self, "window", window)
        if self.holds != (self.first_mismatch is None):
            raise ValueError("holds must mirror the absence of a mismatch")


def compare_series(pairs, order: int, window: int | None = None) -> CheckReport:
    """Coefficientwise comparison of each (lhs, rhs) pair below
    half-exponent `order`, reporting the lowest mismatch of any pair (on
    a tie the earlier pair's) and the window half-width `window`.

    An order below 1 that no side of any pair starts below compares no
    coefficient, so it is refused rather than reported as holding."""
    if order < 1 and all(min(lhs.lead, rhs.lead) >= order for lhs, rhs in pairs):
        raise ValueError(
            f"a check to half-exponent {order} would compare no coefficient: "
            "no side starts below it, and the precision must be at least 1"
        )
    first = None
    for lhs, rhs in pairs:
        if equal_to_order(lhs, rhs, order):
            continue
        for h in range(min(lhs.lead, rhs.lead), order):
            a, b = lhs.coefficient(h), rhs.coefficient(h)
            if a != b:
                if first is None or h < first[0]:
                    first = (h, a, b)
                break
    return CheckReport(order, first is None, first, window)


def _sign_pow(k: int) -> int:
    return -1 if k % 2 else 1


def triality_check(m: int, e: int, prec: int) -> CheckReport:
    """Both charge-rotation identities
    I(m,e) = (-q^(1/2))^m I(-e-m, m) = (-q^(1/2))^(-e) I(e, -e-m).

    This is the rotation as proven in the literature on the index; note
    the parity constraint: any other pairing of prefactor and rotated
    charges puts the two sides in different q^(1/2)-classes.  Each side
    is its own sum over n by `_horner`, never derived from another orbit
    member as `tet_index` derives it, so the three sums are independent.
    """
    lhs = _horner(m, e, prec)
    r1 = _horner(-e - m, m, prec - m).scaled(_sign_pow(m), m)
    r2 = _horner(e, -e - m, prec + e).scaled(_sign_pow(e), -e)
    return compare_series([(lhs, r1), (lhs, r2)], prec)


def duality_check(m: int, e: int, prec: int) -> CheckReport:
    """The duality I(m,e) = I(-e,-m), each side its own sum over n by
    `_horner`."""
    return compare_series([(_horner(m, e, prec), _horner(-e, -m, prec))], prec)


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


def _members_window(members, prec: int, what: str) -> int:
    """The Bailey step window of a family of rank-1 sums: the farthest
    index at which a term of any member reaches below `prec`, each member
    solved exactly by the lattice certificate, or 0 for no member.  A
    divergent member raises."""
    return max((_low_points(_Certificate(e, prec), what)[0] for e in members), default=0)


# Former name of the Bailey step window, kept bound to `_members_window`
# because bench/spans.py traces the window layer under this name.
_grow_symmetric_window = _members_window


def _report(lhs, rhs_sum, prec, what) -> CheckReport:
    """Compare lhs() with the certified sum `rhs_sum` below `prec`; the
    report carries the sum's window half-width."""
    rhs, extent = eval_expr_with_box(rhs_sum, prec, what)
    return compare_series([(lhs(), rhs)], prec, extent)


def pentagon_rhs(m1: int, m2: int, e1: int, e2: int, prec: int) -> QSeries:
    """Charge sum over e3 of q^(e3) I(m1,e1+e3) I(m2,e2+e3) I(m1+m2,e3),
    truncated by its certificate."""
    return eval_expr_with_box(_pentagon_sum(m1, m2, e1, e2), prec, "pentagon window")[0]


# The window half-widths of pentagon_rhs and pentagon_shifted_rhs, which
# `CheckReport.window` carries; they run the certificate only and stay
# because bench/spans.py traces them as identity checks.
def pentagon_window_extent(m1, m2, e1, e2, prec) -> int:
    return _members_window([_pentagon_sum(m1, m2, e1, e2)], prec, "pentagon window")


def pentagon_check(m1: int, m2: int, e1: int, e2: int, prec: int) -> CheckReport:
    """Pentagon identity with m3 = m1 + m2 imposed internally."""
    return _report(
        lambda: pentagon_lhs(m1, m2, e1, e2, prec),
        _pentagon_sum(m1, m2, e1, e2), prec, "pentagon window",
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
    m1: int, m2: int, e1: int, e2: int, e0: int, prec: int
) -> QSeries:
    """Charge sum of q^(e3 + (m2-e1)/2) I(m1,e1+e3) I(m2,e2+e3)
    I(m1+m2, e0+e3), truncated by its certificate."""
    expr = _pentagon_sum(m1, m2, e1, e2, e0, m2 - e1)
    return eval_expr_with_box(expr, prec, "shifted-pentagon window")[0]


def pentagon_shifted_window_extent(m1, m2, e1, e2, e0, prec) -> int:
    expr = _pentagon_sum(m1, m2, e1, e2, e0, m2 - e1)
    return _members_window([expr], prec, "shifted-pentagon window")


def pentagon_shifted_check(
    m1: int, m2: int, e1: int, e2: int, e0: int, prec: int
) -> CheckReport:
    """Shifted pentagon identity used to seed the Bailey construction."""
    return _report(
        lambda: pentagon_shifted_lhs(m1, m2, e1, e2, e0, prec),
        _pentagon_sum(m1, m2, e1, e2, e0, m2 - e1), prec, "shifted-pentagon window",
    )
