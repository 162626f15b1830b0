"""Mechanical verification of the pentagon and triality identities.

Each check computes both sides as exact truncated series and reports
coefficientwise agreement.  The infinite charge sums on the right-hand
sides are truncated by an adaptive symmetric window: the window grows
until, on both ends, a certified lower bound for the term degree clears
the requested precision for `margin` consecutive values.  A hard cap
turns a failed convergence assumption into a loud error instead of a
silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StabilizationError
from .series import QSeries, equal_to_order, zero
from .tetrahedron import analytic_degree_lb, min_degree_bound, tet_index

__all__ = [
    "CheckReport",
    "compare_series",
    "triality_check",
    "pentagon_lhs",
    "pentagon_rhs",
    "pentagon_check",
    "pentagon_shifted_lhs",
    "pentagon_shifted_rhs",
    "pentagon_shifted_check",
    "pentagon_window_extent",
    "pentagon_shifted_window_extent",
    "charge_product",
    "DEFAULT_MARGIN",
    "DEFAULT_WINDOW_CAP",
]

DEFAULT_MARGIN = 3
DEFAULT_WINDOW_CAP = 64
# how far past the scanned window the closed-form tail certificate looks
TAIL_HORIZON = 200


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a coefficientwise identity check.

    `first_mismatch` is (half_exp, lhs_coeff, rhs_coeff) for the lowest
    disagreeing order, or None when the identity holds.
    """

    verified_to: int
    holds: bool
    first_mismatch: tuple[int, int, int] | None = None

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


def _degree_budget(charges, pref_h: int, prec: int):
    """Per-factor lower-bound degrees, or None if the term cannot reach
    below `prec` (and may therefore be skipped or counted as converged)."""
    rem = prec - pref_h
    degs = []
    for m, e in charges:
        d = min_degree_bound(m, e, rem)
        degs.append(d)
        rem -= d
    if rem <= 0:
        return None
    return degs


def _cheap_term_bound(charges, pref_h: int) -> int:
    """Closed-form lower bound for a term's degree (no series work)."""
    return pref_h + sum(analytic_degree_lb(m, e) for m, e in charges)


def charge_product(charges, pref_h: int, sign: int, prec: int) -> QSeries:
    """sign * q^(pref_h/2) * prod_i I(m_i, e_i), truncated at `prec`.

    Factor precisions are allocated from certified minimal-degree lower
    bounds so the product is known to at least `prec`.
    """
    degs = _degree_budget(charges, pref_h, prec)
    if degs is None:
        return zero(prec)
    tot = sum(degs)
    prod = None
    for (m, e), d in zip(charges, degs):
        p = prec - pref_h - (tot - d)
        f = tet_index(m, e, p)
        prod = f if prod is None else prod * f
    return prod.scaled(sign, pref_h).truncated(prec)


def _grow_symmetric_window(
    meets, margin: int, cap: int, what: str, cheap_ok=None, tail: int = TAIL_HORIZON
) -> int:
    """Smallest window half-width E such that the outermost `margin`
    values on both ends satisfy the degree bound.

    The bound profile need not be monotone: a term far outside a locally
    converged window can still dip below the precision.  When `cheap_ok`
    is given (a closed-form degree certificate, no series evaluation) the
    `tail` positions beyond the candidate window are screened with it and
    the window is forced out to any dip found, so local convergence can
    never hide an outlying contribution within the horizon."""
    known: dict[int, bool] = {}

    def ok(j):
        if j not in known:
            known[j] = meets(j)
        return known[j]

    e = margin
    while e <= cap:
        if all(ok(j) and ok(-j) for j in range(e - margin + 1, e + 1)):
            if cheap_ok is None:
                return e
            dip = None
            for j in range(e + 1, e + tail + 1):
                if not (cheap_ok(j) and cheap_ok(-j)):
                    dip = j
                    break
            if dip is None:
                return e
            e = max(dip, e + 1)
        else:
            e += 1
    raise StabilizationError(
        f"{what} not stabilized within cap {cap}; "
        "the sum may not converge at this precision"
    )


def triality_check(m: int, e: int, prec: int) -> CheckReport:
    """Both charge-rotation identities
    I(m,e) = (-q^(1/2))^m I(-e-m, m) = (-q^(1/2))^(-e) I(e, -e-m).

    This is the rotation as proven in the literature on the index; note
    the parity constraint: any other pairing of prefactor and rotated
    charges puts the two sides in different q^(1/2)-classes.
    """
    if prec <= 0:
        return CheckReport(prec, True)
    lhs = tet_index(m, e, prec)
    r1 = tet_index(-e - m, m, prec - m).scaled(_sign_pow(m), m)
    r2 = tet_index(e, -e - m, prec + e).scaled(_sign_pow(e), -e)
    return _merge(compare_series(lhs, r1, prec), compare_series(lhs, r2, prec))


def pentagon_lhs(m1: int, m2: int, e1: int, e2: int, prec: int) -> QSeries:
    """I(m1-e2, e1) * I(m2-e1, e2)."""
    return charge_product(((m1 - e2, e1), (m2 - e1, e2)), 0, 1, prec)


def _pentagon_rhs(m1, m2, e1, e2, prec, margin, cap):
    m3 = m1 + m2

    def charges(e3):
        return ((m1, e1 + e3), (m2, e2 + e3), (m3, e3))

    def meets(e3):
        return _degree_budget(charges(e3), 2 * e3, prec) is None

    def cheap_ok(e3):
        return _cheap_term_bound(charges(e3), 2 * e3) >= prec

    extent = _grow_symmetric_window(meets, margin, cap, "pentagon window", cheap_ok)
    total = zero(prec)
    for e3 in range(-extent, extent + 1):
        total = total + charge_product(charges(e3), 2 * e3, 1, prec)
    return total, extent


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
    s, extent = _pentagon_rhs(m1, m2, e1, e2, prec, margin, cap)
    if min_window > extent:
        m3 = m1 + m2
        total = zero(prec)
        for e3 in range(-min_window, min_window + 1):
            total = total + charge_product(
                ((m1, e1 + e3), (m2, e2 + e3), (m3, e3)), 2 * e3, 1, prec
            )
        return total
    return s


def pentagon_window_extent(
    m1, m2, e1, e2, prec, margin=DEFAULT_MARGIN, cap=DEFAULT_WINDOW_CAP
) -> int:
    return _pentagon_rhs(m1, m2, e1, e2, prec, margin, cap)[1]


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
    if prec <= 0:
        return CheckReport(prec, True)
    lhs = pentagon_lhs(m1, m2, e1, e2, prec)
    rhs, _ = _pentagon_rhs(m1, m2, e1, e2, prec, margin, cap)
    return compare_series(lhs, rhs, prec)


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


def _pentagon_shifted_rhs(m1, m2, e1, e2, e0, prec, margin, cap):
    m3 = m1 + m2
    base = m2 - e1

    def charges(e3):
        return ((m1, e1 + e3), (m2, e2 + e3), (m3, e0 + e3))

    def meets(e3):
        return _degree_budget(charges(e3), 2 * e3 + base, prec) is None

    def cheap_ok(e3):
        return _cheap_term_bound(charges(e3), 2 * e3 + base) >= prec

    extent = _grow_symmetric_window(
        meets, margin, cap, "shifted-pentagon window", cheap_ok
    )
    total = zero(prec)
    for e3 in range(-extent, extent + 1):
        total = total + charge_product(charges(e3), 2 * e3 + base, 1, prec)
    return total, extent


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
    s, extent = _pentagon_shifted_rhs(m1, m2, e1, e2, e0, prec, margin, cap)
    if min_window > extent:
        m3 = m1 + m2
        base = m2 - e1
        total = zero(prec)
        for e3 in range(-min_window, min_window + 1):
            total = total + charge_product(
                ((m1, e1 + e3), (m2, e2 + e3), (m3, e0 + e3)),
                2 * e3 + base,
                1,
                prec,
            )
        return total
    return s


def pentagon_shifted_window_extent(
    m1, m2, e1, e2, e0, prec, margin=DEFAULT_MARGIN, cap=DEFAULT_WINDOW_CAP
) -> int:
    return _pentagon_shifted_rhs(m1, m2, e1, e2, e0, prec, margin, cap)[1]


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
    if prec <= 0:
        return CheckReport(prec, True)
    lhs = pentagon_shifted_lhs(m1, m2, e1, e2, e0, prec)
    rhs, _ = _pentagon_shifted_rhs(m1, m2, e1, e2, e0, prec, margin, cap)
    return compare_series(lhs, rhs, prec)
