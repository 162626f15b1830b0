"""Mechanical verification of the pentagon and triality identities.

Each check computes both sides as exact truncated series and reports
coefficientwise agreement.  The infinite charge sums on the right-hand
sides are truncated by an adaptive symmetric window: the window grows
until, on both ends, the exact term degree clears the requested
precision for `margin` consecutive values.  A hard cap turns a failed
convergence assumption into a loud error instead of a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import StabilizationError
from .series import QSeries, equal_to_order, zero
from .tetrahedron import term_degree, tet_index, tet_min_degree

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


def charge_product(charges, pref_h: int, sign: int, prec: int) -> QSeries:
    """sign * q^(pref_h/2) * prod_i I(m_i, e_i), truncated at `prec`.

    Each factor is computed to exactly the precision the product needs,
    from the exact minimal degrees of the others.
    """
    rel = prec - term_degree(charges, pref_h)
    if rel <= 0:
        return zero(prec)
    prod = None
    for m, e in charges:
        f = tet_index(m, e, tet_min_degree(m, e) + rel)
        prod = f if prod is None else prod * f
    return prod.scaled(sign, pref_h).truncated(prec)


def _grow_symmetric_window(
    meets, margin: int, cap: int, what: str, cheap_ok=None, tail: int = TAIL_HORIZON
) -> int:
    """Smallest window half-width E such that the outermost `margin`
    values on both ends satisfy `meets`.

    The degree profile need not be monotone: a term far outside a locally
    converged window can still dip below the precision.  So the `tail`
    positions beyond the candidate window are screened as well, with
    `meets` or, when given, the separate screen `cheap_ok`, and the window
    is forced out to any dip found; local convergence can never hide an
    outlying contribution within the horizon.

    Raises ValueError for a margin below 1, which would accept a window
    on the tail screen alone, or a negative cap."""
    if margin < 1:
        raise ValueError(f"window margin must be at least 1, got {margin}")
    if cap < 0:
        raise ValueError(f"window cap must not be negative, got {cap}")
    known: dict[int, bool] = {}

    def ok(j):
        if j not in known:
            known[j] = meets(j)
        return known[j]

    screen = ok if cheap_ok is None else cheap_ok
    e = margin
    while e <= cap:
        if all(ok(j) and ok(-j) for j in range(e - margin + 1, e + 1)):
            dip = None
            for j in range(e + 1, e + tail + 1):
                if not (screen(j) and screen(-j)):
                    dip = j
                    break
            if dip is None:
                return e
            e = dip
        else:
            e += 1
    raise StabilizationError(
        f"{what} not stabilized within cap {cap}; "
        "the sum may not converge at this precision"
    )


def _window(term, prec: int, margin: int, cap: int, what: str) -> int:
    """Certified half-width for the sum over j of the terms
    term(j) = (charges, pref_h) at precision `prec`."""
    return _grow_symmetric_window(
        lambda j: term_degree(*term(j)) >= prec, margin, cap, what
    )


def _window_sum(term, prec, margin, cap, what, min_window=0):
    """The certified window sum of charge_product(*term(j), 1, prec) and
    the window's half-width; `min_window` forces a larger window (used by
    the stability-replay tests)."""
    extent = _window(term, prec, margin, cap, what)
    width = max(extent, min_window)
    total = zero(prec)
    for j in range(-width, width + 1):
        total = total + charge_product(*term(j), 1, prec)
    return total, extent


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


def _pentagon_term(m1, m2, e1, e2):
    return lambda e3: (((m1, e1 + e3), (m2, e2 + e3), (m1 + m2, e3)), 2 * e3)


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
    term = _pentagon_term(m1, m2, e1, e2)
    return _window_sum(term, prec, margin, cap, "pentagon window", min_window)[0]


def pentagon_window_extent(
    m1, m2, e1, e2, prec, margin=DEFAULT_MARGIN, cap=DEFAULT_WINDOW_CAP
) -> int:
    term = _pentagon_term(m1, m2, e1, e2)
    return _window(term, prec, margin, cap, "pentagon window")


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
    term = _pentagon_term(m1, m2, e1, e2)
    rhs, extent = _window_sum(term, prec, margin, cap, "pentagon window")
    if prec <= 0:
        return CheckReport(prec, True, window=extent)
    lhs = pentagon_lhs(m1, m2, e1, e2, prec)
    return replace(compare_series(lhs, rhs, prec), window=extent)


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


def _pentagon_shifted_term(m1, m2, e1, e2, e0):
    return lambda e3: (
        ((m1, e1 + e3), (m2, e2 + e3), (m1 + m2, e0 + e3)),
        2 * e3 + m2 - e1,
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
    term = _pentagon_shifted_term(m1, m2, e1, e2, e0)
    return _window_sum(
        term, prec, margin, cap, "shifted-pentagon window", min_window
    )[0]


def pentagon_shifted_window_extent(
    m1, m2, e1, e2, e0, prec, margin=DEFAULT_MARGIN, cap=DEFAULT_WINDOW_CAP
) -> int:
    term = _pentagon_shifted_term(m1, m2, e1, e2, e0)
    return _window(term, prec, margin, cap, "shifted-pentagon window")


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
    term = _pentagon_shifted_term(m1, m2, e1, e2, e0)
    rhs, extent = _window_sum(term, prec, margin, cap, "shifted-pentagon window")
    if prec <= 0:
        return CheckReport(prec, True, window=extent)
    lhs = pentagon_shifted_lhs(m1, m2, e1, e2, e0, prec)
    return replace(compare_series(lhs, rhs, prec), window=extent)
