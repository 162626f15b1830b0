"""Mechanical verification of the pentagon and triality identities.

Each check computes both sides as exact truncated series and reports
coefficientwise agreement.  The infinite charge sums on the right-hand
sides run over one integer j, with charges and prefactor affine in j.
Such a sum is truncated exactly: `rank1_extent` finds the farthest j
whose term reaches below the requested precision (the exact term degree
is one quadratic in j between consecutive zeros of the charges, and past
the outermost ones), and the window covers it with `margin` values to
spare on both ends.  A sum with infinitely many such terms raises at
once, and a window wider than its cap raises too, so a failed
convergence assumption is a loud error instead of a silent truncation.
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
    "rank1_extent",
    "charge_product",
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


def _check_window_args(margin: int, cap: int, what: str) -> None:
    """Raise ValueError for a margin below 1, which would accept a window
    without a single checked value past its last low term, or a negative
    cap."""
    if margin < 1:
        raise ValueError(f"{what} margin must be at least 1, got {margin}")
    if cap < 0:
        raise ValueError(f"{what} cap must not be negative, got {cap}")


def _cap_error(what: str, cap: int) -> StabilizationError:
    return StabilizationError(
        f"{what} not stabilized within cap {cap}; "
        "the sum may not converge at this precision"
    )


def _grow_symmetric_window(meets, margin: int, cap: int, what: str, screen) -> int:
    """Smallest window half-width E such that the outermost `margin`
    values on both ends satisfy `meets` and the TAIL_HORIZON positions
    beyond them pass `screen`.

    This is the Bailey step window, whose terms are not affine in the
    summation index.  The degree profile need not be monotone: a term
    far outside a locally converged window can still dip below the
    precision, so a dip found by the screen forces the window out to it.
    Only dips within the horizon are seen."""
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
                if not (screen(j) and screen(-j)):
                    dip = j
                    break
            if dip is None:
                return e
            e = dip
        else:
            e += 1
    raise _cap_error(what, cap)


def _first(pred, lo: int, hi: int) -> int:
    """The least t in [lo, hi] with pred(t), for a pred that is false and
    then true on [lo, hi] and true at hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _low_ends(d: int, slope: int, curve: int, n: int | None, prec: int):
    """The least and greatest t in [0, n] (n None: t >= 0) at which
    q(t) = d + slope*t + curve*t*(t-1)/2 is below `prec`, or None if
    there is none; with n None the quadratic must be convex or rise, so
    that the greatest exists.  Each end is found by bisection, in a
    number of steps logarithmic in t."""

    def low(t):
        return d + slope * t + curve * (t * (t - 1) // 2) < prec

    def high(t):
        return not low(t)

    if curve < 0:  # concave: q >= prec on one middle interval, if at all
        lo_low, hi_low = low(0), low(n)
        if not (lo_low or hi_low):
            return None
        first = 0 if lo_low else _first(low, 0, n)
        last = n if hi_low else _first(high, 0, n) - 1
        return first, last
    # convex or linear: the low values form one interval around the minimum
    if slope >= 0:
        v = 0
    elif curve == 0:
        v = n
    else:
        v = -(slope // curve)  # the first t where q stops falling
        v = v if n is None else min(v, n)
    if not low(v):
        return None
    if n is None:
        n = v + 1
        while low(n):
            n = 2 * n
    last = n if low(n) else _first(high, v, n) - 1
    return _first(low, 0, v), last


def _low_runs(value, lines, prec: int):
    """Disjoint runs (first, last) of t >= 1 that cover every t >= 1
    with value(t) < prec, or None when there are infinitely many such t.

    `value` must be one integer quadratic in t between consecutive zeros
    of the affine functions a*t + b given as (a, b) in `lines`, and past
    the last of them.  Each such piece is read from three consecutive
    values and only the ends of its low values are solved for; the zeros
    themselves (rounded down) are tested one by one.  The cost is
    logarithmic in the answer, so a far low value is found as fast as a
    near one.  On the outer ray, a negative second difference, or a line
    that falls or stays below `prec`, means infinitely many low values.
    A concave piece's run may cover high values between its low ends.
    """
    cuts = sorted({0, *(-b // a for a, b in lines if a and -b // a > 0)})
    runs = [(t, t) for t in cuts[1:] if value(t) < prec]
    # (first t, last step or None for the ray) of every piece
    pieces = [(a + 1, b - a - 2) for a, b in zip(cuts, cuts[1:]) if b - a > 1]
    pieces.append((cuts[-1] + 1, None))
    for t, n in pieces:
        if n is not None and n < 2:  # too short to read a quadratic from
            runs += [(j, j) for j in range(t, t + n + 1) if value(j) < prec]
            continue
        d = value(t)
        slope = value(t + 1) - d
        curve = value(t + 2) - 2 * slope - d
        if n is None and (
            curve < 0 or curve == 0 and (slope < 0 or slope == 0 and d < prec)
        ):
            return None
        ends = _low_ends(d, slope, curve, n, prec)
        if ends is not None:
            runs.append((t + ends[0], t + ends[1]))
    return runs


def _rank1_far(term, prec: int, what: str) -> int:
    """The farthest nonzero j with term_degree(*term(j)) < prec, or 0 when
    there is none; raises StabilizationError when there are infinitely
    many.  Every charge and the prefactor must be affine in j.

    tet_min_degree is one polynomial on each sector cut out by m = 0,
    e = 0 and m + e = 0, so on each side of j = 0 the term degree is one
    exact quadratic between consecutive zeros of the m, e and m + e of
    all factors, and past the outermost ones: `_low_runs` solves it.
    """
    (charges0, _), (charges1, _) = term(0), term(1)
    lines = []
    for (m0, e0), (m1, e1) in zip(charges0, charges1):
        lines += ((m1 - m0, m0), (e1 - e0, e0), (m1 + e1 - m0 - e0, m0 + e0))
    far = 0
    for side in (1, -1):
        runs = _low_runs(
            lambda t: term_degree(*term(side * t)),
            [(side * a, b) for a, b in lines],
            prec,
        )
        if runs is None:
            raise StabilizationError(
                f"{what} diverges: infinitely many of its terms start "
                f"below half-exponent {prec}"
            )
        far = max([far] + [last for _, last in runs])
    return far


def rank1_extent(term, prec: int, margin: int, cap: int, what: str) -> int:
    """Exact window half-width for the sum over j of the terms
    term(j) = (charges, pref_h) at precision `prec`: `margin` past the
    farthest nonzero j with term_degree(*term(j)) < prec, or `margin`
    when there is none (see `_rank1_far`).  The centre j = 0 is always
    summed, so it never widens the window.

    A sum with infinitely many low terms diverges at this precision.
    That, and a window wider than `cap`, raise StabilizationError; a
    margin below 1 or a negative cap raise ValueError.
    """
    _check_window_args(margin, cap, what)
    far = _rank1_far(term, prec, what)
    if margin + far > cap:
        raise _cap_error(what, cap)
    return margin + far


def _window_sum(term, prec, margin, cap, what, min_window=0):
    """The certified window sum of charge_product(*term(j), 1, prec) and
    the window's half-width; `min_window` forces a larger window (used by
    the stability-replay tests)."""
    extent = rank1_extent(term, prec, margin, cap, what)
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
    return rank1_extent(term, prec, margin, cap, "pentagon window")


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
    return rank1_extent(term, prec, margin, cap, "shifted-pentagon window")


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
