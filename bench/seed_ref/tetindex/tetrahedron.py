"""The tetrahedron index I(m, e) as an exact q-series.

I(m, e) = sum over n >= max(0, -e) of
    (-1)^n q^(n(n+1)/2 - (n + e/2) m) / ((q;q)_n (q;q)_{n+e}).

All exponents are tracked in half-units (integer h stands for q^(h/2)),
so the half-integer exponents that occur for odd e stay exact.

A single growing cache stores, per charge pair (m, e), the highest-
precision series computed so far; lower-precision requests truncate it.
The minimal-degree function that drives every downstream truncation
bound is found empirically (the series is evaluated at geometrically
increasing precision until a nonzero coefficient appears) and memoized.
"""

from __future__ import annotations

from .errors import DegreeCeilingError
from .series import QSeries, qpoch, zero

__all__ = [
    "tet_term",
    "tet_index",
    "tet_min_degree",
    "min_degree_bound",
    "analytic_degree_lb",
    "term_lead",
    "summation_floor",
    "clear_caches",
    "DEGREE_CEILING",
]

# Default half-exponent ceiling for the minimal-degree search.
DEGREE_CEILING = 400

_index_cache: dict[tuple[int, int], QSeries] = {}
_degree_exact: dict[tuple[int, int], int] = {}
_degree_lb: dict[tuple[int, int], int] = {}


def clear_caches() -> None:
    """Drop all memoized indices and degrees (for tests)."""
    _index_cache.clear()
    _degree_exact.clear()
    _degree_lb.clear()


def summation_floor(e: int) -> int:
    """Lowest admissible summation index: (|e| - e) / 2."""
    return max(0, -e)


def term_lead(n: int, m: int, e: int) -> int:
    """Half-exponent of the monomial prefactor of the n-th summand."""
    return n * (n + 1) - (2 * n + e) * m


def tet_term(n: int, m: int, e: int, prec: int) -> QSeries:
    """Single summand of I(m, e), truncated at half-exponent `prec`."""
    floor = summation_floor(e)
    if n < floor:
        raise ValueError(
            f"summation index {n} below the floor {floor} for e = {e}"
        )
    lead = term_lead(n, m, e)
    if lead >= prec:
        return zero(prec)
    rel = prec - lead
    body = qpoch(n, rel).inverse() * qpoch(n + e, rel).inverse()
    return body.scaled(-1 if n % 2 else 1, lead)


def _index_uncached(m: int, e: int, prec: int) -> QSeries:
    floor = summation_floor(e)
    total = zero(prec)
    n = floor
    # term_lead is strictly increasing in n once n >= m, so the first
    # n >= max(m, floor) whose lead reaches prec ends the sum exactly.
    while not (n >= max(m, floor) and term_lead(n, m, e) >= prec):
        total = total + tet_term(n, m, e, prec)
        n += 1
    return total


def tet_index(m: int, e: int, prec: int) -> QSeries:
    """The tetrahedron index I(m, e) truncated at half-exponent `prec`."""
    key = (m, e)
    cached = _index_cache.get(key)
    if cached is not None and cached.prec >= prec:
        return cached.truncated(prec)
    s = _index_uncached(m, e, prec)
    _index_cache[key] = s
    return s


def _raw_degree_lb(m: int, e: int) -> int:
    """Minimum over n of the summand leads (ignores cancellation)."""
    floor = summation_floor(e)
    # term_lead is a convex parabola in n with vertex at n = m - 1/2
    candidates = {floor, max(floor, m - 1), max(floor, m)}
    return min(term_lead(n, m, e) for n in candidates)


def analytic_degree_lb(m: int, e: int) -> int:
    """Closed-form lower bound for the minimal degree of I(m, e).

    The raw summand bound is tightened through the two triality
    rotations (see identities.triality_check); the maximum of the three
    grows without bound in every charge direction, which is what makes
    the tail certificates of the adaptive windows sound.
    """
    return max(
        _raw_degree_lb(m, e),
        m + _raw_degree_lb(-e - m, m),
        -e + _raw_degree_lb(e, -e - m),
    )


def min_degree_bound(m: int, e: int, target: int) -> int:
    """A certified lower bound for the minimal degree of I(m, e).

    Returns the exact minimal degree once it is found; otherwise keeps
    refining until the bound reaches `target` and returns that.  Never
    raises: charges whose degree exceeds any ceiling simply report a
    bound of at least `target`.
    """
    key = (m, e)
    if key in _degree_exact:
        return _degree_exact[key]
    lb = _degree_lb.get(key)
    if lb is None:
        lb = analytic_degree_lb(m, e)
        _degree_lb[key] = lb
    if lb >= target:
        return lb
    h = 16
    while h <= lb:
        h *= 2
    while True:
        h_eval = min(h, target)
        s = tet_index(m, e, h_eval)
        if not s.is_zero:
            _degree_exact[key] = s.lead
            return s.lead
        _degree_lb[key] = lb = h_eval
        if lb >= target:
            return lb
        h *= 2


def tet_min_degree(m: int, e: int, ceiling: int = DEGREE_CEILING) -> int:
    """Half-exponent of the lowest nonzero coefficient of I(m, e).

    Searches at doubling precision up to `ceiling` and raises
    DegreeCeilingError if everything below the ceiling vanishes: either
    the index is genuinely zero to that order or the ceiling is too low.
    This function never guesses.
    """
    d = min_degree_bound(m, e, ceiling)
    if (m, e) in _degree_exact:
        return d
    raise DegreeCeilingError(
        f"I({m},{e}) has no nonzero coefficient below half-exponent "
        f"{ceiling}; raise the ceiling if the index is expected to be nonzero"
    )
