"""The tetrahedron index I(m, e) as an exact q-series.

I(m, e) = sum over n >= max(0, -e) of
    (-1)^n q^(n(n+1)/2 - (n + e/2) m) / ((q;q)_n (q;q)_{n+e}).

All exponents are tracked in half-units (integer h stands for q^(h/2)),
so the half-integer exponents that occur for odd e stay exact.

A single growing cache stores, per charge pair (m, e), the highest-
precision series computed so far; lower-precision requests truncate it.
The minimal degree of I(m, e), which drives every downstream truncation
bound, is exact and in closed form (Garoufalidis, "The 3D index of an
ideal triangulation and angle structures"); no series is evaluated to
find it.
"""

from __future__ import annotations

from .series import QSeries, qpoch, zero

__all__ = [
    "tet_term",
    "tet_index",
    "tet_min_degree",
    "term_degree",
    "term_lead",
    "summation_floor",
    "clear_caches",
]

_index_cache: dict[tuple[int, int], QSeries] = {}


def clear_caches() -> None:
    """Drop all memoized indices (for tests)."""
    _index_cache.clear()


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


def tet_min_degree(m: int, e: int) -> int:
    """Half-exponent of the lowest nonzero coefficient of I(m, e).

    Exact, in closed form (Garoufalidis): with x+ = max(x, 0),
        m+ (m+e)+ + (-m)+ e+ + (-e)+ (-m-e)+ + max(0, m, -e).
    It does not grow in every charge direction: it is 0 on the whole rays
    m = 0, e >= 0 and e = 0, m <= 0.
    """
    return (
        max(m, 0) * max(m + e, 0)
        + max(-m, 0) * max(e, 0)
        + max(-e, 0) * max(-m - e, 0)
        + max(0, m, -e)
    )


# Former names of the degree bound, kept bound to the one exact function
# because bench/spans.py traces the degree layer under these names.
min_degree_bound = analytic_degree_lb = tet_min_degree


def term_degree(charges, pref_h: int) -> int:
    """Exact minimal degree of q^(pref_h/2) * prod_i I(m_i, e_i).

    A charge-sum term contributes below half-exponent H iff this is < H.
    """
    return pref_h + sum(tet_min_degree(m, e) for m, e in charges)
