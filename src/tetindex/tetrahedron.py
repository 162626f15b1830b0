"""The tetrahedron index I(m, e) as an exact q-series.

I(m, e) = sum over n >= max(0, -e) of
    (-1)^n q^(n(n+1)/2 - (n + e/2) m) / ((q;q)_n (q;q)_{n+e}).

All exponents are tracked in half-units (integer h stands for q^(h/2)),
so the half-integer exponents that occur for odd e stay exact.

Each charge is computed from a member of its symmetry orbit whose sum
has no cancellation.  For m > 0 the summand leads
n(n+1) - (2n+e)m dip to about -m^2 and the sum only reaches its degree
after cancelling far below it, so the bodies would be inverted well
past the requested precision.  Duality I(m,e) = I(-e,-m) and triality
I(m,e) = (-1)^m q^(m/2) I(-m, e+m) (Dimofte-Gaiotto-Gukov, "3-manifolds
and 3d indices") generate an orbit of six members (m', e'), each with
I(m, e) = (-1)^h q^(h/2) I(m', e').  For m' <= 0 the leads rise
strictly from the first summand, whose lead is the exact degree, and
the sum stops at the first lead past the precision.  Every orbit is
summed at one representative: the member with the least first charge,
-max(|m|, |e|, |m+e|), which is <= 0 and whose leads climb as fast as
any member's, ties broken by the lesser e'.  So a request for I(m, e)
to `prec` is answered by its own cache entry if that is precise
enough, and otherwise from the representative's entry at `prec - h`,
summed or grown if need be; an orbit is never summed under two keys.
ind41 at half-exponent 300 takes 0.046-0.047 s from cold caches this
way, and 0.14-0.18 s at 500 (CPython 3.11.7, 2-core x86-64 VM).

A single growing cache stores, per charge pair, the highest-precision
series computed by its own sum over n; derived members are never
stored.  The body 1/((q;q)_n (q;q)_{n+e}) of a summand depends only on
the pair {a, b} = {n, n+e}, so one cache entry, kept at the highest
precision asked for, serves every m and the mirrored summand n+e of
I(m', -e).  Consecutive summands share almost all of it:
body(a, b) = body(a-1, b-1) / ((1 - q^a)(1 - q^b)) (Andrews, "The
Theory of Partitions", ch. 1), and dividing by (1 - q^k) is one running
sum along each residue class mod 2k half-units.  A body walks down its
diagonal to the nearest body cached to the precision asked, or to its
row 1/(q;q)_(b-a), and divides back up.  Only rows are inverted, and
always cold.  A representative's sum, whose leads rise, asks for its
bodies in order of n at falling precision, so each after its first is
one division.  A dipping sum asks for them at rising precision and
walks further: _direct(12, -6, 18) makes 48 divisions.  ind41 at
half-exponent 500 sums 2,024 summands over 253 bodies, and
tet_index(0, 0, 2400) takes 0.011-0.015 s from cold caches.

Two sums over n give an index, both memoized in the one index cache.
`_direct`, above, adds one summand series per n, each from `tet_term`
and the body cache; `tet_index` sums by it alone, because
bench/run.py pins `series.add` and `tet_term` on its kernel workloads
and `_horner` calls neither.  `_horner` is Horner's scheme in n on the
summand ratio -q^(n-m) / ((1 - q^n)(1 - q^(n+e))) (Gasper and Rahman,
"Basic Hypergeometric Series", ch. 1): one list of coefficients,
monomial adds and divisions by (1 - q^k), no body and no inverse.  A
dipping sum costs it only a longer list, so the identity checks, which
sum every side of a triality or duality as it stands, use it.
The minimal degree of I(m, e), which drives every downstream truncation
bound, is exact and in closed form (Garoufalidis, "The 3D index of an
ideal triangulation and angle structures"); no series is evaluated to
find it.
"""

from __future__ import annotations

from itertools import accumulate

from .series import QSeries, _from_array, qpoch, zero

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
# (a, b), a <= b -> 1/((q;q)_a (q;q)_b) at the highest precision
# requested so far, shared by summand n of every I(m, e) with
# {n, n + e} = {a, b}
_body_cache: dict[tuple[int, int], QSeries] = {}


def clear_caches() -> None:
    """Drop every kernel memo: indices and summand bodies
    1/((q;q)_a (q;q)_b)."""
    _index_cache.clear()
    _body_cache.clear()


def _divide(out: list[int], k: int) -> None:
    """Divide the coefficients of a series in q, `out`, in place by
    (1 - q^k): one running sum along each even residue class mod 2k."""
    step = 2 * k
    # a class with a single coefficient below len(out) is left as it is
    for r in range(0, min(step, len(out) - step), 2):
        out[r::step] = accumulate(out[r::step])


def _body(a: int, b: int, prec: int) -> QSeries:
    """1/((q;q)_a (q;q)_b), a <= b, truncated at half-exponent `prec`."""
    d, j = b - a, a
    cached = _body_cache.get((j, j + d))
    while j and (cached is None or cached.prec < prec):
        j -= 1
        cached = _body_cache.get((j, j + d))
    if cached is None or cached.prec < prec:
        # the row, inverted cold; bench/run.py pins series.mul on this product by 1
        cached = _body_cache[(0, d)] = (qpoch(0, prec) * qpoch(d, prec)).inverse()
    while j < a:
        j += 1
        out = list(cached.coeffs[:prec])
        _divide(out, j)
        _divide(out, j + d)
        cached = _body_cache[(j, j + d)] = QSeries(0, tuple(out), prec)
    return cached.truncated(prec)


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
    body = _body(min(n, n + e), max(n, n + e), prec - lead)
    return body.scaled(-1 if n % 2 else 1, lead)


def _stop(m: int, e: int, prec: int) -> int:
    """One past the last summand of I(m, e) below half-exponent `prec`.

    term_lead is strictly increasing in n once n >= m, so the first
    n >= max(m, floor) whose lead reaches prec ends the sum exactly."""
    floor = summation_floor(e)
    n = floor
    while not (n >= max(m, floor) and term_lead(n, m, e) >= prec):
        n += 1
    return n


def _direct(m: int, e: int, prec: int) -> QSeries:
    """I(m, e) to half-exponent `prec` by its own sum over n, memoized."""
    key = (m, e)
    cached = _index_cache.get(key)
    if cached is not None and cached.prec >= prec:
        return cached.truncated(prec)
    total = zero(prec)
    for n in range(summation_floor(e), _stop(m, e, prec)):
        total = total + tet_term(n, m, e, prec)
    _index_cache[key] = total
    return total


def _horner(m: int, e: int, prec: int) -> QSeries:
    """I(m, e) to half-exponent `prec` by Horner's scheme in n, memoized.

    The summands of `_direct`, in one list of coefficients from their
    least lead up to `prec`: from the top summand down, add (-1)^n at
    the lead of summand n, then divide by (1 - q^n)(1 - q^(n+e)), the
    ratio of its body to its predecessor's; last divide by the first
    body's (q;q)_floor (q;q)_(floor+e).  Each step only moves
    coefficients up, so the list is exact below `prec` however far the
    leads dip.  All leads share the parity of e*m, so the list is a
    series in q from its first slot, as `_divide` asks."""
    key = (m, e)
    cached = _index_cache.get(key)
    if cached is not None and cached.prec >= prec:
        return cached.truncated(prec)
    floor, top = summation_floor(e), _stop(m, e, prec)
    leads = [term_lead(n, m, e) for n in range(floor, top)]
    low = min(leads, default=prec)
    out = [0] * (prec - low)
    for n in range(top - 1, floor - 1, -1):
        lead = leads[n - floor]
        if lead < prec:
            out[lead - low] += -1 if n % 2 else 1
        if n > floor:
            _divide(out, n)
            _divide(out, n + e)
    for k in range(1, abs(e) + 1):
        _divide(out, k)
    total = _index_cache[key] = _from_array(low, out, prec)
    return total


def _canonical(m: int, e: int) -> tuple[int, int, int]:
    """The representative (m', e') of the orbit of (m, e), and the shift
    h with I(m, e) = (-1)^h q^(h/2) I(m', e').

    The representative is the member with the least first charge,
    m' = -max(|m|, |e|, |m + e|) <= 0, and of two such the one with the
    lesser e'; it is the least (m', e', h) of the six, so every member of
    an orbit has the same one.  The lines m = 0, e = 0 and m + e = 0 cut
    the plane into six sectors, and each branch below is one or two of
    them."""
    s = m + e
    if m >= 0 and e >= 0:
        return -s, m, m
    if m <= 0 and e <= 0:
        return s, -e, -e
    if m > 0:
        return (-m, s, m) if s >= 0 else (e, -s, -e)
    return (m, e, 0) if s <= 0 else (-e, -m, 0)


def tet_index(m: int, e: int, prec: int) -> QSeries:
    """The tetrahedron index I(m, e) truncated at half-exponent `prec`."""
    cached = _index_cache.get((m, e))
    if cached is not None and cached.prec >= prec:
        return cached.truncated(prec)
    m, e, shift = _canonical(m, e)
    s = _direct(m, e, prec - shift)
    return s.scaled(-1 if shift % 2 else 1, shift)


def tet_min_degree(m: int, e: int) -> int:
    """Half-exponent of the lowest nonzero coefficient of I(m, e).

    Exact, in closed form (Garoufalidis): with x+ = max(x, 0),
        m+ (m+e)+ + (-m)+ e+ + (-e)+ (-m-e)+ + max(0, m, -e).
    The lines m = 0, e = 0 and m + e = 0 cut the plane into three
    sectors, on each of which one product survives; the branches below
    are that same formula, sector by sector.  It does not grow in every
    charge direction: it is 0 on the whole rays m = 0, e >= 0 and
    e = 0, m <= 0.
    """
    if m >= 0 and m + e >= 0:
        return m * (m + e) + m
    if m < 0 and e >= 0:
        return -m * e
    return e * (m + e) - e


# Former names of the degree bound, kept bound to the one exact function
# because bench/spans.py traces the degree layer under these names.
min_degree_bound = analytic_degree_lb = tet_min_degree


def term_degree(charges, pref_h: int) -> int:
    """Exact minimal degree of q^(pref_h/2) * prod_i I(m_i, e_i).

    A charge-sum term contributes below half-exponent H iff this is < H.
    """
    return pref_h + sum(tet_min_degree(m, e) for m, e in charges)
