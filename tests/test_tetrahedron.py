import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_min_degree, naive_tet_index, naive_tet_term, same_to_order
from tetindex import series, tetrahedron
from tetindex.identities import triality_check
from tetindex.series import QSeries, equal_to_order, one, qpoch
from tetindex.tetrahedron import (
    clear_caches,
    min_degree_bound,
    tet_index,
    tet_min_degree,
    tet_term,
)


class TestTerm:
    def test_n0_trivial_charge(self):
        assert tet_term(0, 0, 0, 8).coefficient(0) == 1

    def test_n1_m1_constant(self):
        s = tet_term(1, 1, 0, 8)
        assert s.lead == 0 and s.coefficient(0) == -1

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            tet_term(0, 0, -1, 8)


class TestIndex:
    def test_constant_term_at_origin(self):
        assert tet_index(0, 0, 8).coefficient(0) == 1

    def test_low_coefficients_small_charges(self):
        assert tet_index(0, 1, 8).coefficient(0) == 1
        s = tet_index(0, -1, 8)
        assert s.coefficient(0) == 0 and s.coefficient(2) == -1

    def test_against_oracle_m1_e0(self):
        assert same_to_order(naive_tet_index(1, 0, 13), tet_index(1, 0, 13), 13)

    @pytest.mark.parametrize("m", range(-4, 5))
    @pytest.mark.parametrize("e", range(-4, 5))
    def test_early_stop_soundness_grid(self, m, e):
        assert same_to_order(naive_tet_index(m, e, 12), tet_index(m, e, 12), 12)

    def test_precision_idempotence(self):
        full = tet_index(2, -3, 20)
        assert tet_index(2, -3, 12) == full.truncated(12)

    def test_deep_charge(self):
        # (q;q)_3000 is needed only to q^5: its factors past 2k >= prec are 1
        clear_caches()
        assert str(tet_index(0, 3000, 10)) == "1 + O(q^5)"

    def test_shared_rows_read_below_build_precision(self):
        # long bodies (the Kronecker product path) built at H=160, in a
        # shuffled charge order, then read truncated at H=40 with the
        # index cache emptied but the bodies kept
        clear_caches()
        grid = [(m, e) for m in range(-3, 4) for e in range(-3, 4)]
        random.Random(160).shuffle(grid)
        for prec in (160, 40):
            tetrahedron._index_cache.clear()
            for m, e in grid:
                want = naive_tet_index(m, e, prec)
                assert same_to_order(want, tet_index(m, e, prec), prec)

    def test_memoization_transparency(self):
        warm = tet_index(-2, 3, 16)
        clear_caches()
        cold = tet_index(-2, 3, 16)
        assert warm == cold


class TestHighPrecision:
    """Indices at high precision: I(0, 0) at 1200, whose bodies are
    divided from their predecessors, and a ladder whose first body
    resumes its inversion from the step before."""

    def test_origin_at_1200(self):
        clear_caches()
        assert same_to_order(naive_tet_index(0, 0, 1200), tet_index(0, 0, 1200), 1200)

    def test_resumed_ladder(self):
        # each step resumes the first body of the step before
        clear_caches()
        for prec in (200, 400, 800):
            s = tet_index(1, 5, prec)
            assert s.prec == prec
            assert same_to_order(_naive(1, 5, prec), s, prec)


class TestMinDegree:
    def test_origin(self):
        assert tet_min_degree(0, 0) == 0

    def test_negative_electric_charge(self):
        assert tet_min_degree(0, -1) == 2

    @pytest.mark.parametrize("m", range(-8, 9))
    @pytest.mark.parametrize("e", range(-8, 9))
    def test_grid_against_oracle(self, m, e):
        d = tet_min_degree(m, e)
        assert d == naive_min_degree(m, e, d + 2)

    def test_degree_matches_series_lead(self):
        d = tet_min_degree(3, -2)
        s = tet_index(3, -2, d + 8)
        assert s.lead == d

    def test_branch_form_equals_max_form(self):
        def max_form(m, e):
            return (
                max(m, 0) * max(m + e, 0)
                + max(-m, 0) * max(e, 0)
                + max(-e, 0) * max(-m - e, 0)
                + max(0, m, -e)
            )

        span = range(-200, 201)
        assert all(tet_min_degree(m, e) == max_form(m, e) for m in span for e in span)

    def test_bound_is_conservative(self):
        clear_caches()
        lb = min_degree_bound(0, -6)
        assert lb <= tet_min_degree(0, -6)
        assert tet_index(0, -6, lb).is_zero
        clear_caches()


class TestCacheConsistency:
    def test_clear_caches_drops_every_kernel_memo(self):
        # the index and body caches are the only module-level memos of
        # the kernel and the series ring
        def memos(module):
            return {
                name
                for name, value in vars(module).items()
                if isinstance(value, dict) and not name.startswith("__")
            }

        tet_index(2, 3, 30)
        assert memos(tetrahedron) == {"_index_cache", "_body_cache"}
        assert memos(series) == set()
        assert tetrahedron._index_cache and tetrahedron._body_cache
        clear_caches()
        assert not tetrahedron._index_cache
        assert not tetrahedron._body_cache

    def test_mirrored_summands_share_one_body(self):
        # summand n of I(m, e) and summand n + e of I(m', -e) both divide
        # by (q;q)_n (q;q)_{n+e}: the second reads the (2, 5) entry that
        # the first cached, and makes no body of its own
        clear_caches()
        first = tet_term(2, -1, 3, 40)
        cached = dict(tetrahedron._body_cache)
        assert (2, 5) in cached
        second = tet_term(5, 2, -3, 40)
        assert tetrahedron._body_cache == cached
        assert all(tetrahedron._body_cache[k] is v for k, v in cached.items())
        for (n, m, e), got in (((2, -1, 3), first), ((5, 2, -3), second)):
            assert same_to_order(naive_tet_term(n, m, e, 40), got, 40)

    def test_shuffled_grid_at_mixed_precisions(self):
        # one body cache across every charge and precision, the index
        # cache emptied between precisions so that bodies are read both
        # truncated and regrown
        clear_caches()
        rng = random.Random(40)
        grid = [(m, e) for m in range(-5, 6) for e in range(-5, 6)]
        for prec in (80, 40, 160, 40, 80):
            tetrahedron._index_cache.clear()
            rng.shuffle(grid)
            for m, e in grid:
                s = tet_index(m, e, prec)
                assert s.prec == prec
                assert same_to_order(_naive(m, e, prec), s, prec)

    def test_truncation_of_cached_high_precision(self):
        clear_caches()
        hi = tet_index(1, 1, 24)
        lo = tet_index(1, 1, 10)
        assert equal_to_order(hi, lo, 10)
        assert lo.prec == 10


@functools.lru_cache(maxsize=None)
def _naive(m, e, prec):
    return naive_tet_index(m, e, prec)


def _orbit(m, e):
    """The six members (m', e') of the duality/triality orbit of (m, e),
    each with the shift h of I(m, e) = (-1)^h q^(h/2) I(m', e')."""
    return [
        ((m, e), 0), ((-e, -m), 0),
        ((-e - m, m), m), ((-m, e + m), m),
        ((e, -e - m), -e), ((e + m, -e), -e),
    ]


def _orbits_meeting(r):
    """The orbits that meet [-r, r]^2, each as the list of its distinct
    members."""
    seen, orbits = set(), []
    for m in range(-r, r + 1):
        for e in range(-r, r + 1):
            if (m, e) not in seen:
                members = sorted({c for c, _ in _orbit(m, e)})
                seen.update(members)
                orbits.append(members)
    return orbits


_ORBIT_CHARGES = [(3, -1), (2, 2), (4, -6), (1, -5), (-3, 5), (5, 0), (-2, -2)]


class TestOrbit:
    @pytest.mark.parametrize("m,e", _ORBIT_CHARGES)
    def test_orbit_relations_hold_in_the_oracle(self, m, e):
        # the relations the kernel derives charges by, checked on the
        # package-free reference alone
        prec = 30
        want = _naive(m, e, prec)
        for (a, b), h in _orbit(m, e):
            sign = -1 if h % 2 else 1
            got = {k + h: sign * c for k, c in _naive(a, b, prec - h).items()}
            assert got == want

    def test_grid_from_cold_caches_in_shuffled_order(self):
        clear_caches()
        grid = [(m, e) for m in range(-8, 9) for e in range(-8, 9)]
        random.Random(8).shuffle(grid)
        for m, e in grid:
            s = tet_index(m, e, 160)
            assert s.prec == 160
            assert same_to_order(naive_tet_index(m, e, 160), s, 160)

    @pytest.mark.parametrize("m,e", _ORBIT_CHARGES)
    def test_mixed_precision_across_an_orbit(self, m, e):
        # a member first, then the charge at the member's precision moved
        # by +-shift, and the reverse; every answer at its own precision
        p = 30
        for (a, b), h in _orbit(m, e):
            for d in (h, -h):
                orders = [((a, b, p), (m, e, p + d)), ((m, e, p), (a, b, p + d))]
                for first, then in orders:
                    clear_caches()
                    for x, y, prec in (first, then):
                        s = tet_index(x, y, prec)
                        assert s.prec == prec
                        assert same_to_order(_naive(x, y, prec), s, prec)

    def test_only_direct_sums_are_cached(self):
        # I(3, -1) is derived from I(-3, 2), which alone is summed
        clear_caches()
        s = tet_index(3, -1, 30)
        assert set(tetrahedron._index_cache) == {(-3, 2)}
        assert tetrahedron._index_cache[(-3, 2)].prec == 27
        assert same_to_order(_naive(3, -1, 30), s, 30)

    def test_steeper_dual_is_chosen(self):
        # I(-1, 4) and its dual I(-4, 1) both sum without cancellation;
        # the dual's leads climb faster
        clear_caches()
        tet_index(-1, 4, 20)
        assert set(tetrahedron._index_cache) == {(-4, 1)}

    def test_representative_is_the_least_member(self):
        # the closed form is the least (m', e', h) of the six, and every
        # member of an orbit is sent to the same (m', e')
        span = range(-30, 31)
        for m in span:
            for e in span:
                rep = tetrahedron._canonical(m, e)
                assert rep == min((*c, h) for c, h in _orbit(m, e))
                for c, _ in _orbit(m, e):
                    assert tetrahedron._canonical(*c)[:2] == rep[:2]

    def test_one_sum_per_orbit_from_cold_caches(self):
        # every member of every orbit that meets [-8, 8]^2, in a shuffled
        # order at mixed precisions, is answered from one cached sum: the
        # member with the least first charge, then the least second
        rng = random.Random(32)
        for members in _orbits_meeting(8):
            clear_caches()
            rng.shuffle(members)
            for i, (m, e) in enumerate(members):
                prec = (20, 40, 30)[i % 3]
                s = tet_index(m, e, prec)
                assert s.prec == prec
                assert same_to_order(_naive(m, e, 40), s, prec)
            assert set(tetrahedron._index_cache) == {min(members)}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 60)),
            max_size=16,
        )
    )
    def test_no_orbit_is_summed_under_two_keys(self, requests):
        # after any run of tet_index calls every cached key is the least
        # member of its orbit, so no two keys share an orbit
        clear_caches()
        for m, e, prec in requests:
            tet_index(m, e, prec)
        for key in tetrahedron._index_cache:
            assert key == min(c for c, _ in _orbit(*key))

    def test_regrown_first_body_resumes_its_inverse(self, monkeypatch):
        # only a sum's first body, here (0, 3), is inverted; asked for at
        # a higher precision it resumes from its own cached coefficients
        clear_caches()
        tet_index(-3, 3, 40)
        low = tetrahedron._body_cache[(0, 3)]
        resumed = []
        inverse = QSeries.inverse

        def spy(self, *, known=None):
            resumed.append(known)
            return inverse(self, known=known)

        monkeypatch.setattr(QSeries, "inverse", spy)
        tet_index(-3, 3, 160)
        assert len(resumed) == 1 and resumed[0] is low
        body = tetrahedron._body_cache[(0, 3)]
        assert body.prec > low.prec
        assert body == qpoch(3, body.prec).inverse()

    def test_regrown_bodies_equal_cold_bodies(self):
        clear_caches()
        grid = [(m, e) for m in range(-3, 1) for e in range(-3, 4)]
        for m, e in grid:
            tet_index(m, e, 40)
        low = dict(tetrahedron._body_cache)
        tetrahedron._index_cache.clear()
        for m, e in grid:
            tet_index(m, e, 160)
        grown = [k for k in low if tetrahedron._body_cache[k].prec > low[k].prec]
        assert grown
        for (a, b), body in tetrahedron._body_cache.items():
            assert a <= b
            prec = body.prec
            assert body == qpoch(a, prec).inverse() * qpoch(b, prec).inverse()

    def test_predecessor_below_precision_is_regrown(self):
        # summand 3 of I(-3, 2) to q^20 caches body (3, 5) at half-exponent
        # 4 only; summand 4 to q^80 needs (4, 6) at 110, past every body
        # of its diagonal, so the row (0, 2) is resumed to 110 and each
        # body up to (4, 6) is divided from it and cached at 110
        clear_caches()
        tet_index(-3, 2, 40)
        assert tetrahedron._body_cache[(3, 5)].prec == 4
        s = tet_term(4, -3, 2, 160)
        for j in range(5):
            body = tetrahedron._body_cache[(j, j + 2)]
            assert body.prec == 110
            assert body == qpoch(j, 110).inverse() * qpoch(j + 2, 110).inverse()
        assert same_to_order(naive_tet_term(4, -3, 2, 160), s, 160)

    def test_only_rows_are_inverted(self, monkeypatch):
        # the triality checks sum charges with m > 0, whose bodies are
        # asked for past their cached predecessors: each walks down its
        # diagonal to a row, and no divisor is (q;q)_a (q;q)_b with a > 0
        divisors = []
        inverse = QSeries.inverse

        def spy(self, *, known=None):
            divisors.append(self)
            return inverse(self, known=known)

        monkeypatch.setattr(QSeries, "inverse", spy)
        clear_caches()
        for m in range(-6, 7):
            for e in range(-6, 7):
                assert triality_check(m, e, 12).holds
        assert triality_check(20, 7, 600).holds
        assert divisors
        for a in divisors:
            assert any(a == qpoch(b, a.prec) for b in range(64)), a

    def test_deep_lone_summand_walks_without_recursion(self):
        # body (1500, 1500) is 1500 divisions above its row
        clear_caches()
        s = tet_term(1500, 750, 0, 1600)
        assert s.prec == 1600
        assert same_to_order(naive_tet_term(1500, 750, 0, 1600), s, 1600)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(-10, 10), st.integers(-10, 10)).filter(
            lambda c: tetrahedron._canonical(*c) != (*c, 0)
        ),
        st.lists(st.integers(1, 60), min_size=2, max_size=4),
    )
    def test_non_canonical_sums_at_rising_then_falling_precision(self, charge, precs):
        # sums that tet_index never makes, asked for through one set of
        # caches: bodies are walked, regrown and read truncated
        clear_caches()
        m, e = charge
        want = _naive(m, e, max(precs))
        for prec in sorted(precs) + sorted(precs, reverse=True):
            tetrahedron._index_cache.clear()
            s = tetrahedron._direct(m, e, prec)
            assert s.prec == prec
            assert same_to_order(want, s, prec)

    def test_shuffled_requests_share_one_cache(self):
        # every charge of [-6, 6]^2 at three precisions, in one shuffled
        # run over one set of caches: bodies are divided, truncated,
        # inverted and resumed in every order
        clear_caches()
        requests = [
            (m, e, prec)
            for m in range(-6, 7)
            for e in range(-6, 7)
            for prec in (8, 40, 160)
        ]
        random.Random(6).shuffle(requests)
        for m, e, prec in requests:
            s = tet_index(m, e, prec)
            assert s.prec == prec
            assert same_to_order(_naive(m, e, prec), s, prec)


class TestDivide:
    @pytest.mark.parametrize("n,prec", [(1, 2), (5, 40), (20, 30), (34, 600)])
    def test_dividing_qpoch_by_its_factors_gives_one(self, n, prec):
        # factors with 2k >= prec are 1 to this precision, and are
        # divided out as such
        out = list(qpoch(n, prec).coeffs)
        factors = list(range(1, n + 1))
        random.Random(n).shuffle(factors)
        for k in factors:
            tetrahedron._divide(out, k)
        assert QSeries(0, tuple(out), prec) == one(prec)
