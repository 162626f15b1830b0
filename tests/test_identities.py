import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import naive_pentagon_lhs, naive_pentagon_rhs, naive_tet_index, same_to_order
from test_lattice import _cube_sum
from tetindex import lattice, tetrahedron
from tetindex.errors import StabilizationError
from tetindex.identities import (
    _members_window,
    _pentagon_sum,
    compare_series,
    duality_check,
    pentagon_check,
    pentagon_lhs,
    pentagon_rhs,
    pentagon_shifted_check,
    pentagon_shifted_lhs,
    pentagon_shifted_rhs,
    pentagon_window_extent,
    triality_check,
)
from tetindex.lattice import (
    AffineForm,
    LatticeSumExpr,
    _Certificate,
    _faces,
    _low_ends,
    _low_points,
    eval_expr_with_box,
)
from tetindex.series import equal_to_order, monomial, one
from tetindex.tetrahedron import clear_caches, term_degree, tet_index


class TestCompare:
    def test_holds(self):
        rep = compare_series(one(8), one(8), 8)
        assert rep.holds and rep.first_mismatch is None

    def test_first_mismatch_location(self):
        rep = compare_series(one(8), one(8) + monomial(3, 5, 8), 8)
        assert not rep.holds
        assert rep.first_mismatch == (5, 0, 3)


class TestTriality:
    def test_origin_trivial(self):
        assert triality_check(0, 0, 8).holds

    def test_mixed_parity(self):
        assert triality_check(1, 0, 12).holds

    def test_negative_charges(self):
        assert triality_check(-2, 3, 12).holds

    @pytest.mark.parametrize("m,e", [(m, e) for m in range(-3, 4) for e in range(-3, 4)])
    def test_small_sweep(self, m, e):
        assert triality_check(m, e, 12).holds

    def test_degenerate_precision_vacuous(self):
        rep = triality_check(5, -5, 0)
        assert rep.holds and rep.verified_to == 0

    def test_sides_are_independent_direct_sums(self):
        # from cold caches, each side is summed under its own charge key
        # and nothing else is: no side is derived from another member
        m, e, prec = 3, -1, 24
        clear_caches()
        assert triality_check(m, e, prec).holds
        cache = tetrahedron._index_cache
        want = {(m, e): prec, (-e - m, m): prec - m, (e, -e - m): prec + e}
        assert {key: s.prec for key, s in cache.items()} == want

    def test_a_wrong_side_is_caught(self):
        m, e, prec = 3, -1, 24
        for key, p in [((m, e), prec), ((-e - m, m), prec - m), ((e, -e - m), prec + e)]:
            clear_caches()
            true = tetrahedron._direct(*key, p)
            tetrahedron._index_cache[key] = true + monomial(1, p - 1, p)
            rep = triality_check(m, e, prec)
            assert not rep.holds and rep.first_mismatch[0] == prec - 1
        clear_caches()


class TestDuality:
    @pytest.mark.parametrize("m", range(-5, 6))
    def test_grid_against_oracle(self, m):
        for e in range(-5, 6):
            assert duality_check(m, e, 40).holds
            want = naive_tet_index(m, e, 40)
            assert want == naive_tet_index(-e, -m, 40)
            assert same_to_order(want, tet_index(-e, -m, 40), 40)

    def test_sides_are_independent_direct_sums(self):
        clear_caches()
        assert duality_check(2, 3, 20).holds
        assert {k: s.prec for k, s in tetrahedron._index_cache.items()} == {
            (2, 3): 20, (-3, -2): 20,
        }

    def test_a_wrong_side_is_caught(self):
        for key in [(2, 3), (-3, -2)]:
            clear_caches()
            tetrahedron._index_cache[key] = (
                tetrahedron._direct(*key, 20) + monomial(-1, 19, 20)
            )
            rep = duality_check(2, 3, 20)
            assert not rep.holds and rep.first_mismatch[0] == 19
        clear_caches()

    def test_degenerate_precision_vacuous(self):
        rep = duality_check(4, -1, 0)
        assert rep.holds and rep.verified_to == 0


class TestPentagon:
    def test_all_zero_lhs_is_square(self):
        lhs = pentagon_lhs(0, 0, 0, 0, 8)
        sq = tet_index(0, 0, 8) * tet_index(0, 0, 8)
        assert equal_to_order(lhs, sq.truncated(8), 8)

    def test_substitution(self):
        lhs = pentagon_lhs(1, 0, 0, 0, 10)
        direct = tet_index(1, 0, 30) * tet_index(0, 0, 30)
        assert equal_to_order(lhs, direct.truncated(10), 10)

    @pytest.mark.parametrize(
        "args", [(0, 0, 0, 0), (1, 0, 0, 0), (1, -1, 2, 0), (0, 0, 1, -1)]
    )
    def test_identity_examples(self, args):
        assert pentagon_check(*args, 8).holds

    def test_rhs_against_oracle(self):
        for args in [(0, 0, 0, 0), (0, 0, 1, -1), (1, -1, 2, 0)]:
            rhs = pentagon_rhs(*args, 6)
            assert same_to_order(naive_pentagon_rhs(*args, 6), rhs, 6)

    def test_lhs_against_oracle(self):
        for args in [(0, 0, 0, 0), (2, -1, 0, 1)]:
            assert same_to_order(naive_pentagon_lhs(*args, 8), pentagon_lhs(*args, 8), 8)

    def test_window_enlargement_stability(self):
        for args in [(0, 0, 0, 0), (1, -1, 2, 0), (-2, 2, -1, 1)]:
            base = pentagon_rhs(*args, 8)
            extent = pentagon_window_extent(*args, 8)
            bigger = _cube_sum(_pentagon_sum(*args), extent + 8, 8)
            assert equal_to_order(base, bigger, 8)

    def test_window_cap_errors_loudly(self, monkeypatch):
        monkeypatch.setattr(lattice, "POINT_BUDGET", 0)
        with pytest.raises(StabilizationError, match="POINT_BUDGET = 0"):
            pentagon_rhs(0, 0, 0, 0, 8)

    @pytest.mark.parametrize(
        "rhs, args, what",
        [
            (pentagon_rhs, (0, 0, 0, 0), "pentagon window"),
            (pentagon_shifted_rhs, (0, 0, 0, 0, 1), "shifted-pentagon window"),
        ],
    )
    def test_cap_error_names_the_window(self, rhs, args, what, monkeypatch):
        # the work bound names the window and says it converges
        monkeypatch.setattr(lattice, "POINT_BUDGET", 0)
        with pytest.raises(StabilizationError, match=f"^{what} converges .* POINT_BUDGET"):
            rhs(*args, 8)

    def test_degenerate_precision_vacuous(self):
        assert pentagon_check(2, 2, 2, 2, 0).holds

    @pytest.mark.parametrize("kwargs", [{"margin": 0}, {"margin": -1}, {"cap": -1}])
    def test_vacuous_window_arguments_rejected(self, kwargs):
        # the window is the farthest low point, with no margin or cap to set
        for check in (pentagon_check, pentagon_rhs, pentagon_window_extent):
            with pytest.raises(TypeError):
                check(0, 0, 0, 0, 8, **kwargs)
        with pytest.raises(TypeError):
            pentagon_shifted_check(0, 0, 0, 0, 1, 8, **kwargs)


class TestShiftedPentagon:
    def test_e0_zero_matches_unshifted_product(self):
        # at e0 = 0 the lhs is the rotated two-index product
        lhs = pentagon_shifted_lhs(1, 0, 1, 0, 0, 8)
        rhs = pentagon_shifted_rhs(1, 0, 1, 0, 0, 8)
        assert equal_to_order(lhs, rhs, 8)

    @pytest.mark.parametrize(
        "args", [(0, 0, 0, 0, 1), (1, 0, 1, 0, -1), (1, -1, 0, 1, 1)]
    )
    def test_identity_examples(self, args):
        assert pentagon_shifted_check(*args, 8).holds

    def test_window_enlargement_stability(self):
        base = pentagon_shifted_rhs(0, 0, 0, 0, 1, 8)
        bigger = _cube_sum(_pentagon_sum(0, 0, 0, 0, 1, 0), 20, 8)
        assert equal_to_order(base, bigger, 8)

    def test_degenerate_precision_vacuous(self):
        assert pentagon_shifted_check(1, 1, 1, 1, 1, -2).holds


class TestSweeps:
    # the full sweeps run in the acceptance suite; these are spot checks
    def test_pentagon_corners(self):
        for m1, m2, e1, e2 in itertools.product((-2, 2), repeat=4):
            assert pentagon_check(m1, m2, e1, e2, 8).holds

    def test_shifted_corners(self):
        for tup in itertools.product((-1, 1), repeat=5):
            assert pentagon_shifted_check(*tup, 8).holds


def _max_form(m, e):
    return (
        max(m, 0) * max(m + e, 0)
        + max(-m, 0) * max(e, 0)
        + max(-e, 0) * max(-m - e, 0)
        + max(0, m, -e)
    )


_slope = st.integers(-3, 3)


def _factors(offset):
    return st.lists(st.tuples(_slope, offset, _slope, offset), min_size=1, max_size=3)


@st.composite
def _low_term_off_origin(draw):
    """(factors, pref, prec, j0): a rank-1 term of the `_factors` shape
    with a low term at j0 != 0 by construction.  Every charge is at most
    2 in size at j0 and H lies above that term's degree; slopes stay in
    [-3, 3] and offsets below 300, as in the wide distribution."""
    j0 = draw(st.integers(-96, 96).filter(bool))
    small = st.integers(-2, 2)
    factors = [
        (a, m - a * j0, c, e - c * j0)
        for a, m, c, e in draw(
            st.lists(st.tuples(_slope, small, _slope, small), min_size=1, max_size=3)
        )
    ]
    slope, h0 = draw(_slope), draw(st.integers(-8, 8))
    degree = h0 + sum(_max_form(b + a * j0, d + c * j0) for a, b, c, d in factors)
    return factors, (slope, h0 - slope * j0), degree + draw(st.integers(1, 12)), j0


def _check_against_scan(factors, pref, prec, horizon):
    def charges(j):
        return tuple((a * j + b, c * j + d) for a, b, c, d in factors)

    def degree(j):
        return pref[0] * j + pref[1] + sum(_max_form(m, e) for m, e in charges(j))

    expr = _rank1_expr(factors, pref)
    scan = [j for j in range(-horizon, horizon + 1) if degree(j) < prec]
    far = 10**7
    diverges = any(abs(j) > horizon - 100 for j in scan) or min(
        degree(far), degree(-far)
    ) < prec
    if diverges:
        with pytest.raises(StabilizationError, match="diverges"):
            _low_points(_Certificate(expr, prec))
        return
    extent, points = _low_points(_Certificate(expr, prec))
    assert extent == max((abs(j) for j in scan if j), default=0)
    assert sorted(points) == [(j,) for j in scan if j]


def _rank1_expr(factors, pref):
    """The term of `_check_against_scan` as a rank-1 lattice sum: charges
    in whole units, the prefactor in half-units."""
    return LatticeSumExpr(
        ("j",), 1, AffineForm((pref[0],), pref[1]),
        tuple((AffineForm((2 * a,), 2 * b), AffineForm((2 * c,), 2 * d))
              for a, b, c, d in factors),
    )


def _term_expr(term):
    """The rank-1 sum of an affine term j -> (charges, pref_h), read from
    its values at j = 0 and j = 1."""
    (charges0, p0), (charges1, p1) = term(0), term(1)
    return _rank1_expr(
        [(m1 - m0, m0, e1 - e0, e0) for (m0, e0), (m1, e1) in zip(charges0, charges1)],
        (p1 - p0, p0),
    )


def _certificate(term, prec):
    """The certificate of an affine term's rank-1 sum at `prec`."""
    return _Certificate(_term_expr(term), prec)


def _face_runs(term, prec):
    """The runs of the faces +1 and -1 of an affine term's rank-1 sum."""
    cert = _certificate(term, prec)
    return [cert.runs(face) for face in _faces(1)]


def _check_low_terms_sum(factors, pref, prec):
    # the evaluator sums the origin and the low terms of its runs only;
    # every term of the full window, and one more on each side, must add
    # up to the same series
    expr = _rank1_expr(factors, pref)
    try:
        s, extent = eval_expr_with_box(expr, prec)
    except StabilizationError:
        return  # the verdicts are checked against the scan above
    assert s == _cube_sum(expr, extent + 1, prec)


class TestRank1Extent:
    """Rank-1 truncation, through `_low_points`, against a brute-force
    scan of the term degree: the window reaches the farthest nonzero low
    j, the low points are the scan's, and the divergence verdict agrees
    with the scan.

    With slopes in [-3, 3] and offsets up to 300, every zero of an m, e
    or m + e lies within |j| <= 600, and past them each factor's degree
    is convex and nonnegative.  So a convergent sum has no low term
    beyond |j| of about 1500 (prefactor -3j - 300 and one factor of
    degree 4(j - 297) come closest), and a divergent one, whose degree is
    linear and falling or constant below H, has every term low past |j|
    of about 6 * 10^5.  The scan over |j| <= 2000 is exact for the first,
    and the probe at |j| = 10^7 catches the second where the scan cannot.
    Offsets up to 12 pack the zeros into short pieces, many of them
    concave, and a higher H leaves many low terms inside them; there no
    convergent sum has a low term past |j| of about 200.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        factors=_factors(st.integers(-300, 300)),
        pref=st.tuples(_slope, st.integers(-300, 300)),
        prec=st.integers(-4, 20),
    )
    def test_matches_brute_force(self, factors, pref, prec):
        _check_against_scan(factors, pref, prec, 2000)

    @settings(max_examples=80, deadline=None)
    @given(term=_low_term_off_origin())
    def test_low_term_off_origin_matches_brute_force(self, term):
        factors, pref, prec, _ = term
        _check_against_scan(factors, pref, prec, 2000)

    @settings(max_examples=300, deadline=None)
    @given(
        factors=_factors(st.integers(-12, 12)),
        pref=st.tuples(_slope, st.integers(-12, 12)),
        prec=st.integers(-10, 80),
    )
    def test_short_pieces_match_brute_force(self, factors, pref, prec):
        _check_against_scan(factors, pref, prec, 400)

    @settings(max_examples=100, deadline=None)
    @given(
        factors=_factors(st.integers(-300, 300)),
        pref=st.tuples(_slope, st.integers(-300, 300)),
        prec=st.integers(-4, 20),
    )
    def test_low_terms_sum_is_the_window_sum(self, factors, pref, prec):
        _check_low_terms_sum(factors, pref, prec)

    @settings(max_examples=60, deadline=None)
    @given(term=_low_term_off_origin())
    def test_low_term_off_origin_sum_is_the_window_sum(self, term):
        factors, pref, prec, j0 = term
        _check_low_terms_sum(factors, pref, prec)
        try:
            _, extent = eval_expr_with_box(_rank1_expr(factors, pref), prec)
        except StabilizationError:
            return
        assert extent >= abs(j0)

    @settings(max_examples=200, deadline=None)
    @given(
        factors=_factors(st.integers(-12, 12)),
        pref=st.tuples(_slope, st.integers(-12, 12)),
        prec=st.integers(-10, 40),
    )
    # a concave piece whose run (1, 3) covers the high term at j = 2
    @example(factors=[(1, -4, 3, 2)], pref=(2, 1), prec=19)
    def test_short_pieces_low_terms_sum_is_the_window_sum(self, factors, pref, prec):
        _check_low_terms_sum(factors, pref, prec)

    def test_concave_run_covers_a_high_term(self):
        # keeps the example above meaningful: the run is walked, and its
        # high term is left out of the sum
        def term(j):
            return ((j - 4, 3 * j + 2),), 2 * j + 1

        plus, _ = _face_runs(term, 19)
        assert (1, 3) in plus
        assert [term_degree(*term(j)) < 19 for j in (1, 2, 3)] == [True, False, True]

    @settings(max_examples=600, deadline=None)
    @given(
        d=st.integers(-30, 30),
        slope=st.integers(-15, 15),
        curve=st.integers(-4, 4),
        n=st.none() | st.integers(0, 30),
        prec=st.integers(-30, 30),
    )
    # concave pieces low only at their start, only at their end, at both
    # ends and nowhere; a convex one low in its middle; a rising ray
    @example(d=0, slope=5, curve=-1, n=5, prec=3)
    @example(d=3, slope=0, curve=-1, n=5, prec=0)
    @example(d=0, slope=5, curve=-2, n=8, prec=3)
    @example(d=3, slope=1, curve=-1, n=3, prec=0)
    @example(d=9, slope=-6, curve=2, n=6, prec=3)
    @example(d=9, slope=-6, curve=2, n=None, prec=3)
    def test_low_ends_match_brute_force(self, d, slope, curve, n, prec):
        # one piece alone: the ends of its low values against a scan; a
        # ray (n None) is convex or rising, and then no low value lies
        # past t of about 50, so a scan to 2000 is exact
        if n is None and (curve < 0 or curve == 0 and slope <= 0):
            return
        top = 2000 if n is None else n
        low = [
            t
            for t in range(top + 1)
            if d + slope * t + curve * (t * (t - 1) // 2) < prec
        ]
        want = (low[0], low[-1]) if low else None
        assert _low_ends(d, slope, curve, n, prec) == want

    def test_translated_pentagon_window(self):
        # sum over j of I(250 - j, j - 250) is a translate of the sum of
        # I(j, -j): its low terms sit around j = 250, far past any finite
        # screen of the window's edge
        def term(j):
            return ((250 - j, j - 250),), 0

        assert _low_points(_certificate(term, 8))[0] == 252

    def test_far_zero_costs_one_piece(self):
        # the zeros of m and m + e sit at j = 10^6; the one low term is
        # found from the pieces around it, not by a scan out to it
        def term(j):
            return ((10**6 - j, j),), 0

        extent, points = _low_points(_certificate(term, 8))
        assert (extent, list(points)) == (10**6, [(10**6,)])

    def test_long_flat_piece_is_solved_not_walked(self, monkeypatch):
        # degree 0 on every j in [0, 10^9] and 2 at j = 10^9 + 1: the
        # ends of the piece are found by bisection, and the walk over its
        # 10^9 low terms stops at the work bound
        def term(j):
            return ((0, j), (j - 10**9, 0)), 0

        plus, minus = _face_runs(term, 2)
        assert max(last for _, last in plus) == 10**9 and minus == []
        monkeypatch.setattr(lattice, "POINT_BUDGET", 48)
        with pytest.raises(StabilizationError, match="converges .* POINT_BUDGET = 48"):
            _low_points(_certificate(term, 2))

    def test_deep_convex_dip(self, monkeypatch):
        # degree j(j - (2*10^6 - 1)) for j >= 0, below 0 exactly on
        # 0 < j < 2*10^6 - 1; for j < 0 only the prefactor, -2*10^6*j,
        # is left, so no low term there.  The run is solved, not walked,
        # and a small work bound stops the walk from its far end
        def term(j):
            return ((j, 0),), -2 * 10**6 * j

        assert _face_runs(term, 0) == [[(1, 2 * 10**6 - 2)], []]
        monkeypatch.setattr(lattice, "POINT_BUDGET", 64)
        with pytest.raises(StabilizationError, match="POINT_BUDGET = 64"):
            _low_points(_certificate(term, 0))

    @pytest.mark.parametrize(
        "term, prec, far",
        [
            # degree j^2 - 5j + 12 for j >= 1: 8 at j = 1, then 6, 6, 8, so
            # the walk must not stop at the first value that clears H = 8
            (lambda j: (((j, 0),), 12 - 6 * j), 8, 3),
            # degree j^2 - 8j + 15 for j >= 1: its differences -5, -3, -1,
            # 1 first turn nonnegative at j = 4, where the one low value
            # -1 sits, so the step to the minimum, 2.5, rounds up
            (lambda j: (((j, 0),), 15 - 9 * j), 0, 4),
        ],
    )
    def test_dip_past_the_start_of_a_ray(self, term, prec, far):
        assert _low_points(_certificate(term, prec))[0] == far

    @pytest.mark.parametrize(
        "term",
        [
            lambda j: (((0, j),), -2 * j),  # degree -2j for j >= 0
            lambda j: (((0, j),), 0),  # degree 0 for every j >= 0
            lambda j: (((j, 0),), 1),  # degree 1 for every j <= 0
        ],
    )
    def test_falling_or_flat_tail_diverges(self, term):
        with pytest.raises(StabilizationError, match=r"along the line j \* \(-?1,\) diverges"):
            _low_points(_certificate(term, 4))


class TestGrowSymmetricWindow:
    """The Bailey step window `_members_window`, on families of rank-1
    sums: `dip(c)` has terms of degree |j-c| (|j-c| + 1), so below
    half-exponent 8 exactly on |j - c| <= 2 and below 1 only at j = c."""

    @staticmethod
    def dip(c):
        return _term_expr(lambda j: (((0, j - c), (0, c - j)), 0))

    @staticmethod
    def window(members, prec):
        return _members_window(members, prec, "Bailey step window")

    def test_low_terms_near_the_origin(self):
        assert self.window([self.dip(0)], 8) == 2

    def test_a_dip_in_the_tail_widens_the_window(self):
        # the widest member sets the window
        assert self.window([self.dip(0), self.dip(150)], 8) == 152
        assert self.window([self.dip(150), self.dip(0)], 8) == 152

    def test_a_dip_past_the_old_horizon_is_seen(self):
        # the only low term lies 206 out, past the 200 positions that a
        # finite tail screen behind a converged window used to look at
        assert self.window([self.dip(-206)], 1) == 206

    def test_a_far_dip_is_solved_not_walked(self):
        assert self.window([self.dip(10**6)], 1) == 10**6

    def test_no_member_has_window_zero(self):
        assert self.window([], 8) == 0

    def test_cap_error(self, monkeypatch):
        # the work bound holds for each member: dip(0) tests 4 points
        # and dip(150) 5
        monkeypatch.setattr(lattice, "POINT_BUDGET", 4)
        assert self.window([self.dip(0)], 8) == 2
        with pytest.raises(StabilizationError, match="^Bailey step window converges"):
            self.window([self.dip(0), self.dip(150)], 8)

    def test_divergent_member_raises(self):
        # I(0, j) has degree 0 for every j >= 0
        flat = _term_expr(lambda j: (((0, j),), 0))
        with pytest.raises(StabilizationError, match="Bailey step window along .* diverges"):
            self.window([self.dip(0), flat], 1)
