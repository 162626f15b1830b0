import itertools

import pytest

from oracle import naive_pentagon_lhs, naive_pentagon_rhs, same_to_order
from tetindex.errors import StabilizationError
from tetindex.identities import (
    compare_series,
    pentagon_check,
    pentagon_lhs,
    pentagon_rhs,
    pentagon_shifted_check,
    pentagon_shifted_lhs,
    pentagon_shifted_rhs,
    pentagon_window_extent,
    triality_check,
)
from tetindex.series import equal_to_order, monomial, one
from tetindex.tetrahedron import tet_index


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
            bigger = pentagon_rhs(*args, 8, min_window=extent + 8)
            assert equal_to_order(base, bigger, 8)

    def test_window_cap_errors_loudly(self):
        with pytest.raises(StabilizationError):
            pentagon_rhs(0, 0, 0, 0, 8, cap=0)

    def test_degenerate_precision_vacuous(self):
        assert pentagon_check(2, 2, 2, 2, 0).holds

    @pytest.mark.parametrize("kwargs", [{"margin": 0}, {"margin": -1}, {"cap": -1}])
    def test_vacuous_window_arguments_rejected(self, kwargs):
        # a margin below 1 would accept a window on the tail screen alone
        for check in (pentagon_check, pentagon_rhs, pentagon_window_extent):
            with pytest.raises(ValueError):
                check(0, 0, 0, 0, 8, **kwargs)
        with pytest.raises(ValueError):
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
        bigger = pentagon_shifted_rhs(0, 0, 0, 0, 1, 8, min_window=20)
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
