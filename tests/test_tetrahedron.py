import pytest

from oracle import naive_min_degree, naive_tet_index, same_to_order
from tetindex.series import equal_to_order
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

    def test_memoization_transparency(self):
        warm = tet_index(-2, 3, 16)
        clear_caches()
        cold = tet_index(-2, 3, 16)
        assert warm == cold


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

    def test_bound_is_conservative(self):
        clear_caches()
        lb = min_degree_bound(0, -6)
        assert lb <= tet_min_degree(0, -6)
        assert tet_index(0, -6, lb).is_zero
        clear_caches()


class TestCacheConsistency:
    def test_truncation_of_cached_high_precision(self):
        clear_caches()
        hi = tet_index(1, 1, 24)
        lo = tet_index(1, 1, 10)
        assert equal_to_order(hi, lo, 10)
        assert lo.prec == 10
