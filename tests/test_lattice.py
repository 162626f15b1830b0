import itertools
import random

import pytest

from tetindex.errors import ExprSyntaxError, StabilizationError
from tetindex.identities import pentagon_rhs
from tetindex.lattice import (
    IND41_TEXT,
    _shell,
    box_cap_default,
    eval_expr,
    eval_expr_with_box,
    format_expr,
    ind41,
    load_expr_file,
    parse_expr,
)
from tetindex.series import equal_to_order


class TestParse:
    def test_ind41_structure(self):
        e = parse_expr(IND41_TEXT)
        assert e.vars == ("k1", "k2") and e.sign == 1
        assert e.prefactor.is_zero
        assert [(a.coeffs, b.coeffs) for a, b in e.factors] == [
            ((2, 0), (0, 2)),
            ((0, 2), (2, 0)),
        ]

    def test_prefactor_and_constants(self):
        e = parse_expr("sum k : q^(k) * I(k + 1, -k)")
        assert e.prefactor.coeffs == (2,) and e.prefactor.constant == 0
        a, b = e.factors[0]
        assert a.coeffs == (2,) and a.constant == 2
        assert b.coeffs == (-2,) and b.constant == 0

    def test_half_unit_prefactor(self):
        e = parse_expr("sum k : q^(k/2 + 3/2) * I(k, k)")
        assert e.prefactor.coeffs == (1,) and e.prefactor.constant == 3

    def test_leading_minus(self):
        e = parse_expr("sum k : - I(-k, 2*k - 1)")
        assert e.sign == -1
        a, b = e.factors[0]
        assert a.coeffs == (-2,) and b.coeffs == (4,) and b.constant == -2

    def test_coefficient_sugar(self):
        e = parse_expr("sum j k : I(3*j - 2*k, j + k + 4)")
        a, b = e.factors[0]
        assert a.coeffs == (6, -4) and b.constant == 8

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("I(k,k)", "expected 'sum'"),
            ("sum : I(0,0)", "at least one lattice variable"),
            ("sum k k : I(k,k)", "duplicate variable"),
            ("sum q : I(q,q)", "reserved"),
            ("sum k : I(k, j)", "unknown variable"),
            ("sum k : I(k/2, k)", "not integer-valued"),
            ("sum k : q^(k) I(k,k)", "found 'I'"),
            ("sum k : I(k, 1/3)", "only /2 denominators"),
            ("sum k : I(k, k) extra", "trailing input"),
        ],
    )
    def test_rejections_carry_position(self, text, fragment):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(text)
        assert fragment in str(exc.value)
        assert 0 <= exc.value.position <= len(text)

    def test_half_charge_position_points_at_form(self):
        text = "sum k : I(k/2, k)"
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(text)
        assert exc.value.position == text.index("k/2")


class TestFormat:
    @pytest.mark.parametrize(
        "text",
        [
            IND41_TEXT,
            "sum k : q^(k/2 + 3/2) * I(k, -k + 1)",
            "sum j k : - I(3*j - 2*k, j + k + 4) * I(j, j)",
            "sum k : I(0, 0)",
        ],
    )
    def test_round_trip(self, text):
        e = parse_expr(text)
        assert parse_expr(format_expr(e)) == e


class TestEval:
    def test_ind41_known_coefficients(self):
        s = ind41(10)
        assert [s.coefficient(2 * j) for j in range(5)] == [1, -8, -9, 18, 46]
        assert all(s.coefficient(2 * j + 1) == 0 for j in range(5))

    def test_rank1_matches_pentagon_rhs(self):
        # the pentagon right-hand side is itself a rank-1 lattice sum
        def shifted(c):
            return "k" if c == 0 else f"k {'+' if c > 0 else '-'} {abs(c)}"

        rng = random.Random(7)
        for _ in range(20):
            m1, m2, e1, e2 = (rng.randint(-2, 2) for _ in range(4))
            text = (
                f"sum k : q^(k) * I({m1}, {shifted(e1)}) * I({m2}, {shifted(e2)})"
                f" * I({m1 + m2}, k)"
            )
            got = eval_expr(parse_expr(text), 6)
            want = pentagon_rhs(m1, m2, e1, e2, 6)
            assert equal_to_order(got, want, 6)

    def test_box_enlargement_stability(self):
        e = parse_expr(IND41_TEXT)
        base, extent = eval_expr_with_box(e, 8)
        bigger = eval_expr(e, 8, min_box=extent + 4)
        assert equal_to_order(base, bigger, 8)

    def test_box_cap_errors_loudly(self):
        with pytest.raises(StabilizationError):
            eval_expr(parse_expr(IND41_TEXT), 8, box_cap=1)

    @pytest.mark.parametrize("kwargs", [{"margin": 0}, {"margin": -2}, {"box_cap": -1}])
    def test_vacuous_box_arguments_rejected(self, kwargs):
        # a margin below 1 would accept a box on the tail screen alone
        with pytest.raises(ValueError):
            eval_expr_with_box(parse_expr(IND41_TEXT), 10, **kwargs)
        with pytest.raises(ValueError):
            ind41(10, **kwargs)

    def test_translated_rank1_sum_is_not_truncated(self):
        # a translate of sum k : I(k, -k), whose low terms lie near k = 250
        expr = parse_expr("sum k : I(250 - k, k - 250)")
        with pytest.raises(StabilizationError, match="not stabilized"):
            eval_expr_with_box(expr, 8)
        s, extent = eval_expr_with_box(expr, 8, box_cap=300)
        assert extent == 255
        assert s == eval_expr(parse_expr("sum k : I(k, -k)"), 8)

    def test_long_rank1_sum_hits_the_cap_at_once(self):
        # every k in [0, 10^9] is a low term at H = 2; the box exceeds
        # the cap, which is found without walking the low terms
        expr = parse_expr("sum k : I(0,k) * I(k - 1000000000, 0)")
        with pytest.raises(StabilizationError, match="not stabilized"):
            eval_expr_with_box(expr, 2)

    def test_divergent_rank1_sum_names_divergence(self):
        with pytest.raises(StabilizationError, match="diverges"):
            eval_expr(parse_expr("sum k : q^(-k) * I(0,k)"), 10)

    @pytest.mark.parametrize("rank", range(1, 5))
    @pytest.mark.parametrize("radius", range(7))
    def test_shell_is_the_cube_boundary(self, rank, radius):
        points = list(_shell(rank, radius))
        cube = itertools.product(range(-radius, radius + 1), repeat=rank)
        want = [p for p in cube if max(map(abs, p)) == radius]
        assert len(points) == len(set(points))
        assert sorted(points) == want

    def test_negated_expression(self):
        e = parse_expr("sum k1 k2 : - I(k1,k2)*I(k2,k1)")
        s = eval_expr(e, 6)
        assert s.coefficient(0) == -1 and s.coefficient(2) == 8

    def test_default_caps_by_rank(self):
        assert box_cap_default(1) == 48
        assert box_cap_default(2) == 48
        assert box_cap_default(3) == 16


class TestFiles:
    def test_load_with_comments(self, tmp_path):
        p = tmp_path / "expr.txt"
        p.write_text("# figure-eight knot\nsum k1 k2 :\n  I(k1,k2)*I(k2,k1)\n")
        assert load_expr_file(p) == parse_expr(IND41_TEXT)

    def test_load_propagates_syntax_errors(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("sum k : I(k/2, k)\n")
        with pytest.raises(ExprSyntaxError):
            load_expr_file(p)
