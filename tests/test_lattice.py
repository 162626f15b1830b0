import itertools
import operator
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetindex.errors import ExprSyntaxError, StabilizationError
from tetindex.identities import pentagon_rhs
from tetindex.lattice import (
    IND41_TEXT,
    AffineForm,
    LatticeSumExpr,
    _box_points,
    _Certificate,
    _faces,
    _low_points,
    _split,
    box_cap_default,
    charge_product,
    eval_expr,
    eval_expr_with_box,
    format_expr,
    ind41,
    load_expr_file,
    parse_expr,
)
from tetindex.series import equal_to_order, zero
from tetindex.tetrahedron import term_degree, tet_min_degree


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
        # the faces, split twice, share out the points of each radius
        leaves = [
            leaf
            for face in _faces(rank)
            for half in _split(face)
            for leaf in _split(half)
        ]
        points = [p for box in leaves for p in _box_points(box, radius)]
        if radius == 0:
            # the origin is summed on its own; both faces of axis 0 hold it
            points = sorted(set(points))
        cube = itertools.product(range(-radius, radius + 1), repeat=rank)
        want = [p for p in cube if max(map(abs, p)) == radius]
        assert len(points) == len(set(points))
        assert sorted(points) == want

    def test_translated_rank2_sum_is_not_truncated(self):
        # a translate of ind41 whose low terms lie about 100 shells out,
        # with no low term near the origin to pull the box towards them
        expr = parse_expr("sum a b : I(a - 100, b) * I(b, a - 100)")
        with pytest.raises(StabilizationError, match="not stabilized within cap 48"):
            eval_expr_with_box(expr, 6)
        with pytest.raises(StabilizationError, match="not stabilized within cap 103"):
            eval_expr_with_box(expr, 6, box_cap=103)
        s, extent = eval_expr_with_box(expr, 6, box_cap=104)
        assert extent == 104
        assert s == ind41(6)

    def test_divergent_rank2_sum_names_its_line(self):
        # I(-k, 0) starts at q^0 for every k >= 0
        with pytest.raises(StabilizationError, match=r"line j \* \(-1, 0\) diverges"):
            eval_expr_with_box(parse_expr("sum a b : I(a,b)"), 6)

    def test_negated_expression(self):
        e = parse_expr("sum k1 k2 : - I(k1,k2)*I(k2,k1)")
        s = eval_expr(e, 6)
        assert s.coefficient(0) == -1 and s.coefficient(2) == 8

    def test_default_caps_by_rank(self):
        assert box_cap_default(1) == 48
        assert box_cap_default(2) == 48
        assert box_cap_default(3) == 16


def _charges(expr, point):
    """The (m, e) of every factor at a lattice point, from the forms in
    half-units."""
    return tuple((a(point) // 2, b(point) // 2) for a, b in expr.factors)


def _brute_low_points(expr, prec, radius):
    """Every nonzero point of the cube of the given radius whose term
    starts below prec, walking each row of the last coordinate."""

    def at_row(form, head):
        # the form's value at (head, 0) and its step in the last coordinate
        return form.constant + sum(map(operator.mul, form.coeffs, head)), form.coeffs[-1]

    side = range(-radius, radius + 1)
    out = []
    for head in itertools.product(side, repeat=expr.rank - 1):
        p0, p1 = at_row(expr.prefactor, head)
        # charges in half-units, halved once
        rows = [
            tuple(x // 2 for x in at_row(a, head) + at_row(b, head))
            for a, b in expr.factors
        ]
        for k in side:
            d = p0 + p1 * k
            for m0, m1, e0, e1 in rows:
                d += tet_min_degree(m0 + m1 * k, e0 + e1 * k)
            if d < prec and (k or any(head)):
                out.append(head + (k,))
    return out


@st.composite
def _affine_sums(draw):
    """Random rank-2 and rank-3 sums: one to three factors with slopes in
    [-2, 2], offsets up to 30 (rank 2) or 8 (rank 3), and a prefactor in
    half-units."""
    rank = draw(st.sampled_from((2, 3)))
    offset = 30 if rank == 2 else 8
    slopes = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)

    def charge():
        # whole units, stored in half-units
        return AffineForm(
            tuple(2 * c for c in draw(slopes)), 2 * draw(st.integers(-offset, offset))
        )

    factors = tuple(
        (charge(), charge()) for _ in range(draw(st.integers(1, 3)))
    )
    prefactor = AffineForm(tuple(draw(slopes)), draw(st.integers(-4, 4)))
    expr = LatticeSumExpr(tuple("abc"[:rank]), 1, prefactor, factors)
    return expr, draw(st.integers(0, 12))


class TestCertificate:
    """The rank >= 2 certificate against a brute-force scan of the cube of
    radius 120 (rank 2) or 24 (rank 3), far past the 60 and 12 shells
    that the finite screen it replaced looked beyond its box."""

    @settings(max_examples=25, deadline=None)
    @given(_affine_sums())
    @example((parse_expr("sum a b : I(a - 100, b) * I(b, a - 100)"), 6))
    @example((parse_expr("sum a b c : I(a,b)*I(b,c)*I(c,a)"), 10))
    def test_low_points_match_brute_force(self, case):
        expr, prec = case
        radius = 120 if expr.rank == 2 else 24
        try:
            extent, points = _low_points(expr, prec, 3, 10**6)
        except StabilizationError as exc:
            line = re.search(r"line j \* \(([-\d, ]+)\) diverges", str(exc))
            if line is None:
                # the split budget ran out: no answer, never a wrong one
                assert "could not certify" in str(exc)
                return
            step = [int(c) for c in line.group(1).split(",")]

            def low(j):
                point = [j * c for c in step]
                return term_degree(_charges(expr, point), expr.prefactor(point)) < prec

            # past its last piece boundary the degree on a divergent line
            # stays below prec on one side
            n = 10**6
            assert low(n) and low(n + 1) or low(-n) and low(-n - 1)
            return
        assert len(points) == len(set(points))
        assert extent == 3 + max((max(map(abs, p)) for p in points), default=0)
        inside = sorted(p for p in points if max(map(abs, p)) <= radius)
        assert inside == _brute_low_points(expr, prec, radius)

    def test_face_bound_of_ind41(self):
        # on the face k1 = r, |k2| <= r the first factor is at least
        # max(0, m, -e) = r and the second at least 0, so the bound is
        # exactly r and its low radii are 1 to prec - 1
        cert = _Certificate(parse_expr(IND41_TEXT), 10)
        runs = cert.runs(next(_faces(2)))
        assert sorted(r for first, last in runs for r in range(first, last + 1)) == list(
            range(1, 10)
        )

    def test_sum_over_low_points_is_the_cube_sum(self):
        expr = parse_expr("sum a b c : I(a,b)*I(b,c)*I(c,a)")
        s, extent = eval_expr_with_box(expr, 10)
        assert extent == 12
        total = zero(10)
        for p in itertools.product(range(-extent, extent + 1), repeat=3):
            total = total + charge_product(_charges(expr, p), 0, 1, 10)
        assert s == total


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
