import itertools
import operator
import random
import re
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle import naive_lattice_sum, same_to_order
from tetindex import lattice
from tetindex.errors import ExprSyntaxError, StabilizationError
from tetindex.identities import _pentagon_sum, pentagon_rhs
from tetindex.lattice import (
    IND41_TEXT,
    AffineForm,
    LatticeSumExpr,
    _box_ranges,
    _Certificate,
    _faces,
    _line,
    _low_points,
    _orbit_sum,
    _split,
    _symmetry_group,
    _Term,
    charge_product,
    eval_expr_with_box,
    format_expr,
    ind41,
    load_expr_file,
    parse_expr,
)
from tetindex.series import equal_to_order, zero
from tetindex.tetrahedron import term_degree, tet_min_degree


# the message and position of every rejection, as the parser has always
# given them
REJECTIONS = {
    "I(k,k)": ("expected 'sum', found 'I'", 0),
    "sum : I(0,0)": ("at least one lattice variable is required", 0),
    "sum k k : I(k,k)": ("duplicate variable 'k'", 6),
    "sum q : I(q,q)": ("'q' is reserved", 4),
    "sum k : I(k, j)": ("unknown variable 'j'", 13),
    "sum k : I(k/2, k)": ("charge form not integer-valued", 10),
    "sum k : q^(k) I(k,k)": ("expected punct, found 'I'", 14),
    "sum k : I(k, 1/3)": ("only /2 denominators are allowed", 15),
    "sum k : I(k, k) extra": ("trailing input 'extra'", 16),
    # an unexpected character, an empty text and `sum k` with no colon
    "sum k : I(k, k) $": ("unexpected character '$'", 16),
    "": ("unexpected end of expression", 0),
    "sum k": ("expected ':' after variables", 5),
    # a text cut off inside a form, and after `1/`
    "sum k : I(k, k": ("unexpected end of expression", 14),
    "sum k : I(k, 1/": ("unexpected end of expression", 15),
    # `2*` followed by a number, and a prefactor with no `*` after it
    "sum k : I(2* 3, k)": ("expected ident, found '3'", 13),
    "sum k : q^(k) + I(k,k)": ("expected '*', found '+'", 14),
    # only a number takes a variable after `*`
    "sum k : I(k*2, k)": ("expected ',', found '*'", 11),
}


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
            ("sum k : I(k, k) $", "unexpected character"),
            ("", "unexpected end"),
            ("sum k", "expected ':'"),
            ("sum k : I(k, k", "unexpected end"),
            ("sum k : I(k, 1/", "unexpected end"),
            ("sum k : I(2* 3, k)", "expected ident"),
            ("sum k : q^(k) + I(k,k)", "expected '*'"),
            ("sum k : I(k*2, k)", "expected ','"),
        ],
    )
    def test_rejections_carry_position(self, text, fragment):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(text)
        message, position = REJECTIONS[text]
        assert fragment in message
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    def test_half_charge_position_points_at_form(self):
        text = "sum k : I(k/2, k)"
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(text)
        assert exc.value.position == text.index("k/2")


class TestBuild:
    """An expression built directly, not parsed, is checked as well."""

    @staticmethod
    def charge(*coeffs_and_constant):
        *coeffs, constant = coeffs_and_constant
        return AffineForm(tuple(coeffs), constant)

    def test_half_integer_charge_rejected(self):
        # I(k + 1/2, -k) would be floored to I(k, -k)
        with pytest.raises(ValueError, match="not integer-valued"):
            LatticeSumExpr(
                ("k",), 1, AffineForm((2,), 0),
                ((self.charge(2, 1), self.charge(-2, 0)),),
            )

    @pytest.mark.parametrize(
        "m2, e2", [((1, 0), (0, 0)), ((2, 0), (0, 1))], ids=["coefficient", "constant"]
    )
    def test_odd_half_unit_in_a_later_charge_form_rejected(self, m2, e2):
        # I(k, k) I(k/2, 0) and I(k, k) I(k, 1/2): the odd half-unit is in
        # the second factor, as a coefficient or as a constant
        with pytest.raises(ValueError, match="charge form not integer-valued"):
            LatticeSumExpr(
                ("k",), 1, AffineForm((0,), 0),
                ((self.charge(2, 0), self.charge(2, 0)), (self.charge(*m2), self.charge(*e2))),
            )

    def test_half_integer_prefactor_accepted(self):
        # q^((k+1)/2) has odd half-units, but it is no charge
        prefactor = AffineForm((1,), 1)
        expr = LatticeSumExpr(("k",), 1, prefactor, ((self.charge(2, 0), self.charge(2, 0)),))
        assert expr.prefactor == prefactor

    @pytest.mark.parametrize(
        "prefactor, m, e",
        [((2, 0, 0), (2, 0), (-2, 0)), ((2, 0), (2, 4, 0), (-2, 0)), ((2, 0), (2, 0), (-2, 4, 1))],
        ids=["prefactor", "charge", "second-charge"],
    )
    def test_coefficient_count_must_match_rank(self, prefactor, m, e):
        # an extra coefficient would be dropped; the count is checked
        # before the half-units, so an odd constant does not mask it
        with pytest.raises(ValueError, match="a form's coefficient count is not the rank 1"):
            LatticeSumExpr(
                ("k",), 1, self.charge(*prefactor),
                ((self.charge(*m), self.charge(*e)),),
            )

    @pytest.mark.parametrize("sign", [3, 0, -2])
    def test_sign_must_be_one_or_minus_one(self, sign):
        # a sign of 3 would triple the sum
        with pytest.raises(ValueError, match="sign"):
            LatticeSumExpr(
                ("k",), sign, AffineForm((0,), 0),
                ((self.charge(2, 0), self.charge(-2, 0)),),
            )


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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_generated_round_trip(self, data):
        """Rank 1 to 3, a leading minus, half-unit prefactors, coefficient
        sugar and zero forms; whitespace between tokens changes nothing."""
        rank = data.draw(st.integers(1, 3))
        names = data.draw(st.lists(
            st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,2}", fullmatch=True).filter(
                lambda name: name not in ("sum", "q", "I")),
            min_size=rank, max_size=rank, unique=True))

        def form(step):
            small = st.integers(-4, 4).map(lambda c: step * c)
            return st.one_of(st.just(AffineForm((0,) * rank, 0)),
                             st.builds(AffineForm, st.tuples(*[small] * rank), small))

        expr = LatticeSumExpr(
            tuple(names), data.draw(st.sampled_from((1, -1))), data.draw(form(1)),
            tuple(data.draw(st.lists(st.tuples(form(2), form(2)), min_size=1, max_size=3))),
        )
        text = format_expr(expr)
        assert parse_expr(text) == expr
        gaps = st.text(" \t\r\n", min_size=1, max_size=3)
        tokens = re.findall(r"\w+|\S", text)
        spaced = "".join(tok + data.draw(gaps) for tok in tokens)
        assert parse_expr(data.draw(gaps) + spaced) == expr


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
            got = eval_expr_with_box(parse_expr(text), 6)[0]
            want = pentagon_rhs(m1, m2, e1, e2, 6)
            assert equal_to_order(got, want, 6)

    def test_box_enlargement_stability(self):
        e = parse_expr(IND41_TEXT)
        base, extent = eval_expr_with_box(e, 8)
        assert equal_to_order(base, _cube_sum(e, extent + 4, 8), 8)

    def test_box_cap_errors_loudly(self, monkeypatch):
        # the work bound: ind41 at H = 8 tests 33 points, on the one face
        # that stands for the four of its group's orbit
        want = ind41(8)
        monkeypatch.setattr(lattice, "POINT_BUDGET", 32)
        with pytest.raises(StabilizationError, match="POINT_BUDGET = 32"):
            ind41(8)
        monkeypatch.setattr(lattice, "POINT_BUDGET", 33)
        assert ind41(8) == want

    @pytest.mark.parametrize("kwargs", [{"margin": 0}, {"margin": -2}, {"box_cap": -1}])
    def test_vacuous_box_arguments_rejected(self, kwargs):
        # the box is the farthest low point, with no margin or cap to set
        with pytest.raises(TypeError):
            eval_expr_with_box(parse_expr(IND41_TEXT), 10, **kwargs)
        with pytest.raises(TypeError):
            ind41(10, **kwargs)

    def test_translated_rank1_sum_is_not_truncated(self):
        # a translate of sum k : I(k, -k), whose low terms lie near k = 250
        expr = parse_expr("sum k : I(250 - k, k - 250)")
        s, extent = eval_expr_with_box(expr, 8)
        assert extent == 252
        assert s == eval_expr_with_box(parse_expr("sum k : I(k, -k)"), 8)[0]

    def test_long_rank1_sum_hits_the_cap_at_once(self):
        # every k in [0, 10^9] is a low term at H = 2: the sum is certified
        # convergent, and the work bound stops the walk over its low terms
        expr = parse_expr("sum k : I(0,k) * I(k - 1000000000, 0)")
        with pytest.raises(StabilizationError, match="POINT_BUDGET") as exc:
            eval_expr_with_box(expr, 2)
        assert "converges" in str(exc.value) and "may not converge" not in str(exc.value)

    def test_divergent_rank1_sum_names_divergence(self):
        with pytest.raises(StabilizationError, match="diverges"):
            eval_expr_with_box(parse_expr("sum k : q^(-k) * I(0,k)"), 10)

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
        points = [p for box in leaves for p in itertools.product(*_box_ranges(box, radius))]
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
        s, extent = eval_expr_with_box(expr, 6)
        assert extent == 101
        assert s == ind41(6)
        s, extent = eval_expr_with_box(expr, 10)
        assert extent == 102
        assert s == ind41(10)

    def test_divergent_rank2_sum_names_its_line(self):
        # I(-k, 0) starts at q^0 for every k >= 0
        with pytest.raises(StabilizationError, match=r"line j \* \(-1, 0\) diverges"):
            eval_expr_with_box(parse_expr("sum a b : I(a,b)"), 6)

    def test_negated_expression(self):
        e = parse_expr("sum k1 k2 : - I(k1,k2)*I(k2,k1)")
        s = eval_expr_with_box(e, 6)[0]
        assert s.coefficient(0) == -1 and s.coefficient(2) == 8


def _charges(expr, point):
    """The (m, e) of every factor at a lattice point, from the forms in
    half-units."""
    return tuple((a(point) // 2, b(point) // 2) for a, b in expr.factors)


def _cube_sum(expr, radius, prec):
    """The sum over every point of the cube of the given radius, one
    charge product per point."""
    at, total = _Term(expr).at, zero(prec)
    for p in itertools.product(range(-radius, radius + 1), repeat=expr.rank):
        total = total + charge_product(*at(p), expr.sign, prec)
    return total


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
            extent, points = _low_points(_Certificate(_Term(expr), prec))
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
        assert extent == max((max(map(abs, p)) for p in points), default=0)
        inside = sorted(p for p in points if max(map(abs, p)) <= radius)
        assert inside == _brute_low_points(expr, prec, radius)

    @settings(max_examples=60, deadline=None)
    @given(_affine_sums(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    # I(-j, 0) starts at q^0 for every j >= 0
    @example((parse_expr("sum a b : I(a,b)"), 6), [-1, 0, 0])
    @example((parse_expr(IND41_TEXT), 10), [1, 1, 0])
    def test_line_runs_match_brute_force(self, case, entries):
        """The runs of the single-direction box of a primitive step, which
        solve every rank-1 face and every line test, against a scan of
        the term degree along j * step, j >= 1.

        With step entries in [-3, 3], every m, e and m + e along the line
        has slope at most 18 and offset at most 60, so all of them vanish
        by j = 60.  Past that each factor's degree is nondecreasing (a
        product of positive parts, each a nondecreasing affine function,
        plus max(0, m, -e)), and the prefactor, at least -1084 at j = 60,
        falls by at most 18 half-units a step.  So a convergent sum has no
        low term past j of about 1200, which the scan to 2000 covers, and
        a divergent one has a linear, nonincreasing degree below H past
        j = 60, which the probe at j = 10^7 sees."""
        expr, prec = case
        step = tuple(entries[: expr.rank])
        assume(gcd(*step) == 1)

        def along(form, units):  # (slope, offset) of the form on the line
            return (form(step) - form.constant) // units, form.constant // units

        rows = [(*along(a, 2), *along(b, 2)) for a, b in expr.factors]
        p_slope, p_const = along(expr.prefactor, 1)

        def low(j):
            return p_slope * j + p_const + sum(
                tet_min_degree(a * j + b, c * j + d) for a, b, c, d in rows
            ) < prec

        runs = _Certificate(_Term(expr), prec).runs(_line(step))
        if low(10**7):
            assert runs is None
            return
        scan = [j for j in range(1, 2001) if low(j)]
        assert all(any(first <= j <= last for first, last in runs) for j in scan)
        assert max((last for _, last in runs), default=0) == max(scan, default=0)

    def test_face_bound_of_ind41(self):
        # on the face k1 = r, |k2| <= r the first factor is at least
        # max(0, m, -e) = r and the second at least 0, so the bound is
        # exactly r and its low radii are 1 to prec - 1
        cert = _Certificate(_Term(parse_expr(IND41_TEXT)), 10)
        runs = cert.runs(next(_faces(2)))
        assert sorted(r for first, last in runs for r in range(first, last + 1)) == list(
            range(1, 10)
        )

    def test_sum_over_low_points_is_the_cube_sum(self):
        expr = parse_expr("sum a b c : I(a,b)*I(b,c)*I(c,a)")
        s, extent = eval_expr_with_box(expr, 10)
        assert extent == 9
        assert s == _cube_sum(expr, extent, 10)


RANK3_FILE = Path(__file__).resolve().parent.parent / "bench" / "exprs" / "rank3.txt"


def _act(g, v):
    source, signs = g
    return tuple(s * v[i] for i, s in zip(source, signs))


@st.composite
def _symmetric_sums(draw):
    """Random rank-2 and rank-3 sums symmetric by construction under a
    random signed permutation g: the factors of a random base term with
    their coefficients mapped by every power of g, and the sum of the
    base prefactor mapped likewise.  Returns the sum, g and a precision."""
    rank = draw(st.sampled_from((2, 3)))
    signs = st.sampled_from((1, -1))
    g = (
        tuple(draw(st.permutations(range(rank)))),
        tuple(draw(st.lists(signs, min_size=rank, max_size=rank))),
    )
    slopes = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    # the order of g: the first power that fixes a vector of distinct
    # nonzero entries
    generic, order = tuple(range(1, rank + 1)), 1
    while _act(g, generic) != tuple(range(1, rank + 1)):
        generic, order = _act(g, generic), order + 1

    def orbit(coeffs):
        out = [tuple(coeffs)]
        while len(out) < order:
            out.append(_act(g, out[-1]))
        return out

    def charge():  # whole units, stored in half-units
        return [2 * c for c in draw(slopes)], 2 * draw(st.integers(-2, 2))

    factors = []
    for _ in range(draw(st.integers(1, 2))):
        (m, mc), (e, ec) = charge(), charge()
        factors += [
            (AffineForm(gm, mc), AffineForm(ge, ec)) for gm, ge in zip(orbit(m), orbit(e))
        ]
    pref = [sum(col) for col in zip(*orbit(draw(slopes)))]
    expr = LatticeSumExpr(
        tuple("abc"[:rank]), draw(signs), AffineForm(tuple(pref), draw(st.integers(-4, 4))),
        tuple(factors),
    )
    return expr, g, draw(st.integers(0, 20))


def _translate(expr, shift):
    """The sum whose term at k + shift is the term of `expr` at k."""

    def moved(form):
        return AffineForm(form.coeffs, form.constant - sum(map(operator.mul, form.coeffs, shift)))

    return LatticeSumExpr(
        expr.vars, expr.sign, moved(expr.prefactor),
        tuple((moved(a), moved(b)) for a, b in expr.factors),
    )


@st.composite
def _swap_symmetric_sums(draw):
    """Random rank-2 sums symmetric under the swap (a, b) -> (b, a): one
    or two random factors, each with its copy of swapped slopes, and a
    prefactor of equal slopes.  Returns the sum, a shift off the
    diagonal, which breaks the swap, and a precision."""
    slope, offset = st.integers(-2, 2), st.integers(-3, 3)

    def charge():  # whole units, stored in half-units
        return (2 * draw(slope), 2 * draw(slope)), 2 * draw(offset)

    factors = []
    for _ in range(draw(st.integers(1, 2))):
        (m, mc), (e, ec) = charge(), charge()
        factors += [
            (AffineForm(m, mc), AffineForm(e, ec)),
            (AffineForm(m[::-1], mc), AffineForm(e[::-1], ec)),
        ]
    p = draw(slope)
    expr = LatticeSumExpr(
        ("a", "b"), draw(st.sampled_from((1, -1))),
        AffineForm((p, p), draw(st.integers(-4, 4))), tuple(factors),
    )
    shift = (draw(st.integers(-9, 9)), draw(st.integers(-9, 9)))
    assume(shift[0] != shift[1])
    return expr, shift, draw(st.integers(0, 12))


def _group_by_search(expr):
    """The symmetry group by exhaustive search: every signed permutation
    g, in the order of `itertools.permutations` and then of the signs,
    that leaves the prefactor's coefficients as they are and maps each
    factor onto a factor not yet matched, as it is or as its dual."""

    def form(f, g):
        return f.constant, _act(g, f.coeffs)

    def dual(m, e):
        return (-e[0], tuple(-c for c in e[1])), (-m[0], tuple(-c for c in m[1]))

    rank, group = expr.rank, []
    identity = (tuple(range(rank)), (1,) * rank)
    for g in itertools.product(
        itertools.permutations(range(rank)), itertools.product((1, -1), repeat=rank)
    ):
        if _act(g, expr.prefactor.coeffs) != expr.prefactor.coeffs:
            continue
        left = [(form(m, identity), form(e, identity)) for m, e in expr.factors]
        for m, e in expr.factors:
            image = (form(m, g), form(e, g))
            match = next((f for f in left if f in (image, dual(*image))), None)
            if match is None:
                break
            left.remove(match)
        else:
            group.append(g)
    return group


# sums with groups of 2, 4, 6 and 8 elements, and the group's order
SYMMETRIC_SUMS = [
    (IND41_TEXT, 4),
    ("sum a b c : I(a,b)*I(b,c)*I(c,a)", 6),
    ("sum a b : I(a,b)*I(b,a)*I(a-b,b-a)", 2),
    ("sum a b : q^(a+b)*I(a,b)*I(b,a)", 2),
    ("sum a b c : I(a,b)*I(b,a)*I(c,c)*I(-c,-c)", 8),
]


class TestSymmetry:
    """The symmetry group of a sum, read from its forms, and the sum over
    its orbits."""

    def test_ind41_group(self):
        group = _symmetry_group(parse_expr(IND41_TEXT))
        # the identity, (k2, k1), (-k2, -k1) and (-k1, -k2)
        assert sorted(group) == sorted(
            [((0, 1), (1, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, -1)), ((0, 1), (-1, -1))]
        )

    def test_rank3_cyclic_group(self):
        # the three rotations, each also reversed and negated by duality
        assert len(_symmetry_group(load_expr_file(RANK3_FILE))) == 6

    def test_pentagon_sums_have_no_symmetry(self):
        # each prefactor has slope 1 in e3, which k -> -k reverses
        for m1, m2, e1, e2 in itertools.product(range(-2, 3), repeat=4):
            assert len(_symmetry_group(_pentagon_sum(m1, m2, e1, e2))) == 1
        for m1, m2, e1, e2, e0 in itertools.product(range(-1, 2), repeat=5):
            expr = _pentagon_sum(m1, m2, e1, e2, e0, m2 - e1)
            assert len(_symmetry_group(expr)) == 1

    def test_translated_ind41_has_no_symmetry(self):
        # its terms are those of ind41 moved by 7 along k1, a map that
        # fixes no point and is no signed permutation
        expr = parse_expr("sum k1 k2 : I(k1 - 7, k2) * I(k2, k1 - 7)")
        assert len(_symmetry_group(expr)) == 1

    def test_equal_values_of_different_forms_are_no_symmetry(self):
        # by triality I(-k, -2k) = q^k I(-2k, 3k) and I(2k, -3k) = q^k I(k, 2k),
        # so the terms at k and -k agree; but k -> -k changes the forms,
        # and the group is read from forms
        expr = parse_expr("sum k : q^(k) * I(k, 2*k) * I(-2*k, 3*k)")
        at = _Term(expr).at
        for k in range(1, 4):
            assert charge_product(*at((k,)), 1, 120) == charge_product(*at((-k,)), 1, 120)
        assert len(_symmetry_group(expr)) == 1

    def test_charge_products_per_orbit(self, monkeypatch):
        import tetindex.lattice as lattice

        calls = []

        def counted(*args):
            calls.append(args)
            return charge_product(*args)

        monkeypatch.setattr(lattice, "charge_product", counted)
        # 217 and 43 points summed one by one
        for expr, prec, want in [
            (parse_expr(IND41_TEXT), 80, 61),
            (load_expr_file(RANK3_FILE), 6, 11),
        ]:
            calls.clear()
            eval_expr_with_box(expr, prec)
            assert len(calls) == want
            # the orbit sizes add up to the points: the origin and the low points
            assert sum(abs(c[2]) for c in calls) == 1 + len(
                _low_points(_Certificate(_Term(expr), prec))[1]
            )

    def test_orbits_must_cover_the_points(self):
        # the group swaps a and b and negates c; the faces walked are +a
        # and +c, and the swap maps the face +c onto itself, so (1, 0, 2)
        # low without its image (0, 1, 2) on the same face is a point that
        # the certificate and the group disagree on
        expr = parse_expr("sum a b c : I(a,b)*I(b,a)*I(c,c)*I(-c,-c)")
        group, at = _symmetry_group(expr), _Term(expr).at
        assert len(group) == 8
        faces = [(axis, spans[axis][0]) for axis, _, spans in _faces(3, group)]
        assert faces == [(0, 1), (2, 1)]
        with pytest.raises(RuntimeError, match=r"image \(0, 1, 2\)"):
            _orbit_sum(expr, {p: at(p) for p in [(0, 0, 0), (1, 0, 2)]}, group, 10)
        # (1, 0, 0)'s images lie on faces not walked: it stands for all four
        terms = {p: at(p) for p in [(0, 0, 0), (1, 0, 0)]}
        cube = {p: at(p) for p in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]}
        assert _orbit_sum(expr, terms, group, 10) == _orbit_sum(expr, cube, (), 10)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            _symmetric_sums().map(lambda case: case[0]),
            _swap_symmetric_sums().map(lambda case: case[0]),
            _swap_symmetric_sums().map(lambda case: _translate(*case[:2])),
        )
    )
    @example(parse_expr(SYMMETRIC_SUMS[0][0]))
    @example(load_expr_file(RANK3_FILE))
    @example(parse_expr(SYMMETRIC_SUMS[2][0]))
    @example(parse_expr(SYMMETRIC_SUMS[3][0]))
    @example(parse_expr(SYMMETRIC_SUMS[4][0]))
    @example(parse_expr("sum a b c d : I(a,b)*I(b,c)*I(c,d)*I(d,a)"))
    @example(parse_expr("sum k1 k2 : I(k1 - 7, k2) * I(k2, k1 - 7)"))
    @example(_pentagon_sum(1, -2, 0, 1, 2, 3))
    def test_group_is_the_exhaustive_search(self, expr):
        # the same maps in the same order, the identity first
        group = _symmetry_group(expr)
        assert group[0] == (tuple(range(expr.rank)), (1,) * expr.rank)
        assert group == _group_by_search(expr)

    @settings(max_examples=80, deadline=None)
    @given(_symmetric_sums())
    @example((parse_expr(IND41_TEXT), ((1, 0), (-1, -1)), 10))
    @example((load_expr_file(RANK3_FILE), ((1, 2, 0), (1, 1, 1)), 8))
    def test_orbit_sum_is_the_plain_sum(self, case):
        expr, g, prec = case
        group = _symmetry_group(expr)
        assert g in group
        at = _Term(expr).at
        cube = list(itertools.product(range(-2, 3), repeat=expr.rank))
        plain = zero(prec)
        for p in cube:
            plain = plain + charge_product(*at(p), expr.sign, prec)
        assert _orbit_sum(expr, {p: at(p) for p in cube}, group, prec) == plain

    @pytest.mark.parametrize("prec", [4, 8, 12])
    @pytest.mark.parametrize("text, order", SYMMETRIC_SUMS)
    def test_face_orbits_close_to_the_low_set(self, text, order, prec):
        # every low point lies within radius 11 at these precisions
        expr = parse_expr(text)
        group = _symmetry_group(expr)
        assert len(group) == order
        extent, points = _low_points(_Certificate(_Term(expr), prec), group=group)
        walked = {(axis, spans[axis][0]) for axis, _, spans in _faces(expr.rank, group)}
        assert len(walked) < 2 * expr.rank
        assert {lattice._face_of(p) for p in points} <= walked
        closure = sorted({_act(g, p) for p in points for g in group})
        assert closure == _brute_low_points(expr, prec, 14)
        assert extent == max((max(map(abs, p)) for p in closure), default=0)
        s, box = eval_expr_with_box(expr, prec)
        assert box == extent and s == _cube_sum(expr, box, prec)

    @settings(max_examples=40, deadline=None)
    @given(_symmetric_sums())
    def test_face_orbits_close_to_the_walk_of_every_face(self, case):
        expr, _, prec = case
        group = _symmetry_group(expr)
        try:
            extent, points = _low_points(_Certificate(_Term(expr), prec))
        except StabilizationError:
            return
        # the faces walked are some of every face, so their walk succeeds
        part_extent, part = _low_points(_Certificate(_Term(expr), prec), group=group)
        assert part.keys() <= points.keys() and part_extent == extent
        assert {_act(g, p) for p in part for g in group} == points.keys()

    @settings(max_examples=40, deadline=None)
    @given(_swap_symmetric_sums())
    @example((parse_expr(IND41_TEXT), (7, -3), 80))
    @example((parse_expr(SYMMETRIC_SUMS[1][0]), (5, 0, 0), 8))
    @example((parse_expr(SYMMETRIC_SUMS[2][0]), (2, -1), 12))
    @example((parse_expr(SYMMETRIC_SUMS[3][0]), (4, 1), 12))
    @example((parse_expr(SYMMETRIC_SUMS[4][0]), (3, 0, 1), 12))
    def test_symmetric_sum_is_its_asymmetric_translate(self, case):
        # the translate has the same terms and no symmetry, so it is
        # walked on every face and summed point by point
        expr, shift, prec = case
        moved = _translate(expr, shift)
        assume(len(_symmetry_group(moved)) == 1)
        try:
            want = eval_expr_with_box(expr, prec)[0]
        except StabilizationError as exc:
            if "diverges" in str(exc):
                with pytest.raises(StabilizationError):
                    eval_expr_with_box(moved, prec)
            return
        try:
            got = eval_expr_with_box(moved, prec)[0]
        except StabilizationError as exc:
            # the split budget ran out on the translate's faces
            assert "could not certify" in str(exc)
            return
        assert got == want

    @pytest.mark.parametrize(
        "text, prec, radius", [(SYMMETRIC_SUMS[3][0], 8, 3), (SYMMETRIC_SUMS[4][0], 8, 2)]
    )
    def test_symmetric_sums_against_the_oracle(self, text, prec, radius):
        # the oracle sums the whole cube of the box's radius
        expr = parse_expr(text)
        got, box = eval_expr_with_box(expr, prec)
        assert box == radius
        want = naive_lattice_sum(
            lambda k: (1, expr.prefactor(k), _charges(expr, k)), expr.rank, radius, prec
        )
        assert same_to_order(want, got, prec)

    def test_ind41_against_the_oracle(self):
        # every low point of ind41 at H = 12 lies within radius 6
        want = naive_lattice_sum(lambda k: (1, 0, [(k[0], k[1]), (k[1], k[0])]), 2, 6, 12)
        assert same_to_order(want, ind41(12), 12)

    def test_rank3_against_the_oracle(self):
        # its box at H = 6 is 5: every low point lies within radius 5
        want = naive_lattice_sum(
            lambda k: (1, 0, [(k[0], k[1]), (k[1], k[2]), (k[2], k[0])]), 3, 5, 6
        )
        got, box = eval_expr_with_box(load_expr_file(RANK3_FILE), 6)
        assert box == 5
        assert same_to_order(want, got, 6)


class TestFiles:
    def test_load_with_comments(self, tmp_path):
        p = tmp_path / "expr.txt"
        p.write_text("# figure-eight knot\nsum k1 k2 :\n  I(k1,k2)*I(k2,k1)\n")
        assert load_expr_file(p) == parse_expr(IND41_TEXT)

    @pytest.mark.parametrize(
        "content",
        [
            b"sum k1 k2 :\r\n  I(k1,k2)*I(k2,k1)\r\n",
            b"   # an indented comment\nsum k1 k2 : I(k1,k2)*I(k2,k1)\n",
            b"sum k1\n k2 : I(k1,\n\n k2) *\n I(k2, k1)\n",
            b"sum k1 k2 : I(k1,k2)*I(k2,k1)",
            # as Windows Notepad writes UTF-8
            b"\xef\xbb\xbfsum k1 k2 :\r\n  I(k1,k2)*I(k2,k1)\r\n",
        ],
        ids=["crlf", "indented-comment", "split-over-lines", "no-trailing-newline", "utf8-bom"],
    )
    def test_load_equals_the_one_line_parse(self, tmp_path, content):
        p = tmp_path / "expr.txt"
        p.write_bytes(content)
        assert load_expr_file(p) == parse_expr(IND41_TEXT)

    @pytest.mark.parametrize(
        "content, message, position",
        [
            # lines are stripped and joined by single spaces
            (b"# bad\r\nsum k :\r\n  I(k, 1/3)\r\n", "only /2 denominators are allowed", 15),
            # a lone carriage return ends a line too
            (b"sum k : I(k, k)\r# comment\rextra\r", "trailing input 'extra'", 16),
            # blank lines before and after add nothing, so the end is at 14
            (b"\n  \nsum k : I(k, k\n\n", "unexpected end of expression", 14),
        ],
    )
    def test_load_error_positions_are_in_the_joined_text(self, tmp_path, content,
                                                         message, position):
        p = tmp_path / "bad.txt"
        p.write_bytes(content)
        with pytest.raises(ExprSyntaxError) as exc:
            load_expr_file(p)
        assert str(exc.value) == f"{message} (at position {position})"

    @pytest.mark.parametrize(
        "content, position",
        [
            # only one mark at the start of the file is dropped
            (b"\xef\xbb\xbf\xef\xbb\xbfsum k : I(k, k)", 0),
            (b"sum k : \xef\xbb\xbfI(k, k)", 8),
            (b"sum k :\n\xef\xbb\xbfI(k, k)\n", 8),
            (b"\n\xef\xbb\xbfsum k : I(k, k)", 0),
        ],
        ids=["second-mark", "inside-a-line", "start-of-a-line", "after-a-blank-line"],
    )
    def test_byte_order_mark_elsewhere_is_a_syntax_error(self, tmp_path, content, position):
        p = tmp_path / "bom.txt"
        p.write_bytes(content)
        with pytest.raises(ExprSyntaxError) as exc:
            load_expr_file(p)
        assert str(exc.value) == f"unexpected character '\\ufeff' (at position {position})"

    def test_undecodable_byte_is_named_at_its_offset(self, tmp_path):
        # the file is decoded in one call, so a UTF-8 sequence cut off at
        # the end is reported where it starts in the file
        p = tmp_path / "cut.txt"
        p.write_bytes(b"sum k : I(k, k)\xc3")
        with pytest.raises(UnicodeDecodeError) as exc:
            load_expr_file(p)
        assert (exc.value.start, exc.value.reason) == (15, "unexpected end of data")

    def test_load_propagates_syntax_errors(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("sum k : I(k/2, k)\n")
        with pytest.raises(ExprSyntaxError):
            load_expr_file(p)
