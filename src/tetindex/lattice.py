"""Lattice sums of tetrahedron-index products, with a small expression
language.

Grammar (whitespace-insensitive, `#` starts a comment line in files):

    expr    := "sum" var+ ":" ["-"] [prefac "*"] factor ("*" factor)*
    prefac  := "q^(" affine ")"
    factor  := "I(" affine "," affine ")"
    affine  := ["-"] term (("+"|"-") term)*
    term    := [int ["/2"] "*"] var | int ["/2"] | var "/2"

Affine forms are stored in half-units so monomial prefactors with
half-integer exponents (such as q^(k/2)) are exact; forms used as index
charges must be integer-valued on the lattice, which the parser checks.

This is the one charge-sum module of the package: the pentagon checks
build their right-hand sides as rank-1 expressions and sum them here.
An `eval` of such a sum from a file at half-exponent 8 takes about 0.2 ms
in a warm process: a quarter reading and parsing, 30% in the certificate,
a quarter in the products of its low points, the rest in the CLI.

Every sum is truncated by a certificate, never by a finite screen, and
reports its box half-width E: the max-norm of the farthest lattice
point whose term reaches below the precision.  Only the origin and
those low points are summed; every other term is zero to the precision.
Boxes of directions on the faces of the max-norm unit sphere cover the
lattice, two faces at rank 1.  On each, a quadratic in the radius
bounds the term degree from below (on a single direction it is the
degree) and is solved in time logarithmic in the distance of its low
values; only the points at the radii where it reaches below the
precision are tested (see `_Certificate` and `_low_points`).  How far
a low point lies costs nothing; how many points are tested is bounded
by POINT_BUDGET.  A divergent sum raises at once, naming a line on
which it diverges.  The built-in `ind41` expression is the
figure-eight-knot index sum_{k1,k2} I(k1,k2) I(k2,k1).

The search and the sum work on one fundamental domain of the sum's
symmetry group, the signed permutations of the lattice under which the
forms are unchanged: the prefactor as it is, and the factor list up to
order and up to the duality I(m, e) = I(-e, -m), read from the forms,
never from values (`_symmetry_group`).  Only the first face of each
orbit of faces is searched (`_low_points`), and each orbit of low
points costs one index product times its size, added into one dense
integer list (`sum_products`), the accumulator of the Bailey sums too.
ind41's group has 4 elements and the cyclic rank-3 sum I(a,b) I(b,c)
I(c,a)'s has 6: each searches one face.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from functools import reduce
from math import gcd, prod
from operator import add, mul, or_

from .errors import ExprSyntaxError, StabilizationError
from .series import Frozen, QSeries, _from_array, half_exp_str, one, zero
from .tetrahedron import term_degree, tet_index, tet_min_degree

__all__ = [
    "AffineForm",
    "LatticeSumExpr",
    "parse_expr",
    "format_expr",
    "eval_expr_with_box",
    "charge_product",
    "sum_products",
    "ind41",
    "load_expr_file",
    "IND41_TEXT",
]

IND41_TEXT = "sum k1 k2 : I(k1,k2)*I(k2,k1)"

# how many times the direction boxes of one sum may be split in all
SPLIT_BUDGET = 256
# a certified box is split further while enumerating it would test more
# points than this
SPLIT_POINTS = 64
# how many lattice points the search for one sum's low points may test:
# ind41 tests 401 at half-exponent 500 and 929 at 1200, the rank-3 cyclic
# sum 77 at 12
POINT_BUDGET = 100_000

_RESERVED = {"sum", "q", "I"}


class AffineForm(Frozen):
    """coeffs[i] (half-units) multiplies the i-th lattice variable;
    `constant` is in half-units as well."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: tuple[int, ...], constant: int):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "constant", constant)

    def __call__(self, point) -> int:
        return self.constant + sum(c * k for c, k in zip(self.coeffs, point))

    @property
    def is_integer_valued(self) -> bool:
        return not reduce(or_, self.coeffs, self.constant) % 2  # the lowest bit of one

    @property
    def is_zero(self) -> bool:
        return self.constant == 0 and not any(self.coeffs)


class LatticeSumExpr(Frozen):
    __slots__ = ("vars", "sign", "prefactor", "factors")

    def __init__(
        self, vars: tuple[str, ...], sign: int, prefactor: AffineForm,
        factors: tuple[tuple[AffineForm, AffineForm], ...],
    ):
        """Reject what the parser never builds: a sign other than +-1, a
        form not of the rank, and a charge form not integer-valued."""
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "factors", factors)
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, got {self.sign}")
        charges = [form for pair in self.factors for form in pair]
        if {len(form.coeffs) for form in [self.prefactor, *charges]} != {self.rank}:
            raise ValueError(f"a form's coefficient count is not the rank {self.rank}")
        if not all(form.is_integer_valued for form in charges):
            raise ValueError("charge form not integer-valued")

    @property
    def rank(self) -> int:
        return len(self.vars)


# a token: an integer, a name or a punctuation mark
_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[:*+\-,()/^]")
# a character that is neither whitespace nor part of a token
_STRAY = re.compile(r"[^\s\dA-Za-z_:*+\-,()/^]")
_PUNCT = frozenset(":*+-,()/^")


def parse_expr(text: str) -> LatticeSumExpr:
    """Parse a lattice-sum expression; raises ExprSyntaxError with the
    offending position on malformed input.  One scan splits the text into
    token strings, read by descent; "" ends them, and positions are found
    only for an error."""
    stray = _STRAY.search(text)
    if stray:
        raise ExprSyntaxError(f"unexpected character {stray.group()!r}", stray.start())
    toks = [*_TOKEN.findall(text), ""]
    if toks[0] != "sum":
        raise _expected(text, toks, 0, "sum")
    i, index = 1, {}  # variable -> its coordinate
    while (name := toks[i]) != ":":
        if not name:
            raise ExprSyntaxError("expected ':' after variables", len(text))
        if _kind(name) != "ident":
            raise _expected(text, toks, i, "ident")
        if name in _RESERVED:
            raise ExprSyntaxError(f"{name!r} is reserved", _at(text, i))
        if name in index:
            raise ExprSyntaxError(f"duplicate variable {name!r}", _at(text, i))
        index[name] = len(index)
        i += 1
    if not index:
        raise ExprSyntaxError("at least one lattice variable is required", 0)
    sign, i = (-1, i + 2) if toks[i + 1] == "-" else (1, i + 1)
    if toks[i] == "q":
        prefactor, i = _affine(text, toks, _expect(text, toks, i + 1, "^", "("), index)
        i = _expect(text, toks, i, ")", "*")
    else:
        prefactor = AffineForm((0,) * len(index), 0)
    factors = []
    while True:
        m, i = _affine(text, toks, _expect(text, toks, i, "I", "("), index, True)
        e, i = _affine(text, toks, _expect(text, toks, i, ","), index, True)
        factors.append((m, e))
        i = _expect(text, toks, i, ")")
        if toks[i] != "*":
            break
        i += 1
    if toks[i]:
        raise ExprSyntaxError(f"trailing input {toks[i]!r}", _at(text, i))
    return LatticeSumExpr(tuple(index), sign, prefactor, tuple(factors))


def _affine(text: str, toks, i: int, index, charge=False):
    """The affine form that starts at token i, and the index past it; a
    `charge` form must be integer-valued."""
    start, coeffs, sign = i, [0] * (len(index) + 1), 1  # the constant last
    if toks[i] == "-":
        sign, i = -1, i + 1
    while True:
        tok, var = toks[i], -1
        if tok in index:
            var, value = index[tok], 2  # whole units -> half-units
        elif tok.isdecimal():
            value = 2 * int(tok)
        elif not tok:
            raise ExprSyntaxError("expected a term", len(text))
        elif tok in _PUNCT:
            raise ExprSyntaxError(f"expected a term, found {tok!r}", _at(text, i))
        else:
            raise _expected(text, toks, i, "ident")
        i += 1
        if toks[i] == "/":
            if toks[i + 1] != "2":
                raise _expected(text, toks, i + 1, "int")
            value //= 2
            i += 2
        if var < 0 and toks[i] == "*":
            var = index.get(toks[i + 1])
            if var is None:
                raise _expected(text, toks, i + 1, "ident")
            i += 2
        coeffs[var] += sign * value
        if toks[i] == "+":
            sign = 1
        elif toks[i] == "-":
            sign = -1
        else:
            break
        i += 1
    form = AffineForm(tuple(coeffs[:-1]), coeffs[-1])
    if charge and not form.is_integer_valued:
        raise ExprSyntaxError("charge form not integer-valued", _at(text, start))
    return form, i


def _expect(text: str, toks, i: int, *wants: str) -> int:
    """The index past the tokens `wants`, which must start at token i."""
    for want in wants:
        if toks[i] != want:
            raise _expected(text, toks, i, want)
        i += 1
    return i


def _kind(tok: str) -> str:
    return "punct" if tok in _PUNCT else "int" if tok[0].isdecimal() else "ident"


def _expected(text: str, toks, i: int, want: str) -> ExprSyntaxError:
    """The error at token i, where the token `want` was expected, or with
    `want` "ident" a variable of the sum, or with "int" the denominator 2."""
    tok = toks[i]
    if not tok:
        return ExprSyntaxError("unexpected end of expression", len(text))
    kind = want if want in ("int", "ident") else _kind(want)
    if _kind(tok) != kind:
        message = f"expected {kind}, found {tok!r}"
    else:  # the right kind: not a variable, not 2, or not the token wanted
        message = {"ident": f"unknown variable {tok!r}", "int": "only /2 denominators are allowed"
                   }.get(want, f"expected {want!r}, found {tok!r}")
    return ExprSyntaxError(message, _at(text, i))


def _at(text: str, i: int) -> int:
    """The character position of token i; the end "" is at the text's length."""
    return [*(m.start() for m in _TOKEN.finditer(text)), len(text)][i]


def _format_affine(form: AffineForm, names) -> str:
    parts = []
    for c, name in zip(form.coeffs, names):
        if c == 0:
            continue
        mag = abs(c)
        if mag == 2:
            body = name
        else:
            body = f"{half_exp_str(mag)}*{name}"
        parts.append(("-" if c < 0 else "+", body))
    if form.constant != 0:
        parts.append(("-" if form.constant < 0 else "+", half_exp_str(abs(form.constant))))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for s, body in parts[1:]:
        out += f" {s} {body}"
    return out


def format_expr(expr: LatticeSumExpr) -> str:
    """Render an expression back into the grammar; parsing the output
    reproduces an identical structure."""
    names = expr.vars
    chunks = [f"sum {' '.join(names)} :"]
    if expr.sign < 0:
        chunks.append("-")
    body = []
    if not expr.prefactor.is_zero:
        body.append(f"q^({_format_affine(expr.prefactor, names)})")
    for a, b in expr.factors:
        body.append(f"I({_format_affine(a, names)}, {_format_affine(b, names)})")
    chunks.append(" * ".join(body))
    return " ".join(chunks)


def charge_product(charges, pref_h: int, sign: int, prec: int) -> QSeries:
    """sign * q^(pref_h/2) * prod_i I(m_i, e_i), truncated at `prec`.

    Each factor is computed to exactly the precision the product needs,
    from the exact minimal degrees of the others; with no charges the
    product is the monomial.
    """
    degrees = [tet_min_degree(m, e) for m, e in charges]
    rel = prec - pref_h - sum(degrees)
    if rel <= 0:
        return zero(prec)
    factors = [tet_index(m, e, d + rel) for (m, e), d in zip(charges, degrees)]
    prod = reduce(mul, factors) if factors else one(rel)
    return prod.scaled(sign, pref_h).truncated(prec)


def sum_products(products, prec: int) -> QSeries:
    """The sum of the charge products (charges, pref_h, c) of
    `charge_product`, truncated at `prec`.  The products go into one
    dense integer list, which starts at the lowest lead so far and grows
    downward when a product starts lower."""
    if len(products) == 1:
        return charge_product(*products[0], prec)
    total, low = [], prec
    for charges, pref_h, c in products:
        s = charge_product(charges, pref_h, c, prec)
        if s.lead < low:
            total[:0] = [0] * (low - s.lead)
            low = s.lead
        i = s.lead - low
        total[i:] = map(add, total[i:], s.coeffs)
    return _from_array(low, total, prec)


class _Term:
    """The term of a lattice sum as (charges, pref_h): the forms pref_h,
    m_1, e_1, m_1 + e_1, m_2, ..., charges halved once from half-units,
    as their constants and one column of coefficients per coordinate."""

    def __init__(self, expr: LatticeSumExpr):
        pref = expr.prefactor
        self.consts, self.cols = [pref.constant], [[c] for c in pref.coeffs]
        for a, b in expr.factors:
            m, e = a.constant // 2, b.constant // 2
            self.consts += (m, e, m + e)
            for col, ca, cb in zip(self.cols, a.coeffs, b.coeffs):
                m, e = ca // 2, cb // 2
                col += (m, e, m + e)

    def at(self, point):
        """The term at one lattice point."""
        vals = self.consts
        for col, k in zip(self.cols, point):
            if k:
                vals = [v + c * k for v, c in zip(vals, col)]
        return list(zip(vals[1::3], vals[2::3])), vals[0]


def _first(pred, lo: int, hi: int) -> int:
    """The least t in [lo, hi] with pred(t), for a pred that is false and
    then true on [lo, hi] and true at hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _low_ends(d: int, slope: int, curve: int, n: int | None, prec: int):
    """The least and greatest t in [0, n] (n None: t >= 0) at which
    q(t) = d + slope*t + curve*t*(t-1)/2 is below `prec`, or None if
    there is none; with n None the quadratic must be convex or rise, so
    that the greatest exists.  Each end is found by bisection, in a
    number of steps logarithmic in t."""

    def low(t):
        return d + slope * t + curve * (t * (t - 1) // 2) < prec

    def high(t):
        return not low(t)

    if curve < 0:  # concave: q >= prec on one middle interval, if at all
        lo_low, hi_low = low(0), low(n)
        if not (lo_low or hi_low):
            return None
        first = 0 if lo_low else _first(low, 0, n)
        last = n if hi_low else _first(high, 0, n) - 1
        return first, last
    # convex or linear: the low values form one interval around the minimum
    if slope >= 0:
        v = 0
    elif curve == 0:
        v = n
    else:
        v = -(slope // curve)  # the first t where q stops falling
        v = v if n is None else min(v, n)
    if not low(v):
        return None
    if n is None:
        n = v + 1
        while low(n):
            n = 2 * n
    last = n if low(n) else _first(high, v, n) - 1
    return _first(low, 0, v), last


def _low_runs(value, lines, prec: int):
    """Disjoint runs (first, last) of t >= 1 that cover every t >= 1
    with value(t) < prec, or None when there are infinitely many such t.

    `value` must be one integer quadratic in t between consecutive zeros
    of the affine functions a*t + b given as (a, b) in `lines`, and past
    the last of them.  Each such piece is read from three consecutive
    values and only the ends of its low values are solved for; the zeros
    themselves (rounded down) are tested one by one.  The cost is
    logarithmic in the answer, so a far low value is found as fast as a
    near one.  On the outer ray, a negative second difference, or a line
    that falls or stays below `prec`, means infinitely many low values.
    A concave piece's run may cover high values between its low ends.
    """
    runs, pieces, t = [], [], 1  # t: the first value past the zeros so far
    for cut in sorted({-b // a for a, b in lines if a}):
        if cut < t:
            continue
        if cut - t > 2:  # the piece t .. cut - 1, as (first t, last step)
            pieces.append((t, cut - 1 - t))
            t = cut
        for j in range(t, cut + 1):  # a piece too short to read, and the cut
            if value(j) < prec:
                runs.append((j, j))
        t = cut + 1
    pieces.append((t, None))  # the outer ray
    for t, n in pieces:
        d = value(t)
        slope = value(t + 1) - d
        curve = value(t + 2) - 2 * slope - d
        if n is None and (
            curve < 0 or curve == 0 and (slope < 0 or slope == 0 and d < prec)
        ):
            return None
        ends = _low_ends(d, slope, curve, n, prec)
        if ends is not None:
            runs.append((t + ends[0], t + ends[1]))
    return runs


def _faces(rank: int, group=()):
    """The 2 * rank faces of the max-norm unit sphere as direction boxes,
    or only the first of each orbit of a `group`: (source, signs) maps
    the face u[axis] = sign to u[j] = signs[j] * sign, source[j] = axis.

    A box is (axis, w, spans): every u in it has u[axis] = +-1 and
    spans[j][0] / w <= u[j] <= spans[j][1] / w, with the axis span a
    single value.  Splitting halves the other spans over a doubled w, so
    w is a power of two and every bound stays an exact integer."""
    seen = set()
    for axis in range(rank):
        for sign in (1, -1):
            if (axis, sign) not in seen:
                for source, signs in group:
                    j = source.index(axis)
                    seen.add((j, signs[j] * sign))
                spans = [(-1, 1)] * rank
                spans[axis] = (sign, sign)
                yield axis, 1, tuple(spans)


def _split(box):
    axis, w, spans = box
    halves = [
        ((2 * lo, 2 * lo),) if j == axis else ((2 * lo, lo + hi), (lo + hi, 2 * hi))
        for j, (lo, hi) in enumerate(spans)
    ]
    return [(axis, 2 * w, sub) for sub in itertools.product(*halves)]


def _box_ranges(box, r: int):
    """One range per coordinate, whose product is the lattice points k
    with max |k_j| = r and k / r in the box, each in exactly one box of a
    subdivision of the faces: a span holds the values from its lower end
    up to, but not including, its upper end (the end u[j] = 1 included),
    and the first coordinate with |k_j| = r picks the face, so the
    coordinates before it lie strictly inside."""
    axis, w, spans = box
    ranges = []
    for j, (lo, hi) in enumerate(spans):
        start = -(-r * lo // w)
        stop = start + 1 if j == axis else r + 1 if hi == w else -(-r * hi // w)
        if j < axis:
            start, stop = max(start, 1 - r), min(stop, r)
        ranges.append(range(start, stop))
    return ranges


def _line(step):
    """The box of the single direction `step`: its radius r is the
    multiplier of the point r * step."""
    return 0, 1, tuple((c, c) for c in step)


class _Certificate:
    """A certified truncation of a lattice sum.

    Write a point as k = r * u with r = max |k_j| and u on a face of the
    max-norm unit sphere.  In max form the degree of I(m, e) is
        m+ (m+e)+ + (-m)+ e+ + (-e)+ (-m-e)+ + max(0, m, -e)
    (x+ = max(x, 0)), Garoufalidis' closed form `tet_min_degree`, and
    every piece of it rises with each argument.  Over a box U of
    directions, each of m, -m, e, -e, m+e, -m-e and the prefactor is at
    least r times the least value of its linear part on U, plus its
    constant; putting these ends into the max form gives a lower bound
    L_U(r) <= D(r * u) for every u in U, which is one quadratic in r
    between the zeros of the bounding affine functions.  Scaled by w^2
    it has integer coefficients, and `_low_runs` solves it exactly.  On
    a box of a single direction, such as a face of a rank-1 sum or the
    `_line` of a step, every end is exact and L_U is the degree itself.

    A box whose bound has finitely many low radii is accepted with runs
    of radii that cover them.  Otherwise the integer lines through its
    corners and centre are solved as single-direction boxes, raising at
    once if the sum diverges along one of them, and the box is split.
    """

    def __init__(self, expr: LatticeSumExpr, prec: int):
        self.expr, self.prec = expr, prec
        self.term = _Term(expr)
        self.lines_tested = set()
        # at w = 1: the constants of the prefactor, of each m, e, s, and all but the first
        k = self.term.consts
        self.consts = k[0], k[1::3], k[2::3], k[3::3], k[1:]

    def runs(self, box):
        """Disjoint runs of radii r >= 1 covering every r with L_U(r) <
        prec, or None if there are infinitely many; the origin is apart."""
        _, w, spans = box
        # the least and greatest values of the forms' linear parts on the box
        lo = hi = [0] * len(self.term.consts)
        for col, (l, h) in zip(self.term.cols, spans):
            if l == h and lo is hi:  # one value, and the ends still agree
                lo = hi = [x + c * l for x, c in zip(lo, col)]
            else:
                lo = [x + c * (l if c >= 0 else h) for x, c in zip(lo, col)]
                hi = [x + c * (h if c >= 0 else l) for x, c in zip(hi, col)]
        if w == 1:
            p_const, cm, ce, cs, offsets = self.consts
        else:
            k = [w * c for c in self.term.consts]
            p_const, cm, ce, cs, offsets = w * k[0], k[1::3], k[2::3], k[3::3], k[1:]
        if hi is lo:
            # a single direction: one set of ends, and L_U is the degree in
            # the three sectors of `tet_min_degree`, cut by the zeros of m, e, s
            p_slope, rows = w * lo[0], list(zip(lo[1::3], lo[2::3], cm, ce))

            def degree(r):
                total = p_slope * r + p_const
                for a, b, c, d in rows:
                    m, e = a * r + c, b * r + d
                    if m >= 0 <= m + e:
                        total += m * (m + e + w)
                    elif m < 0 <= e:
                        total -= m * e
                    else:
                        total += e * (m + e - w)
                return total

            return _low_runs(degree, zip(lo[1:], offsets), w * w * self.prec)
        lm, le, ls, hm, he, hs = lo[1::3], lo[2::3], lo[3::3], hi[1::3], hi[2::3], hi[3::3]
        p_slope, rows = w * lo[0], list(zip(lm, hm, le, he, ls, hs, cm, ce, cs))
        # the zeros of every bound and of the least m plus the greatest e
        slopes = lo[1:] + hi[1:] + list(map(add, lm, he))
        offsets = offsets * 2 + list(map(add, cm, ce))

        def value(r):
            # the max form at the least m, e, s = m + e and the greatest
            # M, E, S: m > 0 rules out (-M)+ e+, and E >= 0 (-E)+ (-S)+
            total = p_slope * r + p_const
            for lm, hm, le, he, ls, hs, cm, ce, cs in rows:
                m, E = lm * r + cm, he * r + ce
                if m > 0:
                    if (s := ls * r + cs) > 0:
                        total += m * s
                    if E >= 0:
                        total += w * m
                        continue
                    total += w * m if m > -E else -w * E
                else:
                    if (M := hm * r + cm) < 0 < (e := le * r + ce):
                        total -= M * e
                    if E >= 0:
                        continue
                    total -= w * E
                if (S := hs * r + cs) < 0:
                    total += E * S
            return total

        return _low_runs(value, zip(slopes, offsets), w * w * self.prec)

    def test_lines(self, box, what: str) -> None:
        """Solve the lines through the box's corners and centre as the
        single-direction boxes of their two steps; raise, naming the sum
        `what` and the line, if the sum diverges along one of them."""
        spans = box[2]
        ends = [(lo,) if lo == hi else (lo, hi) for lo, hi in spans]
        centre = tuple(lo + hi for lo, hi in spans)
        for direction in [centre, *itertools.product(*ends)]:
            g = gcd(*direction)
            step = tuple(c // g for c in direction)
            back = tuple(-c for c in step)
            if step in self.lines_tested:
                continue
            self.lines_tested.update((step, back))
            if self.runs(_line(step)) is None or self.runs(_line(back)) is None:
                raise StabilizationError(
                    f"{what} along the line j * {step} diverges: infinitely many "
                    f"of its terms start below half-exponent {self.prec}"
                )


def _low_points(cert: _Certificate, what: str = "lattice sum", group=()):
    """The box half-width of the sum `cert` truncates, at any rank: the
    max-norm of the farthest nonzero point whose term reaches below its
    precision, and those points mapped to their terms.

    With a `group` of signed permutations that leave the term unchanged,
    only the faces of `_faces(rank, group)` are walked and their low
    points returned, and every orbit of low points meets them: of an
    orbit, take the point q whose face F(q) (by the tie rule of
    `_box_ranges`) comes first, and the first face R of its orbit,
    F(q) = g R.  g^-1 q lies on the closed face R, so the tie rule puts
    it on R or an earlier face, and R = F(q).

    Every face walked is covered by direction boxes whose bounds are
    certified (see `_Certificate`), split at most SPLIT_BUDGET times in
    all, and a box of a single direction never.  While enumerating a box
    would test more than SPLIT_POINTS points, it is split to tighten its
    radii; then the points at the radii of its runs are tested, the
    farthest first.  Divergence, a split budget that runs out before
    every box is certified, and a convergent sum whose runs hold more
    than POINT_BUDGET points raise StabilizationError naming the sum
    `what`; the budget is counted before a radius is tested, so no more
    points than that are ever tested."""
    prec, budget = cert.prec, SPLIT_BUDGET
    pending, accepted = deque(_faces(cert.expr.rank, group)), []
    while pending:
        box = pending.popleft()
        runs = cert.runs(box)
        if runs is not None:
            accepted.append((box, runs))
            continue
        cert.test_lines(box, what)
        if not budget:
            raise StabilizationError(
                f"could not certify the lattice sum at half-exponent {prec}: "
                f"its direction boxes were split {SPLIT_BUDGET} times"
            )
        budget -= 1
        pending += _split(box)

    far, points, at, left = 0, {}, cert.term.at, POINT_BUDGET
    while accepted:
        box, runs = accepted.pop()
        if not runs:
            continue
        _, w, spans = box
        runs.sort(reverse=True)  # the farthest first
        top = runs[0][1]
        if budget and w < top and len(spans) > 1 and sum(  # rank 1: one direction
            last - first + 1 for first, last in runs
        ) * prod(top * (hi - lo) // w + 1 for lo, hi in spans) > SPLIT_POINTS:
            budget -= 1
            accepted += ((sub, cert.runs(sub)) for sub in _split(box))
            continue
        for first, last in runs:
            for r in range(last, first - 1, -1):
                ranges = _box_ranges(box, r)
                left -= prod(map(len, ranges))
                if left < 0:
                    raise StabilizationError(
                        f"{what} converges at half-exponent {prec} (certified), "
                        f"but finding its low points would test more than "
                        f"POINT_BUDGET = {POINT_BUDGET} lattice points"
                    )
                for point in itertools.product(*ranges):
                    term = at(point)
                    if term_degree(*term) < prec:
                        far = max(far, r)
                        points[point] = term
    return far, points


# rank -> every signed permutation of Z^rank but the identity, built on
# first use
_SIGNED_PERMS: dict[int, list] = {}


def _act(g, v) -> tuple:
    """The signed permutation g = (source, signs) applied to a point or a
    coefficient vector v: (signs[j] * v[source[j]])_j."""
    source, signs = g
    return tuple([s * v[i] for i, s in zip(source, signs)])


def _factor_keys(factors, g):
    """The factors' forms, with their coefficients mapped by g, as one
    sorted list in which each factor (m, e) is the lesser of itself and
    its dual (-e, -m)."""
    keys = []
    for m, e in factors:
        m_key, e_key = (m.constant, *_act(g, m.coeffs)), (e.constant, *_act(g, e.coeffs))
        dual = (tuple([-x for x in e_key]), tuple([-x for x in m_key]))
        keys.append(min((m_key, e_key), dual))
    keys.sort()
    return keys


def _symmetry_group(expr: LatticeSumExpr) -> list:
    """The signed permutations g of Z^rank, the identity first, under
    which the term is unchanged, term(g k) = term(k) at every k, read
    from the forms alone and never from values: g must leave the
    prefactor form as it is and map the factor list onto itself up to
    order and up to the duality I(m, e) = I(-e, -m) (Dimofte-Gaiotto-
    Gukov, "3-manifolds and 3d indices").

    On coefficients, `_act(g, .)` turns a form f into k -> f(g^-1 k),
    with g acting on points by `_act` too; the maps that pass are closed
    under inverses and composition, a group, so testing g^-1 tests g.
    The identity is not tested, and the prefactor is tested first, so a
    sum whose prefactor has a slope rejects most maps without reading a
    factor."""
    rank = expr.rank
    identity = (tuple(range(rank)), (1,) * rank)
    perms = _SIGNED_PERMS.get(rank)
    if perms is None:
        perms = _SIGNED_PERMS[rank] = [
            (source, signs)
            for source in itertools.permutations(range(rank))
            for signs in itertools.product((1, -1), repeat=rank)
            if (source, signs) != identity
        ]
    pref, group, keys = expr.prefactor.coeffs, [identity], None
    for g in perms:
        source, signs = g
        if any(pref[i] * s != c for i, s, c in zip(source, signs, pref)):
            continue
        if keys is None:
            keys = _factor_keys(expr.factors, identity)
        if _factor_keys(expr.factors, g) == keys:
            group.append(g)
    return group


def _face_of(point):
    """The face (axis, sign) that `_box_ranges` puts a nonzero point on."""
    size = [abs(c) for c in point]
    axis = size.index(max(size))
    return axis, 1 if point[axis] > 0 else -1


def _orbit_sum(expr: LatticeSumExpr, terms: dict, group, prec: int) -> QSeries:
    """The sum over the orbits under `group` of `terms`, a map from lattice
    points to their (charges, pref_h), truncated at `prec`.

    The points must be the origin and the low points that `_low_points`
    finds with `group`, or a set that the group maps onto itself, such as
    a cube.  Each orbit is summed once, as one `charge_product` at one of
    its points times the orbit's size, by `sum_products`.  Raises
    RuntimeError if an image of a point lies on a face of
    `_faces(rank, group)` but is not in `terms`: the certificate and the
    group then disagree."""
    sign = expr.sign
    if len(group) < 2:
        return sum_products([(*term, sign) for term in terms.values()], prec)
    faces = {(axis, spans[axis][0]) for axis, _, spans in _faces(expr.rank, group)}
    seen, reps = set(), []
    for p, term in terms.items():
        if p not in seen:
            orbit = {_act(g, p) for g in group}
            seen |= orbit
            # one membership test per image (a set minus `terms.keys()`
            # would walk every key of `terms` for each orbit)
            for image in orbit:
                if image not in terms and _face_of(image) in faces:
                    raise RuntimeError(
                        f"the image {image} of the low point {p} is on a face "
                        f"walked, but not low"
                    )
            reps.append((*term, sign * len(orbit)))
    return sum_products(reps, prec)


def eval_expr_with_box(
    expr: LatticeSumExpr, prec: int, what: str = "lattice sum"
) -> tuple[QSeries, int]:
    """Sum the expression over its integer lattice, truncated at `prec`,
    and report the box half-width: the max-norm of its farthest low
    point.  `what` names the sum in errors.

    Only the origin and the low points of `_low_points` are summed, one
    orbit of the sum's symmetry group at a time (`_orbit_sum`); every
    other term is zero to this precision."""
    cert, group = _Certificate(expr, prec), _symmetry_group(expr)
    extent, terms = _low_points(cert, what, group)
    at, origin = cert.term.at, (0,) * expr.rank
    terms[origin] = at(origin)
    return _orbit_sum(expr, terms, group, prec), extent


def ind41(prec: int) -> QSeries:
    """The figure-eight-knot index sum_{k1,k2} I(k1,k2) I(k2,k1)."""
    return eval_expr_with_box(parse_expr(IND41_TEXT), prec)[0]


def load_expr_file(path) -> LatticeSumExpr:
    """Read one expression from a UTF-8 text file; `#` lines are comments.
    Lines end at CR LF, LF or CR, as in text mode; the file is read at once."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return parse_expr(" ".join([ln for ln in map(str.strip, lines) if ln[:1] != "#"]).strip())
