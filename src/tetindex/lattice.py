"""Lattice sums of tetrahedron-index products, with a small expression
language.

Grammar (whitespace-insensitive, `#` starts a comment line in files):

    expr    := "sum" var+ ":" ["-"] [prefac "*"] factor ("*" factor)*
    prefac  := "q^(" affine ")"
    factor  := "I(" affine "," affine ")"
    affine  := ["-"] term (("+"|"-") term)*
    term    := [int ["/2"] "*"] var | int ["/2"]

Affine forms are stored in half-units so monomial prefactors with
half-integer exponents (such as q^(k/2)) are exact; forms used as index
charges must be integer-valued on the lattice, which the parser checks.

This is the one charge-sum module of the package: the pentagon checks
build their right-hand sides as rank-1 expressions and sum them here.

Every sum is truncated by a certificate, never by a finite screen, and
reports its box half-width E: `margin` past the farthest lattice point
whose term reaches below the precision.  Only the origin and those low
points are summed; every other term is zero to the precision.  A rank-1
sum gets E exactly (see `rank1_extent`) from runs that cover its low
terms, solved piece by piece in time logarithmic in their distance.  A
sum of higher rank covers the directions of the lattice by boxes on the
faces of the max-norm unit sphere, bounds the term degree from below on
each of them by a quadratic in the radius, and tests one by one only
the points at the radii where that bound reaches below the precision
(see `_Certificate` and `_low_points`).  A divergent sum raises at
once (at rank >= 2 naming a line of lattice points on which it
diverges), and so does a box wider than its cap.  The built-in `ind41`
expression is the figure-eight-knot index sum_{k1,k2} I(k1,k2) I(k2,k1).
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from math import gcd, prod
from operator import add, mul

from .errors import ExprSyntaxError, StabilizationError
from .series import QSeries, half_exp_str, zero
from .tetrahedron import term_degree, tet_index, tet_min_degree

__all__ = [
    "AffineForm",
    "LatticeSumExpr",
    "parse_expr",
    "format_expr",
    "eval_expr",
    "eval_expr_with_box",
    "box_cap_default",
    "charge_product",
    "rank1_extent",
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

_RESERVED = {"sum", "q", "I"}


@dataclass(frozen=True)
class AffineForm:
    """coeffs[i] (half-units) multiplies the i-th lattice variable;
    `constant` is in half-units as well."""

    coeffs: tuple[int, ...]
    constant: int

    def __call__(self, point) -> int:
        return self.constant + sum(c * k for c, k in zip(self.coeffs, point))

    @property
    def is_integer_valued(self) -> bool:
        return self.constant % 2 == 0 and all(c % 2 == 0 for c in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return self.constant == 0 and not any(self.coeffs)


@dataclass(frozen=True)
class LatticeSumExpr:
    vars: tuple[str, ...]
    sign: int
    prefactor: AffineForm
    factors: tuple[tuple[AffineForm, AffineForm], ...]

    @property
    def rank(self) -> int:
        return len(self.vars)


_TOKEN = re.compile(r"(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<punct>[:*+\-,()/^])")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.i = 0
        self.vars: list[str] = []

    # -- token helpers --------------------------------------------------

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self, expect_kind=None, expect_text=None):
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", len(self.text))
        kind, text, pos = tok
        if expect_kind and kind != expect_kind:
            raise ExprSyntaxError(f"expected {expect_kind}, found {text!r}", pos)
        if expect_text and text != expect_text:
            raise ExprSyntaxError(f"expected {expect_text!r}, found {text!r}", pos)
        self.i += 1
        return tok

    def _at(self, text: str) -> bool:
        tok = self._peek()
        return tok is not None and tok[1] == text

    # -- grammar --------------------------------------------------------

    def parse(self) -> LatticeSumExpr:
        self._next("ident", "sum")
        while True:
            tok = self._peek()
            if tok is None:
                raise ExprSyntaxError("expected ':' after variables", len(self.text))
            if tok[1] == ":":
                break
            kind, name, pos = self._next("ident")
            if name in _RESERVED:
                raise ExprSyntaxError(f"{name!r} is reserved", pos)
            if name in self.vars:
                raise ExprSyntaxError(f"duplicate variable {name!r}", pos)
            self.vars.append(name)
        if not self.vars:
            raise ExprSyntaxError("at least one lattice variable is required", 0)
        self._next("punct", ":")
        sign = 1
        if self._at("-"):
            self._next()
            sign = -1
        prefactor = AffineForm((0,) * len(self.vars), 0)
        if self._at("q"):
            self._next()
            self._next("punct", "^")
            self._next("punct", "(")
            prefactor = self._affine()
            self._next("punct", ")")
            self._next("punct", "*")
        factors = [self._factor()]
        while self._at("*"):
            self._next()
            factors.append(self._factor())
        tok = self._peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return LatticeSumExpr(tuple(self.vars), sign, prefactor, tuple(factors))

    def _factor(self):
        _, _, pos = self._next("ident", "I")
        self._next("punct", "(")
        a = self._affine(require_integer=True)
        self._next("punct", ",")
        b = self._affine(require_integer=True)
        self._next("punct", ")")
        return (a, b)

    def _affine(self, require_integer=False):
        coeffs = [0] * len(self.vars)
        constant = 0
        start = self._peek()[2] if self._peek() else len(self.text)
        sign = 1
        if self._at("-"):
            self._next()
            sign = -1
        while True:
            constant = self._term(sign, coeffs, constant)
            tok = self._peek()
            if tok is not None and tok[1] in "+-":
                sign = 1 if tok[1] == "+" else -1
                self._next()
            else:
                break
        form = AffineForm(tuple(coeffs), constant)
        if require_integer and not form.is_integer_valued:
            raise ExprSyntaxError("charge form not integer-valued", start)
        return form

    def _term(self, sign, coeffs, constant):
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("expected a term", len(self.text))
        kind, text, pos = tok
        if kind == "int":
            self._next()
            value = int(text) * 2  # whole units -> half-units
            if self._at("/"):
                self._next()
                _, den, dpos = self._next("int")
                if den != "2":
                    raise ExprSyntaxError("only /2 denominators are allowed", dpos)
                value //= 2
            if self._at("*"):
                self._next()
                name = self._var()
                coeffs[self.vars.index(name)] += sign * value
                return constant
            return constant + sign * value
        if kind == "ident":
            name = self._var()
            value = 2
            if self._at("/"):
                self._next()
                _, den, dpos = self._next("int")
                if den != "2":
                    raise ExprSyntaxError("only /2 denominators are allowed", dpos)
                value = 1
            coeffs[self.vars.index(name)] += sign * value
            return constant
        raise ExprSyntaxError(f"expected a term, found {text!r}", pos)

    def _var(self):
        kind, name, pos = self._next("ident")
        if name not in self.vars:
            raise ExprSyntaxError(f"unknown variable {name!r}", pos)
        return name


def parse_expr(text: str) -> LatticeSumExpr:
    """Parse a lattice-sum expression; raises ExprSyntaxError with the
    offending position on malformed input."""
    return _Parser(text).parse()


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


def box_cap_default(rank: int) -> int:
    return 48 if rank <= 2 else 16


def charge_product(charges, pref_h: int, sign: int, prec: int) -> QSeries:
    """sign * q^(pref_h/2) * prod_i I(m_i, e_i), truncated at `prec`.

    Each factor is computed to exactly the precision the product needs,
    from the exact minimal degrees of the others.
    """
    rel = prec - term_degree(charges, pref_h)
    if rel <= 0:
        return zero(prec)
    prod = None
    for m, e in charges:
        f = tet_index(m, e, tet_min_degree(m, e) + rel)
        prod = f if prod is None else prod * f
    return prod.scaled(sign, pref_h).truncated(prec)


class _Term:
    """The term of a lattice sum as (charges, pref_h), with the charge
    forms halved once, from half-units to integers."""

    def __init__(self, expr: LatticeSumExpr):
        self.pref = expr.prefactor.coeffs, expr.prefactor.constant
        self.rows = [
            ([c // 2 for c in a.coeffs], [c // 2 for c in b.coeffs],
             a.constant // 2, b.constant // 2)
            for a, b in expr.factors
        ]

    def at(self, point):
        """The term at one lattice point."""
        p, p_c = self.pref
        charges = [
            (m_c + sum(map(mul, m, point)), e_c + sum(map(mul, e, point)))
            for m, e, m_c, e_c in self.rows
        ]
        return charges, p_c + sum(map(mul, p, point))

    def line(self, step):
        """The term j -> term(j * step), affine in j."""

        def dot(coeffs):
            return sum(map(mul, coeffs, step))

        rows = [(dot(m), m_c, dot(e), e_c) for m, e, m_c, e_c in self.rows]
        p_slope, p_c = dot(self.pref[0]), self.pref[1]
        return lambda j: (
            [(a * j + b, c * j + d) for a, b, c, d in rows], p_slope * j + p_c
        )


def _check_window_args(margin: int, cap: int, what: str) -> None:
    """Raise ValueError for a margin below 1, which would accept a window
    without a single checked value past its last low term, or a negative
    cap."""
    if margin < 1:
        raise ValueError(f"{what} margin must be at least 1, got {margin}")
    if cap < 0:
        raise ValueError(f"{what} cap must not be negative, got {cap}")


def _cap_error(what: str, cap: int) -> StabilizationError:
    return StabilizationError(
        f"{what} not stabilized within cap {cap}; "
        "the sum may not converge at this precision"
    )


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
    cuts = sorted({0, *(-b // a for a, b in lines if a and -b // a > 0)})
    runs = [(t, t) for t in cuts[1:] if value(t) < prec]
    # (first t, last step or None for the ray) of every piece
    pieces = [(a + 1, b - a - 2) for a, b in zip(cuts, cuts[1:]) if b - a > 1]
    pieces.append((cuts[-1] + 1, None))
    for t, n in pieces:
        if n is not None and n < 2:  # too short to read a quadratic from
            runs += [(j, j) for j in range(t, t + n + 1) if value(j) < prec]
            continue
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


def _rank1_runs(term, prec: int, what: str):
    """Runs (side, first, last) that cover every nonzero j with
    term_degree(*term(j)) < prec, as j = side * t for t in [first, last];
    `last` is always such a j.  Raises StabilizationError when there are
    infinitely many.  Every charge and the prefactor must be affine in j:
    only term(0) and term(1) are read.

    tet_min_degree is one polynomial on each sector cut out by m = 0,
    e = 0 and m + e = 0, so on each side of j = 0 the term degree is one
    exact quadratic between consecutive zeros of the m, e and m + e of
    all factors, and past the outermost ones: `_low_runs` solves it.
    """
    (charges0, p0), (charges1, p1) = term(0), term(1)
    # every m and e as (slope, value at j = 0)
    rows = [(m1 - m0, m0, e1 - e0, e0) for (m0, e0), (m1, e1) in zip(charges0, charges1)]
    out = []
    for side in (1, -1):
        slope = side * (p1 - p0)
        side_rows = [(side * a, b, side * c, d) for a, b, c, d in rows]

        def degree(t):  # term_degree(*term(side * t)), from the rows
            return slope * t + p0 + sum(
                [tet_min_degree(a * t + b, c * t + d) for a, b, c, d in side_rows]
            )

        lines = [
            line for a, b, c, d in side_rows for line in ((a, b), (c, d), (a + c, b + d))
        ]
        runs = _low_runs(degree, lines, prec)
        if runs is None:
            raise StabilizationError(
                f"{what} diverges: infinitely many of its terms start "
                f"below half-exponent {prec}"
            )
        out += [(side, first, last) for first, last in runs]
    return out


def _rank1_window(term, prec: int, margin: int, cap: int, what: str):
    """`rank1_extent` and the runs of `_rank1_runs` it rests on."""
    runs = _rank1_runs(term, prec, what)
    extent = margin + max((last for *_, last in runs), default=0)
    if extent > cap:
        raise _cap_error(what, cap)
    return extent, runs


def rank1_extent(term, prec: int, margin: int, cap: int, what: str) -> int:
    """Exact window half-width for the sum over j of the terms
    term(j) = (charges, pref_h) at precision `prec`: `margin` past the
    farthest nonzero j with term_degree(*term(j)) < prec, or `margin`
    when there is none (see `_rank1_runs`).  The centre j = 0 is always
    summed, so it never widens the window.

    A sum with infinitely many low terms diverges at this precision.
    That, and a window wider than `cap`, raise StabilizationError; a
    margin below 1 or a negative cap raise ValueError.
    """
    _check_window_args(margin, cap, what)
    return _rank1_window(term, prec, margin, cap, what)[0]


def _faces(rank: int):
    """The 2 * rank faces of the max-norm unit sphere as direction boxes.

    A box is (axis, w, spans): every u in it has u[axis] = +-1 and
    spans[j][0] / w <= u[j] <= spans[j][1] / w, with the axis span a
    single value.  Splitting halves the other spans over a doubled w, so
    w is a power of two and every bound stays an exact integer."""
    for axis in range(rank):
        for sign in (1, -1):
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


def _box_points(box, r: int):
    """The lattice points k with max |k_j| = r and k / r in the box, each
    in exactly one box of a subdivision of the faces: a span holds the
    values from its lower end up to, but not including, its upper end
    (the end u[j] = 1 included), and the first coordinate with
    |k_j| = r picks the face, so the coordinates before it lie strictly
    inside."""
    axis, w, spans = box
    ranges = []
    for j, (lo, hi) in enumerate(spans):
        start = -(-r * lo // w)
        stop = start + 1 if j == axis else r + 1 if hi == w else -(-r * hi // w)
        if j < axis:
            start, stop = max(start, 1 - r), min(stop, r)
        ranges.append(range(start, stop))
    return itertools.product(*ranges)


class _Certificate:
    """A certified truncation of a lattice sum of rank >= 2.

    Write a point as k = r * u with r = max |k_j| and u on a face of the
    max-norm unit sphere.  In max form the degree of I(m, e) is
        m+ (m+e)+ + (-m)+ e+ + (-e)+ (-m-e)+ + max(0, m, -e)
    (x+ = max(x, 0)), and every piece of it rises with each argument.
    Over a box U of directions, each of m, -m, e, -e, m+e, -m-e and the
    prefactor is at least r times the least value of its linear part on
    U, plus its constant; putting these ends into the max form gives a
    lower bound L_U(r) <= D(r * u) for every u in U, which is one
    quadratic in r between the zeros of the bounding affine functions.
    Scaled by w^2 it has integer coefficients, and `_low_runs` solves it
    exactly, as in the rank-1 case.

    A box whose bound has finitely many low radii is accepted with runs
    of radii that cover them.  Otherwise the integer lines through the
    box's corners and centre are solved as rank-1 sums (`_rank1_runs`),
    which raises at once if one of them diverges, and the box is split.
    """

    def __init__(self, expr: LatticeSumExpr, prec: int):
        self.expr, self.prec = expr, prec
        self.term = _Term(expr)
        self.lines_tested = set()

    def runs(self, box):
        """Disjoint runs of radii r >= 1 that cover every r with
        L_U(r) < prec, or None when the bound has infinitely many low
        radii.  The origin is summed on its own."""
        _, w, spans = box

        def lo(coeffs):
            return sum(c * (l if c >= 0 else h) for c, (l, h) in zip(coeffs, spans))

        def hi(coeffs):
            return sum(c * (h if c >= 0 else l) for c, (l, h) in zip(coeffs, spans))

        pref = self.expr.prefactor
        p_slope, p_const = w * lo(pref.coeffs), w * w * pref.constant
        rows, lines = [], []
        for m, e, m_c, e_c in self.term.rows:
            s = list(map(add, m, e))
            # slopes of m, -m, e, -e, m+e, -m-e and the constants of m, e, m+e
            row = (lo(m), -hi(m), lo(e), -hi(e), lo(s), -hi(s),
                   w * m_c, w * e_c, w * (m_c + e_c))
            lm, lnm, le, lne, ls, lns, cm, ce, cs = row
            rows.append(row)
            lines += ((lm, cm), (lnm, -cm), (le, ce), (lne, -ce), (ls, cs),
                      (lns, -cs), (lm - lne, cm + ce))

        def value(r):
            total = p_slope * r + p_const
            for lm, lnm, le, lne, ls, lns, cm, ce, cs in rows:
                m, nm = lm * r + cm, lnm * r - cm
                e, ne = le * r + ce, lne * r - ce
                s, ns = ls * r + cs, lns * r - cs
                if m > 0 < s:
                    total += m * s
                if nm > 0 < e:
                    total += nm * e
                if ne > 0 < ns:
                    total += ne * ns
                total += w * max(0, m, ne)
            return total

        return _low_runs(value, lines, w * w * self.prec)

    def test_lines(self, box) -> None:
        """Solve the lines through the box's corners and centre as rank-1
        sums; raises StabilizationError if one of them diverges."""
        spans = box[2]
        ends = [(lo,) if lo == hi else (lo, hi) for lo, hi in spans]
        centre = tuple(lo + hi for lo, hi in spans)
        for direction in [centre, *itertools.product(*ends)]:
            g = gcd(*direction)
            step = tuple(c // g for c in direction)
            if step in self.lines_tested:
                continue
            self.lines_tested.add(step)
            self.lines_tested.add(tuple(-c for c in step))
            _rank1_runs(
                self.term.line(step), self.prec,
                f"lattice sum along the line j * {step}",
            )


def _low_points(expr: LatticeSumExpr, prec: int, margin: int, cap: int,
                what: str = "lattice sum"):
    """The box half-width of a sum of rank >= 2, `margin` past the
    farthest nonzero point whose term reaches below `prec`, and those
    points.

    Every face is covered by direction boxes whose bounds are certified
    (see `_Certificate`); a box is split at most SPLIT_BUDGET times in
    all.  Then, while enumerating a box would test more than SPLIT_POINTS
    points, it is split further to tighten its radii, and the points at
    the radii of its runs are tested one by one.  A divergent sum, a
    budget that runs out before every box is certified, and a low point
    past `cap - margin` raise StabilizationError."""
    if margin > cap:
        raise _cap_error(what, cap)
    cert = _Certificate(expr, prec)
    budget = SPLIT_BUDGET
    pending, accepted = deque(_faces(expr.rank)), []
    while pending:
        box = pending.popleft()
        runs = cert.runs(box)
        if runs is not None:
            accepted.append((box, runs))
            continue
        cert.test_lines(box)
        if not budget:
            raise StabilizationError(
                f"could not certify the lattice sum at half-exponent {prec}: "
                f"its direction boxes were split {SPLIT_BUDGET} times"
            )
        budget -= 1
        pending += _split(box)

    far, points = 0, []
    while accepted:
        box, runs = accepted.pop()
        if not runs:
            continue
        _, w, spans = box
        top = max(last for _, last in runs)
        tested = sum(last - first + 1 for first, last in runs) * prod(
            top * (hi - lo) // w + 1 for lo, hi in spans
        )
        if budget and tested > SPLIT_POINTS and w < top:
            budget -= 1
            accepted += ((sub, cert.runs(sub)) for sub in _split(box))
            continue
        for first, last in runs:
            for r in range(first, last + 1):
                for point in _box_points(box, r):
                    if term_degree(*cert.term.at(point)) < prec:
                        if r > cap - margin:
                            raise _cap_error(what, cap)
                        far = max(far, r)
                        points.append(point)
    return margin + far, points


def _evaluate(expr, prec, margin, cap, what, min_box=0):
    """The sum and its box half-width, `what` naming it in errors; a cap
    of None is `box_cap_default`.

    Only the origin and the points whose terms may reach below `prec`
    are summed; every other term is zero to this precision.  At rank 1
    they are the runs of `_rank1_runs`, walked only once the cap is
    checked on their ends (a concave piece's run may hold high terms,
    which add zero); at rank >= 2 `_low_points` finds them.  `min_box`
    sums the full cube of that half-width instead, if it is larger
    (stability-replay tests)."""
    rank, term = expr.rank, _Term(expr)
    cap = box_cap_default(rank) if cap is None else cap
    _check_window_args(margin, cap, what)
    if rank == 1:  # a point is the integer j itself
        at = term.line((1,))
        extent, runs = _rank1_window(at, prec, margin, cap, what)
        points = [0] + [
            j
            for side, first, last in runs
            for j in range(side * first, side * (last + 1), side)
        ]
        cube = range(-min_box, min_box + 1)
    else:
        at = term.at
        extent, low = _low_points(expr, prec, margin, cap, what)
        points = [(0,) * rank, *low]
        cube = itertools.product(range(-min_box, min_box + 1), repeat=rank)
    total = zero(prec)
    for point in cube if min_box > extent else points:
        total = total + charge_product(*at(point), expr.sign, prec)
    return total, extent


def eval_expr_with_box(
    expr: LatticeSumExpr,
    prec: int,
    margin: int = 3,
    box_cap: int | None = None,
) -> tuple[QSeries, int]:
    """Evaluate and also report the box half-width.

    Raises ValueError for a margin below 1, which would accept a box
    without a single checked shell past its last low term, or a negative
    cap."""
    return _evaluate(expr, prec, margin, box_cap, "lattice sum")


def eval_expr(
    expr: LatticeSumExpr,
    prec: int,
    margin: int = 3,
    box_cap: int | None = None,
    min_box: int = 0,
) -> QSeries:
    """Sum the expression over its integer lattice, truncated at `prec`.
    `min_box` forces a larger box (stability-replay tests)."""
    return _evaluate(expr, prec, margin, box_cap, "lattice sum", min_box)[0]


def ind41(prec: int, margin: int = 3, box_cap: int | None = None) -> QSeries:
    """The figure-eight-knot index sum_{k1,k2} I(k1,k2) I(k2,k1)."""
    return eval_expr(parse_expr(IND41_TEXT), prec, margin, box_cap)


def load_expr_file(path) -> LatticeSumExpr:
    """Read one expression from a UTF-8 text file; `#` lines are comments."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.lstrip().startswith("#")]
    return parse_expr(" ".join(ln.strip() for ln in lines).strip())
