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

Every sum is truncated by a certificate, never by a finite screen, and
reports its box half-width E: `margin` past the farthest lattice point
whose term reaches below the precision.  A rank-1 sum gets E exactly
(see `identities.rank1_extent`) and sums the whole window [-E, E].  A
sum of higher rank covers the directions of the lattice by boxes on the
faces of the max-norm unit sphere, bounds the term degree from below on
each of them by a quadratic in the radius, and tests one by one only
the points at the radii where that bound reaches below the precision;
it sums the origin and the low points it finds (see `_Certificate` and
`_low_points`).  A divergent sum raises at once, naming a line of
lattice points on which it diverges.  The built-in `ind41` expression
is the figure-eight-knot index sum_{k1,k2} I(k1,k2) I(k2,k1).
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from math import gcd, prod

from .errors import ExprSyntaxError, StabilizationError
from .identities import (
    _cap_error,
    _check_window_args,
    _low_runs,
    _rank1_far,
    charge_product,
    rank1_extent,
)
from .series import QSeries, zero
from .tetrahedron import term_degree

__all__ = [
    "AffineForm",
    "LatticeSumExpr",
    "parse_expr",
    "format_expr",
    "eval_expr",
    "eval_expr_with_box",
    "box_cap_default",
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


def _format_half(h: int) -> str:
    return str(h // 2) if h % 2 == 0 else f"{h}/2"


def _format_affine(form: AffineForm, names) -> str:
    parts = []
    for c, name in zip(form.coeffs, names):
        if c == 0:
            continue
        mag = abs(c)
        if mag == 2:
            body = name
        else:
            body = f"{_format_half(mag)}*{name}"
        parts.append(("-" if c < 0 else "+", body))
    if form.constant != 0:
        parts.append(("-" if form.constant < 0 else "+", _format_half(abs(form.constant))))
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


def _point_charges(expr: LatticeSumExpr, point):
    return tuple((a(point) // 2, b(point) // 2) for a, b in expr.factors)


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
    box's corners and centre are solved as rank-1 sums (`_rank1_far`),
    which raises at once if one of them diverges, and the box is split.
    """

    def __init__(self, expr: LatticeSumExpr, prec: int):
        self.expr, self.prec = expr, prec
        # charge coefficients halved once, from half-units to integers
        self.forms = []
        for a, b in expr.factors:
            m = tuple(c // 2 for c in a.coeffs)
            e = tuple(c // 2 for c in b.coeffs)
            s = tuple(x + y for x, y in zip(m, e))
            self.forms.append((m, e, s, a.constant // 2, b.constant // 2))
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
        for m, e, s, m_c, e_c in self.forms:
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
        expr, spans = self.expr, box[2]
        ends = [(lo,) if lo == hi else (lo, hi) for lo, hi in spans]
        centre = tuple(lo + hi for lo, hi in spans)
        for direction in [centre, *itertools.product(*ends)]:
            g = gcd(*direction)
            step = tuple(c // g for c in direction)
            if step in self.lines_tested:
                continue
            self.lines_tested.add(step)
            self.lines_tested.add(tuple(-c for c in step))
            _rank1_far(
                lambda j: (
                    _point_charges(expr, [j * c for c in step]),
                    expr.prefactor([j * c for c in step]),
                ),
                self.prec, f"lattice sum along the line j * {step}",
            )


def _low_points(expr: LatticeSumExpr, prec: int, margin: int, cap: int):
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
        raise _cap_error("lattice sum", cap)
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
                    charges = _point_charges(expr, point)
                    if term_degree(charges, expr.prefactor(point)) < prec:
                        if r > cap - margin:
                            raise _cap_error("lattice sum", cap)
                        far = max(far, r)
                        points.append(point)
    return margin + far, points


def _evaluate(expr, prec, margin, box_cap, min_box):
    """The sum and its box half-width; `min_box` sums a larger full cube
    instead (stability-replay tests)."""
    rank = expr.rank
    cap = box_cap if box_cap is not None else box_cap_default(rank)
    if rank == 1:
        extent = rank1_extent(
            lambda j: (_point_charges(expr, (j,)), expr.prefactor((j,))),
            prec, margin, cap, "lattice sum",
        )
        points = itertools.product(range(-extent, extent + 1))
    else:
        _check_window_args(margin, cap, "box")
        extent, low = _low_points(expr, prec, margin, cap)
        points = [(0,) * rank, *low]
    if min_box > extent:
        points = itertools.product(range(-min_box, min_box + 1), repeat=rank)
    total = zero(prec)
    for point in points:
        total = total + charge_product(
            _point_charges(expr, point), expr.prefactor(point), expr.sign, prec
        )
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
    return _evaluate(expr, prec, margin, box_cap, 0)


def eval_expr(
    expr: LatticeSumExpr,
    prec: int,
    margin: int = 3,
    box_cap: int | None = None,
    min_box: int = 0,
) -> QSeries:
    """Sum the expression over its integer lattice, truncated at `prec`.
    `min_box` forces a larger box (stability-replay tests)."""
    return _evaluate(expr, prec, margin, box_cap, min_box)[0]


def ind41(prec: int, margin: int = 3, box_cap: int | None = None) -> QSeries:
    """The figure-eight-knot index sum_{k1,k2} I(k1,k2) I(k2,k1)."""
    return eval_expr(parse_expr(IND41_TEXT), prec, margin, box_cap)


def load_expr_file(path) -> LatticeSumExpr:
    """Read one expression from a UTF-8 text file; `#` lines are comments."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.lstrip().startswith("#")]
    return parse_expr(" ".join(ln.strip() for ln in lines).strip())
