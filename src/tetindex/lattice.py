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

Evaluation sums over an adaptive cube [-E, E]^rank grown until every
point on the outer shells clears the exact term degree, then sums all
cube points at full precision.  The built-in `ind41` expression is the
figure-eight-knot index sum_{k1,k2} I(k1,k2) I(k2,k1).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import ExprSyntaxError, StabilizationError
from .identities import charge_product
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


def eval_expr_with_box(
    expr: LatticeSumExpr,
    prec: int,
    margin: int = 3,
    box_cap: int | None = None,
) -> tuple[QSeries, int]:
    """Evaluate and also report the stabilized box half-width."""
    rank = expr.rank
    cap = box_cap if box_cap is not None else box_cap_default(rank)

    def converged(point) -> bool:
        return term_degree(_point_charges(expr, point), expr.prefactor(point)) >= prec

    def shell(radius):
        for point in itertools.product(range(-radius, radius + 1), repeat=rank):
            if max(abs(k) for k in point) == radius:
                yield point

    tail = 60 if rank <= 2 else 12
    extent = margin
    while extent <= cap:
        if all(
            converged(p)
            for r in range(max(1, extent - margin + 1), extent + 1)
            for p in shell(r)
        ):
            # screen the shells beyond the candidate box: the degree
            # profile need not be monotone, and a dip past a locally
            # converged boundary must pull the box out to cover it
            dip = None
            for r in range(extent + 1, extent + tail + 1):
                if not all(converged(p) for p in shell(r)):
                    dip = r
                    break
            if dip is None:
                break
            extent = dip
        else:
            extent += 1
    else:
        raise StabilizationError(
            f"box not stabilized within cap {cap}; "
            "the lattice sum may not converge at this precision"
        )
    total = zero(prec)
    for point in itertools.product(range(-extent, extent + 1), repeat=rank):
        total = total + charge_product(
            _point_charges(expr, point), expr.prefactor(point), expr.sign, prec
        )
    return total, extent


def eval_expr(
    expr: LatticeSumExpr,
    prec: int,
    margin: int = 3,
    box_cap: int | None = None,
    min_box: int = 0,
) -> QSeries:
    """Sum the expression over its integer lattice, truncated at `prec`.
    `min_box` forces a larger box (stability-replay tests)."""
    s, extent = eval_expr_with_box(expr, prec, margin, box_cap)
    if min_box > extent:
        total = zero(prec)
        for point in itertools.product(
            range(-min_box, min_box + 1), repeat=expr.rank
        ):
            total = total + charge_product(
                _point_charges(expr, point), expr.prefactor(point), expr.sign, prec
            )
        return total
    return s


def ind41(prec: int, margin: int = 3, box_cap: int | None = None) -> QSeries:
    """The figure-eight-knot index sum_{k1,k2} I(k1,k2) I(k2,k1)."""
    return eval_expr(parse_expr(IND41_TEXT), prec, margin, box_cap)


def load_expr_file(path) -> LatticeSumExpr:
    """Read one expression from a UTF-8 text file; `#` lines are comments."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.lstrip().startswith("#")]
    return parse_expr(" ".join(ln.strip() for ln in lines).strip())
