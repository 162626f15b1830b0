"""Exact truncated Laurent series in q^(1/2) with integer coefficients.

Exponents are measured in *half-units*: the integer h stands for q^(h/2).
A series knows its coefficients for all exponents strictly below its
precision bound `prec` (also in half-units).  Coefficients are ordinary
Python ints, so they never overflow and never become inexact.

Arithmetic cost:

- Multiplication is schoolbook below `KRONECKER_MIN` coefficients per
  operand.  Longer products use Kronecker substitution (Harvey, "Faster
  polynomial multiplication via multipoint Kronecker substitution"): each
  operand is packed into one int with a slot per coefficient, wide enough
  for any product coefficient, the two ints are multiplied by CPython's
  Karatsuba, and the slots are read back.  When neither operand has a
  nonzero coefficient at an odd offset from its lead (a series in q, not
  q^(1/2), such as every 1/(q;q)_n) only every other coefficient is
  packed, which halves the integers.
- `inverse` solves the triangular recursion over the nonzero
  coefficients of the divisor only.  (q;q)_n is sparse: by Euler's
  pentagonal theorem (q;q)_inf has O(sqrt(H)) nonzero coefficients below
  q^H, so inverting it costs O(H sqrt(H)), not O(H^2).
- `qpoch` memoizes (q;q)_k for every k and builds (q;q)_n from the
  highest one cached, one shift-and-subtract per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import PrecisionError

__all__ = [
    "QSeries",
    "monomial",
    "zero",
    "one",
    "qpoch",
    "equal_to_order",
    "half_exp_str",
    "format_series",
]

# products whose operands both have at least this many coefficients go
# through one big-integer multiplication (Kronecker substitution)
KRONECKER_MIN = 32


@dataclass(frozen=True)
class QSeries:
    """A Laurent series in q^(1/2), truncated at half-exponent `prec`.

    coeffs[i] is the coefficient of q^((lead + i) / 2).  Canonical form:
    either coeffs is empty (zero to the known order, with lead == prec)
    or coeffs[0] != 0.  len(coeffs) == prec - lead always.
    """

    lead: int
    coeffs: tuple[int, ...]
    prec: int

    def __post_init__(self):
        if self.lead > self.prec:
            raise ValueError("lead exceeds precision bound")
        if len(self.coeffs) != self.prec - self.lead:
            raise ValueError("coefficient window does not match lead/prec")
        if self.coeffs:
            if self.coeffs[0] == 0:
                raise ValueError("non-canonical: leading coefficient is zero")
        elif self.lead != self.prec:
            raise ValueError("zero series must have lead == prec")

    @property
    def is_zero(self) -> bool:
        """True if no nonzero coefficient is known (zero to order prec)."""
        return not self.coeffs

    def coefficient(self, h: int) -> int:
        """Coefficient of q^(h/2); raises if h is beyond the known window."""
        if h >= self.prec:
            raise PrecisionError(
                f"coefficient at half-exponent {h} not known (prec {self.prec})"
            )
        if h < self.lead:
            return 0
        return self.coeffs[h - self.lead]

    def truncated(self, prec: int) -> QSeries:
        """The same series with the precision bound lowered to `prec`."""
        if prec > self.prec:
            raise PrecisionError(
                f"cannot raise precision {self.prec} to {prec} by truncation"
            )
        if prec == self.prec:
            return self
        if prec <= self.lead:
            return zero(prec)
        return _from_array(self.lead, list(self.coeffs[: prec - self.lead]), prec)

    def scaled(self, c: int, h: int) -> QSeries:
        """Exact multiplication by the monomial c * q^(h/2), c != 0."""
        if c == 0:
            raise ValueError("scaling by zero is not exact; use zero(prec)")
        if not self.coeffs:
            return zero(self.prec + h)
        if c == 1:
            coeffs = self.coeffs
        else:
            coeffs = tuple(c * a for a in self.coeffs)
        return QSeries(self.lead + h, coeffs, self.prec + h)

    def __neg__(self) -> QSeries:
        return self.scaled(-1, 0) if self.coeffs else self

    def __add__(self, other: QSeries) -> QSeries:
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return other.truncated(prec)
        if not other.coeffs:
            return self.truncated(prec)
        lead = min(self.lead, other.lead)
        out = [0] * (prec - lead)
        for s in (self, other):
            top = min(len(s.coeffs), prec - s.lead)
            off = s.lead - lead
            for i in range(top):
                out[off + i] += s.coeffs[i]
        return _from_array(lead, out, prec)

    def __sub__(self, other: QSeries) -> QSeries:
        return self + (-other)

    def __mul__(self, other: QSeries) -> QSeries:
        prec = min(self.prec + other.lead, other.prec + self.lead)
        if not self.coeffs or not other.coeffs:
            return zero(prec)
        lead = self.lead + other.lead
        # n = min(len(self.coeffs), len(other.coeffs)): both operands
        # contribute exactly their first n coefficients
        n = prec - lead
        if n <= 0:
            return zero(prec)
        if n >= KRONECKER_MIN:
            out = _kronecker(self.coeffs[:n], other.coeffs[:n])
            return _from_array(lead, out, prec)
        out = [0] * n
        for i, ca in enumerate(self.coeffs):
            if ca == 0 or i >= n:
                continue
            top = min(len(other.coeffs), n - i)
            for j in range(top):
                cb = other.coeffs[j]
                if cb:
                    out[i + j] += ca * cb
        return _from_array(lead, out, prec)

    def inverse(self) -> QSeries:
        """Multiplicative inverse; requires lead 0 and constant term +-1."""
        if not self.coeffs or self.lead != 0:
            raise ValueError("inverse requires a series with lead 0")
        a0 = self.coeffs[0]
        if a0 not in (1, -1):
            raise ValueError(
                "inverse requires constant term +1 or -1 "
                "(anything else forces rational coefficients)"
            )
        n = self.prec
        terms = [(j, aj) for j, aj in enumerate(self.coeffs) if j and aj]
        # with every exponent of the divisor a multiple of `step`, so is
        # every exponent of the inverse; the others stay zero
        step = gcd(*(j for j, _ in terms)) or n
        out = [0] * n
        out[0] = a0
        for k in range(step, n, step):
            acc = 0
            for j, aj in terms:
                if j > k:
                    break
                acc += aj * out[k - j]
            out[k] = -a0 * acc
        return _from_array(0, out, n)

    def __str__(self) -> str:
        return format_series(self)


def _from_array(lead: int, out: list[int], prec: int) -> QSeries:
    i = 0
    while i < len(out) and out[i] == 0:
        i += 1
    if i == len(out):
        return zero(prec)
    return QSeries(lead + i, tuple(out[i:]), prec)


def _kronecker(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The first n coefficients of the product of two length-n coefficient
    sequences, by Kronecker substitution: evaluate both at a power of two
    wide enough that no product coefficient overflows its slot, multiply
    the two ints (CPython's Karatsuba) and read the slots back."""
    n = len(a)
    # a series in q (no odd offset) is packed with every other coefficient
    step = 1 if any(a[1::2]) or any(b[1::2]) else 2
    a, b = a[::step], b[::step]
    m = len(a)
    # |c_k| <= m * max|a| * max|b| < 2^bound; one more bit holds the sign
    bound = (
        max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + m.bit_length()
    )
    bits = 8 * (bound // 8 + 1)
    ones = int.from_bytes((b"\x01" + bytes(bits // 8 - 1)) * m, "little")
    product = _pack(a, bits, ones) * _pack(b, bits, ones)
    out = [0] * n
    out[::step] = _unpack(product, m, bits, ones)
    return out


def _pack(coeffs, bits: int, ones: int) -> int:
    """sum_i coeffs[i] * 2^(bits i), for |coeffs[i]| < 2^(bits - 1);
    `ones` has a 1 in the lowest bit of every slot."""
    width = bits // 8
    value = int.from_bytes(
        b"".join([c.to_bytes(width, "little", signed=True) for c in coeffs]), "little"
    )
    # a negative c went in as c + 2^bits, and its slot's top bit is set:
    # borrow 2^bits back from the next slot up
    return value - (((value >> (bits - 1)) & ones) << bits)


def _unpack(value: int, m: int, bits: int, ones: int) -> list[int]:
    """The m lowest slots of `value`, each a signed integer in
    (-2^(bits - 1), 2^(bits - 1))."""
    width = bits // 8
    half = 1 << (bits - 1)
    # with 2^(bits - 1) added in every slot, each slot is a plain unsigned
    # field that no borrow crosses
    raw = ((value + half * ones) & ((1 << bits * m) - 1)).to_bytes(width * m, "little")
    from_bytes = int.from_bytes
    return [
        from_bytes(raw[i : i + width], "little") - half
        for i in range(0, width * m, width)
    ]


def half_exp_str(h: int) -> str:
    """Human-readable exponent h/2: '3', '-1/2', ..."""
    return str(h // 2) if h % 2 == 0 else f"{h}/2"


def format_series(s: QSeries, latex: bool = False) -> str:
    """The series as text, `1 - 8*q + q^(3/2) + O(q^2)`, or as LaTeX,
    `1 - 8q + q^{3/2} + O(q^{2})`."""

    def mono(h):
        x = half_exp_str(h)
        if latex:
            return f"q^{{{x}}}"
        if h == 0:
            return "1"
        if h == 2:
            return "q"
        return f"q^{x}" if x.isdigit() else f"q^({x})"

    terms = []
    for h, c in enumerate(s.coeffs, s.lead):
        if not c:
            continue
        body = str(abs(c))
        if h:
            body = "q" if h == 2 else mono(h)
            if abs(c) != 1:
                body = f"{abs(c)}{'' if latex else '*'}{body}"
        if terms:
            terms.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            terms.append(f"-{body}" if c < 0 else body)
    return f"{' '.join(terms) or '0'} + O({mono(s.prec)})"


def zero(prec: int) -> QSeries:
    """The canonical zero series known to half-exponent `prec`."""
    return QSeries(prec, (), prec)


def one(prec: int) -> QSeries:
    return monomial(1, 0, prec)


def monomial(c: int, h: int, prec: int) -> QSeries:
    """The series c * q^(h/2) known to half-exponent `prec`."""
    if c == 0:
        return zero(prec)
    if h >= prec:
        raise ValueError(
            f"monomial at half-exponent {h} lies outside the known window "
            f"(prec {prec})"
        )
    return QSeries(h, (c,) + (0,) * (prec - h - 1), prec)


def equal_to_order(a: QSeries, b: QSeries, order: int) -> bool:
    """True iff all coefficients below half-exponent `order` agree.

    Both inputs must be known at least to `order`; comparing with less
    precision is an error, never a silent weaker comparison.
    """
    if a.prec < order or b.prec < order:
        raise PrecisionError(
            f"comparison to half-exponent {order} needs precision >= {order} "
            f"on both sides (have {a.prec} and {b.prec})"
        )
    if not a.coeffs and not b.coeffs:
        return True
    lo = min(a.lead, b.lead)
    for h in range(lo, order):
        if a.coefficient(h) != b.coefficient(h):
            return False
    return True


_qpoch_cache: dict[int, QSeries] = {}


def qpoch(n: int, prec: int) -> QSeries:
    """The finite product (q;q)_n = prod_{k=1}^{n} (1 - q^k), truncated.

    Always has constant term 1 and integer coefficients.  (q;q)_k is
    memoized for every k at the highest precision built so far, and
    (q;q)_n is built from the highest cached (q;q)_k, one factor at a time.
    """
    if n < 0:
        raise ValueError("qpoch requires n >= 0")
    if prec <= 0:
        return zero(prec)
    # a factor (1 - q^k) with 2k >= prec is 1 to this precision
    n = min(n, (prec - 1) // 2)
    done = n
    while done > 0 and (done not in _qpoch_cache or _qpoch_cache[done].prec < prec):
        done -= 1
    s = _qpoch_cache[done].truncated(prec) if done else one(prec)
    out = list(s.coeffs)
    for k in range(done + 1, n + 1):
        # multiply by (1 - q^k): shift by 2k half-units and subtract
        shift = 2 * k
        out[shift:] = [x - y for x, y in zip(out[shift:], out)]
        s = QSeries(0, tuple(out), prec)
        _qpoch_cache[k] = s
    return s
