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
  packed, which halves the integers.  Slots are converted in bulk, with
  no Python-level work per coefficient: `array("q", ...)` writes every
  coefficient as a 64-bit two's-complement word in C (low words are
  split off only for coefficients that overflow one), and each byte of
  a slot is copied for all slots at once as one strided slice.  Reading
  back, the slots are widened the same way to 64-bit words, the bytes
  above a slot filled with its sign by one `bytes.translate`, and
  `array.tolist` makes the ints.  A long product with an operand that
  is a monomial to the product's precision is the other operand shifted
  and scaled, and nothing is packed.
- `inverse` solves the triangular recursion over the nonzero
  coefficients of the divisor a: coefficient k of 1/a is -a_0 times the
  sum of a_j (1/a)_(k-j) over the nonzero a_j with 0 < j <= k.  With
  every exponent of a a multiple of their gcd `step`, only every
  step-th coefficient is solved, so 1/a to half-exponent H costs at
  most (nonzero coefficients of a) * H / step multiply-adds.  That is
  cheap for a sparse divisor: by Euler's pentagonal theorem (q;q)_inf
  has O(sqrt(H)) nonzero coefficients below q^H.  (q;q)_n is a
  polynomial of degree n(n+1)/2 with most coefficients nonzero, so its
  inverse costs more for large n: I(-30, 30) to half-exponent 2400
  inverts (q;q)_30 to 1500 in 191,760 multiply-adds, 0.015-0.016 s
  on a 2-core x86-64 VM with CPython 3.11.7.  The kernel inverts only
  rows 1/(q;q)_n, the foot of each diagonal of summand bodies (see
  `tetrahedron`); over every job of the benchmark workloads, from cold
  caches, the costliest inversion takes 1,065 multiply-adds on
  kernel-highprec, 180 on knot-lattice and 165 on verify-sweep.
  `inverse(known=...)` resumes the recursion from an inverse known to
  a lower precision.
- `qpoch` builds (q;q)_n from 1, one shift-and-subtract per factor,
  and keeps nothing between calls.

`QSeries` and the package's other value types subclass `Frozen`, which
compares, hashes and prints like a frozen dataclass without importing one.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from math import gcd
from operator import add, and_, attrgetter, lshift, neg, rshift, sub

from .errors import PrecisionError

__all__ = [
    "QSeries",
    "monomial",
    "zero",
    "one",
    "qpoch",
    "equal_to_order",
    "half_exp_str",
    "monomial_str",
    "format_series",
]

# products whose operands both have at least this many coefficients go
# through one big-integer multiplication (Kronecker substitution)
KRONECKER_MIN = 32


class Frozen:
    """An immutable value, compared, hashed and printed by its fields: its
    class's `__slots__`, at least two, set in `__init__` by `object.__setattr__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        pairs = zip(self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"


class QSeries(Frozen):
    """A Laurent series in q^(1/2), truncated at half-exponent `prec`.

    coeffs[i] is the coefficient of q^((lead + i) / 2).  Canonical form:
    either coeffs is empty (zero to the known order, with lead == prec)
    or coeffs[0] != 0.  len(coeffs) == prec - lead always.
    """

    __slots__ = ("lead", "coeffs", "prec")

    def __init__(self, lead: int, coeffs: tuple[int, ...], prec: int):
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", prec)
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
        # a prefix of a canonical series is canonical
        return QSeries(self.lead, self.coeffs[: prec - self.lead], prec)

    def scaled(self, c: int, h: int) -> QSeries:
        """Exact multiplication by the monomial c * q^(h/2), c != 0."""
        if c == 0:
            raise ValueError("scaling by zero is not exact; use zero(prec)")
        if not self.coeffs:
            return zero(self.prec + h)
        if c == 1:
            coeffs = self.coeffs
        elif c == -1:
            coeffs = tuple(map(neg, self.coeffs))
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
        low, high = (self, other) if self.lead <= other.lead else (other, self)
        # the lower operand's coefficients, with the other's added in place
        out = list(low.coeffs[: prec - low.lead])
        off = high.lead - low.lead
        out[off:] = map(add, out[off:], high.coeffs)
        return _from_array(low.lead, out, prec)

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
            a = self.coeffs[:n]
            # a square is packed once (the same tuple object twice)
            b = a if other is self else other.coeffs[:n]
            # an operand whose first n coefficients are its lead alone,
            # such as the 1 of `_body`'s product by 1, shifts and scales
            # the other
            if a.count(0) == n - 1:
                return other.scaled(a[0], self.lead).truncated(prec)
            if b.count(0) == n - 1:
                return self.scaled(b[0], other.lead).truncated(prec)
            return _from_array(lead, _kronecker(a, b), prec)
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

    def inverse(self, *, known: QSeries | None = None) -> QSeries:
        """Multiplicative inverse; requires lead 0 and constant term +-1.

        Given `known`, the inverse to a lower precision, the recursion
        resumes past it: coefficient k depends only on lower coefficients
        of the inverse and of self, which do not change with the
        precision, so the known ones are kept."""
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
        out[0], start = a0, step
        if known is not None:
            if not known.coeffs or known.lead != 0 or known.prec > n:
                raise ValueError("a resumed inverse must start at lead 0 below prec")
            out[: known.prec] = known.coeffs
            start = -(-known.prec // step) * step
        for k in range(start, n, step):
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
    the two ints (CPython's Karatsuba) and read the slots back.  A square,
    `b is a`, is packed once and squared."""
    n, square = len(a), b is a
    # a series in q (no odd offset) is packed with every other coefficient
    step = 1 if any(a[1::2]) or any(b[1::2]) else 2
    a = a[::step]
    b = a if square else b[::step]
    m = len(a)
    # |c_k| <= m * max|a| * max|b| < 2^bound; one more bit holds the sign
    bound = (
        max(max(a), -min(a)).bit_length()
        + max(max(b), -min(b)).bit_length()
        + m.bit_length()
    )
    bits = 8 * (bound // 8 + 1)
    ones = int.from_bytes((b"\x01" + bytes(bits // 8 - 1)) * m, "little")
    packed = _pack(a, bits, ones)
    product = packed * (packed if square else _pack(b, bits, ones))
    out = [0] * n
    out[::step] = _unpack(product, m, bits, ones)
    return out


def _pack(coeffs, bits: int, ones: int) -> int:
    """sum_i coeffs[i] * 2^(bits i), for |coeffs[i]| < 2^(bits - 1);
    `ones` has a 1 in the lowest bit of every slot."""
    width = bits // 8
    # each c as the fewest 64-bit words that hold it in two's complement:
    # unsigned low words, split off while the rest overflows a signed one
    words, rest = [], coeffs
    while True:
        try:
            words.append(array("q", rest))
            break
        except OverflowError:
            words.append(array("Q", map(and_, rest, repeat((1 << 64) - 1))))
            rest = list(map(rshift, rest, repeat(64)))
    # byte j of every slot is written as one plane; the bytes above the
    # words stay zero
    buf = bytearray(width * len(coeffs))
    for w, word in enumerate(words):
        if sys.byteorder == "big":
            word.byteswap()
        raw = word.tobytes()
        for j in range(8 * w, min(8 * w + 8, width)):
            buf[j::width] = raw[j - 8 * w :: 8]
    value = int.from_bytes(buf, "little")
    # a negative c went in as c + 2^top, and bit top - 1 of its slot is
    # set: borrow 2^top back
    top = min(bits, 64 * len(words))
    return value - (((value >> (top - 1)) & ones) << top)


def _unpack(value: int, m: int, bits: int, ones: int) -> list[int]:
    """The m lowest slots of `value`, each a signed integer in
    (-2^(bits - 1), 2^(bits - 1))."""
    width = bits // 8
    words = -(-width // 8)
    offset = (1 << (bits - 1)) * ones
    # with 2^(bits - 1) added in every slot, each slot is a plain unsigned
    # field that no borrow crosses; taking the offset off again bit-wise
    # leaves c mod 2^bits in each slot
    raw = (((value + offset) & ((1 << bits * m) - 1)) ^ offset).to_bytes(width * m, "little")
    # widened plane by plane to `words` 64-bit words a slot, the bytes
    # above the slot filled with copies of its sign bit
    size = 8 * words
    buf = bytearray(size * m)
    for j in range(width):
        buf[j::size] = raw[j::width]
    sign = raw[width - 1 :: width].translate(bytes(128) + b"\xff" * 128)
    for j in range(width, size):
        buf[j::size] = sign
    signed = array("q", buf)
    if sys.byteorder == "big":
        signed.byteswap()
    if words == 1:
        return signed.tolist()
    # a slot's top word is signed, its lower words unsigned
    out = signed[words - 1 :: words]
    unsigned = array("Q", signed.tobytes())
    for w in range(words - 2, -1, -1):
        out = map(add, map(lshift, out, repeat(64)), unsigned[w::words])
    return list(out)


def half_exp_str(h: int) -> str:
    """Human-readable exponent h/2: '3', '-1/2', ..."""
    return str(h // 2) if h % 2 == 0 else f"{h}/2"


def monomial_str(h: int, latex: bool = False) -> str:
    """q^(h/2) as text, `1`, `q`, `q^3`, `q^(5/2)`, or as LaTeX math,
    `q^{5/2}`."""
    x = half_exp_str(h)
    if latex:
        return f"q^{{{x}}}"
    if h == 0:
        return "1"
    if h == 2:
        return "q"
    return f"q^{x}" if x.isdigit() else f"q^({x})"


def format_series(s: QSeries, latex: bool = False) -> str:
    """The series as text, `1 - 8*q + q^(3/2) + O(q^2)`, or as LaTeX,
    `1 - 8q + q^{3/2} + O(q^{2})`."""
    terms = []
    for h, c in enumerate(s.coeffs, s.lead):
        if not c:
            continue
        body = str(abs(c))
        if h:
            body = "q" if h == 2 else monomial_str(h, latex)
            if abs(c) != 1:
                body = f"{abs(c)}{'' if latex else '*'}{body}"
        if terms:
            terms.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            terms.append(f"-{body}" if c < 0 else body)
    return f"{' '.join(terms) or '0'} + O({monomial_str(s.prec, latex)})"


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
    # a truncation of a canonical series is canonical, so equal
    # coefficients below `order` mean equal fields
    return a.truncated(order) == b.truncated(order)


def qpoch(n: int, prec: int) -> QSeries:
    """The finite product (q;q)_n = prod_{k=1}^{n} (1 - q^k), truncated.

    Always has constant term 1 and integer coefficients.
    """
    if n < 0:
        raise ValueError("qpoch requires n >= 0")
    if prec <= 0:
        return zero(prec)
    out = [1] + [0] * (prec - 1)
    # a factor (1 - q^k) with 2k >= prec is 1 to this precision
    for k in range(1, min(n, (prec - 1) // 2) + 1):
        # multiply by (1 - q^k): shift by 2k half-units and subtract, up
        # to the degree k(k+1) of the product so far
        top = min(prec, k * (k + 1) + 1)
        out[2 * k : top] = map(sub, out[2 * k : top], out)
    return QSeries(0, tuple(out), prec)
