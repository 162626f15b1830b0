"""Exact truncated Laurent series in q^(1/2) with integer coefficients.

Exponents are measured in *half-units*: the integer h stands for q^(h/2).
A series knows its coefficients for all exponents strictly below its
precision bound `prec` (also in half-units).  Coefficients are ordinary
Python ints, so they never overflow and never become inexact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrecisionError

__all__ = [
    "QSeries",
    "monomial",
    "zero",
    "one",
    "qpoch",
    "equal_to_order",
    "half_exp_str",
]


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
        n = prec - lead
        if n <= 0:
            return zero(prec)
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
        out = [0] * n
        out[0] = a0
        for k in range(1, n):
            acc = 0
            top = min(k, len(self.coeffs) - 1)
            for j in range(1, top + 1):
                aj = self.coeffs[j]
                if aj:
                    acc += aj * out[k - j]
            out[k] = -a0 * acc
        return _from_array(0, out, n)

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append((self.lead + i, c))
        if not parts:
            body = "0"
        else:
            chunks = []
            for idx, (h, c) in enumerate(parts):
                mono = _mono_str(h)
                mag = abs(c)
                if mono == "1":
                    text = str(mag)
                elif mag == 1:
                    text = mono
                else:
                    text = f"{mag}*{mono}"
                if idx == 0:
                    chunks.append(("-" if c < 0 else "") + text)
                else:
                    chunks.append(("- " if c < 0 else "+ ") + text)
            body = " ".join(chunks)
        return f"{body} + O({_mono_str(self.prec, big_o=True)})"


def _from_array(lead: int, out: list[int], prec: int) -> QSeries:
    i = 0
    while i < len(out) and out[i] == 0:
        i += 1
    if i == len(out):
        return zero(prec)
    return QSeries(lead + i, tuple(out[i:]), prec)


def _mono_str(h: int, big_o: bool = False) -> str:
    if h == 0:
        return "1"
    if h % 2 == 0:
        e = h // 2
        if e == 1:
            return "q"
        return f"q^{e}" if e > 0 else f"q^({e})"
    return f"q^({h}/2)"


def half_exp_str(h: int) -> str:
    """Human-readable exponent h/2: '3', '-1/2', ..."""
    return str(h // 2) if h % 2 == 0 else f"{h}/2"


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

    Always has constant term 1 and integer coefficients.
    """
    if n < 0:
        raise ValueError("qpoch requires n >= 0")
    if prec <= 0:
        return zero(prec)
    cached = _qpoch_cache.get(n)
    if cached is not None and cached.prec >= prec:
        return cached.truncated(prec)
    s = one(prec)
    for k in range(1, n + 1):
        if 2 * k >= prec:
            break
        # multiply by (1 - q^k) via shift-and-subtract; exact at this prec
        s = s - s.scaled(1, 2 * k).truncated(prec)
    if cached is None or prec > cached.prec:
        _qpoch_cache[n] = s
    return s
