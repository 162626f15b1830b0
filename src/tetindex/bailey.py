"""Bailey pairs with respect to the tetrahedron-index kernel.

A state holds a finite-support family alpha (seed values are exact
Laurent polynomials in q^(1/2)) together with the integer parameter t
and the history of applied step parameters.  beta is never materialized:
it is defined by the pair relation at depth 0 and by the step transform
at each deeper level, and is computed lazily with memoization per
(depth, charge, precision).

The step transform multiplies alpha_n pointwise by
    (-1)^n q^(-n/2) I(3t - s + n, 2s - t - n)
and sends beta through the charge sum over k of
    (-1)^m q^((2k-m)/2) I(2t-2s-m, 2s-t+k) I(m+2s-t, k-m-s-t) beta(k).
With I(t, n+k) for beta(k) that sum is a shifted pentagon (see
`_pentagon_args`), so by the pentagon identity, a theorem
(Dimofte-Gaiotto-Gukov, "3-manifolds and 3d indices"), the kernel sum
    beta_d(k) = sum_n I(t_d, n+k) alpha_n
holds at every depth.  It defines beta at depth 0, bounds beta's degree
from below at every depth, and is the right-hand side `bailey_verify`
checks.  The step window is certified: the step term at k is bounded
below by the least of the terms at k of one shifted-pentagon sum per
seed point, each solved exactly by the lattice certificate.
"""

from __future__ import annotations

from math import inf

from .identities import (
    DEFAULT_MARGIN,
    DEFAULT_WINDOW_CAP,
    CheckReport,
    _members_window,
    _merge,
    _pentagon_sum,
    compare_series,
)
from .series import QSeries, monomial, zero
from .tetrahedron import tet_index, tet_min_degree

__all__ = [
    "BaileyState",
    "bailey_seed_delta",
    "bailey_seed",
    "bailey_step",
    "bailey_beta",
    "bailey_verify",
    "bailey_chain",
]


def _poly_to_series(poly: tuple[tuple[int, int], ...], prec: int) -> QSeries:
    s = zero(prec)
    for h, c in poly:
        if c and h < prec:
            s = s + monomial(c, h, prec)
    return s


class BaileyState:
    """Immutable snapshot of a Bailey pair at parameter t0 + sum(history)."""

    def __init__(self, t0, seed, history=()):
        # seed: mapping n -> Laurent polynomial ((half_exp, coeff), ...)
        self.t0 = t0
        self.seed = {
            n: tuple(sorted((h, c) for h, c in poly if c))
            for n, poly in seed.items()
            if any(c for _, c in poly)
        }
        self.history = tuple(history)
        self._beta_cache: dict[tuple[int, int], QSeries] = {}
        self._beta_lb: dict[tuple[int, int], float] = {}
        self.window_extents: dict[tuple[int, int], int] = {}

    @property
    def t(self) -> int:
        return self._t_at(self.depth)

    @property
    def depth(self) -> int:
        return len(self.history)

    def support(self):
        return tuple(sorted(self.seed))

    def _seed_lead(self, n: int) -> int:
        return self.seed[n][0][0]

    def _t_at(self, depth: int) -> int:
        return self.t0 + sum(self.history[:depth])

    def _levels(self, n: int, depth: int):
        """Kernel charges of the first `depth` steps, for the alpha at
        index n."""
        t, out = self.t0, []
        for s in self.history[:depth]:
            out.append((3 * t - s + n, 2 * s - t - n))
            t += s
        return out

    def _alpha_lead(self, n: int, depth: int) -> int:
        """Certified lower bound for the minimal degree of alpha_n after
        the first `depth` steps, for n in the support."""
        lb = self._seed_lead(n)
        for m, e in self._levels(n, depth):
            lb += -n + tet_min_degree(m, e)
        return lb

    def alpha(self, n: int, prec: int) -> QSeries:
        """alpha_n at the current parameter, truncated at `prec`."""
        return self._alpha(n, self.depth, prec)

    def _alpha(self, n: int, depth: int, prec: int) -> QSeries:
        poly = self.seed.get(n)
        if poly is None:
            return zero(prec)
        chs = self._levels(n, depth)
        sign = -1 if n % 2 else 1
        # clamp at prec + n so one deep factor cannot starve the others
        d_mult = [
            -n + min(tet_min_degree(m, e), prec + n) for m, e in chs
        ]
        lead_lb = [self._seed_lead(n)]
        for d in d_mult:
            lead_lb.append(lead_lb[-1] + d)
        if lead_lb[-1] >= prec:
            return zero(prec)
        cur = _poly_to_series(poly, prec - sum(d_mult))
        for i, (m, e) in enumerate(chs):
            p_mult = prec - lead_lb[i] - sum(d_mult[i + 1 :])
            mult = tet_index(m, e, p_mult + n).scaled(sign, -n)
            cur = cur * mult
        return cur.truncated(prec)

    # -- beta -----------------------------------------------------------

    def beta(self, k: int, prec: int, min_window: int = 0) -> QSeries:
        """beta_k at the current parameter, via the defining sum (depth 0)
        and the step transform at each deeper level."""
        return self._beta(self.depth, k, prec, min_window)

    def _beta(self, depth: int, m: int, prec: int, min_window: int = 0) -> QSeries:
        key = (depth, m)
        if min_window == 0:
            cached = self._beta_cache.get(key)
            if cached is not None and cached.prec >= prec:
                return cached.truncated(prec)
        if depth == 0:
            s = self._kernel_sum(0, m, prec)
        else:
            s = self._beta_step(depth, m, prec, min_window)
        if min_window == 0:
            prev = self._beta_cache.get(key)
            if prev is None or s.prec > prev.prec:
                self._beta_cache[key] = s
        return s

    def _kernel_sum(self, depth: int, m: int, prec: int) -> QSeries:
        """sum_n I(t, n+m) alpha_n, with t and alpha taken after the
        first `depth` steps."""
        t = self._t_at(depth)
        total = zero(prec)
        for n in self.support():
            alb = self._alpha_lead(n, depth)
            d = tet_min_degree(t, n + m)
            if alb + d >= prec:
                continue
            kernel = tet_index(t, n + m, prec - alb)
            alpha = self._alpha(n, depth, prec - d)
            total = total + (kernel * alpha).truncated(prec)
        return total

    def _pentagon_args(self, depth: int, m: int):
        """(m1, m2, e1, e2) = (2t-2s-m, m+2s-t, 2s-t, -m-s-t): at e0 = n,
        the shifted pentagon's sum over k is (-1)^m q^m times the step
        sum for beta_depth(m) with I(t, n+k) for beta(k), t = m1 + m2
        the parameter before the step and s the step."""
        t, s = self._t_at(depth - 1), self.history[depth - 1]
        return 2 * t - 2 * s - m, m + 2 * s - t, 2 * s - t, -m - s - t

    def _step_charges(self, depth: int, m: int, k: int):
        m1, m2, e1, e2 = self._pentagon_args(depth, m)
        return (m1, e1 + k), (m2, e2 + k)

    def _window_members(self, depth: int, m: int):
        """One rank-1 sum per seed point n, whose term at k starts at the
        step term's bound at k against n alone."""
        m1, m2, e1, e2 = self._pentagon_args(depth, m)
        return [
            _pentagon_sum(m1, m2, e1, e2, n, self._alpha_lead(n, depth - 1) - m)
            for n in self.support()
        ]

    def _beta_step(self, depth: int, m: int, prec: int, min_window: int) -> QSeries:
        extent = self.window_extents[(depth, m)] = _members_window(
            self._window_members(depth, m), prec, DEFAULT_MARGIN,
            DEFAULT_WINDOW_CAP, "Bailey step window",
        )
        extent = max(extent, min_window)
        sign = -1 if m % 2 else 1
        total = zero(prec)
        for k in range(-extent, extent + 1):
            ch1, ch2 = self._step_charges(depth, m, k)
            d1, d2 = tet_min_degree(*ch1), tet_min_degree(*ch2)
            lb = self._beta_lead_lb(depth - 1, k)
            pref = 2 * k - m
            rel = prec - pref
            if d1 + d2 + lb >= rel:  # the term starts at or above prec
                continue
            f1 = tet_index(*ch1, rel - d2 - lb)
            f2 = tet_index(*ch2, rel - d1 - lb)
            bk = self._beta(depth - 1, k, rel - d1 - d2)
            total = total + (f1 * f2 * bk).scaled(sign, pref).truncated(prec)
        return total

    def _beta_lead_lb(self, depth: int, m: int):
        """Lower bound for beta's minimal degree, from its kernel sum
        (infinite for an empty support, where beta is zero)."""
        key = (depth, m)
        if key not in self._beta_lb:
            t = self._t_at(depth)
            self._beta_lb[key] = min(
                (self._alpha_lead(n, depth) + tet_min_degree(t, n + m)
                 for n in self.support()),
                default=inf,
            )
        return self._beta_lb[key]


def bailey_seed_delta(n0: int, t: int) -> BaileyState:
    """The trivially satisfied seed alpha_n = delta_{n,n0}, for which the
    pair relation gives beta_k = I(t, n0 + k) by construction."""
    return BaileyState(t, {n0: ((0, 1),)})


def bailey_seed(t: int, alpha) -> BaileyState:
    """Seed from any finite-support alpha: mapping n -> Laurent
    polynomial given as ((half_exp, coeff), ...) pairs."""
    return BaileyState(t, dict(alpha))


def bailey_step(state: BaileyState, s: int) -> BaileyState:
    """New state at parameter t + s; alpha transforms pointwise, so the
    support never grows.  `s` is appended to the history."""
    return BaileyState(state.t0, state.seed, state.history + (s,))


def bailey_beta(state: BaileyState, k: int, prec: int) -> QSeries:
    return state.beta(k, prec)


def bailey_verify(
    state: BaileyState, m_range: tuple[int, int], prec: int
) -> CheckReport:
    """Check the defining relation beta_m = sum_n I(t, n+m) alpha_n for
    every m in the inclusive range."""
    if prec <= 0:
        return CheckReport(prec, True)
    report = CheckReport(prec, True)
    for m in range(m_range[0], m_range[1] + 1):
        lhs = state.beta(m, prec)
        rhs = state._kernel_sum(state.depth, m, prec)
        report = _merge(report, compare_series(lhs, rhs, prec))
    return report


def bailey_chain(
    n0: int,
    t: int,
    steps,
    m_range: tuple[int, int],
    prec: int,
) -> list[CheckReport]:
    """Seed a delta pair, then alternate stepping and verification.
    Returns one report per level, the seed included."""
    state = bailey_seed_delta(n0, t)
    reports = [bailey_verify(state, m_range, prec)]
    for s in steps:
        state = bailey_step(state, s)
        reports.append(bailey_verify(state, m_range, prec))
    return reports
