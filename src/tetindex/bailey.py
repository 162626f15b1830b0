"""Bailey pairs with respect to the tetrahedron-index kernel.

A state holds a finite-support family alpha (seed values are exact
Laurent polynomials in q^(1/2)) together with the integer parameter t
and the history of applied step parameters.  beta is never materialized:
it is defined by the pair relation at depth 0 and by the step transform
at each deeper level, and is computed lazily with memoization per
(depth, charge, precision).

The step transform multiplies alpha_n pointwise by
    (-1)^n q^(-n/2) I(3t - s + n, 2s - t - n)
and sends beta through an infinite charge sum that is truncated by a
symmetric window grown until `margin` values on each end clear the
precision, with a tail screened to a finite horizon past it.  Window
and tail are decided by one lower bound for beta's minimal degree,
obtained by recursively bounding the transform's terms in a scan that
stops once `_LB_MARGIN` terms on each side clear the target.  That stop
rule is a heuristic, not a certificate: where the scan hits its cap the
current minimum is used and a RuntimeWarning is emitted, but a dip just
past an early stop is missed without one.  One finite kernel sum,
sum_n I(t, n+m) alpha_n, defines beta at depth 0 and is the right-hand
side `bailey_verify` checks.
"""

from __future__ import annotations

import warnings

from .identities import (
    DEFAULT_WINDOW_CAP,
    CheckReport,
    _grow_symmetric_window,
    _merge,
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

_LB_SCAN_CAP = 64
_LB_MARGIN = 3


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
        self._beta_lb: dict[tuple[int, int], int] = {}
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

    def _step_charges(self, depth: int, m: int, k: int):
        t = self._t_at(depth - 1)
        s = self.history[depth - 1]
        ch1 = (-m - 2 * s + 2 * t, 2 * s - t + k)
        ch2 = (m + 2 * s - t, k - m - s - t)
        return ch1, ch2

    def _step_term(self, depth: int, m: int, k: int, target: int):
        """Degree bounds (d1, d2, lb) of the two kernel factors and of
        beta_{depth-1}(k) in term k of the step sum for beta_depth(m),
        with lb taken against the term's share of `target`."""
        ch1, ch2 = self._step_charges(depth, m, k)
        d1, d2 = tet_min_degree(*ch1), tet_min_degree(*ch2)
        rem = target - (2 * k - m) - d1 - d2
        return d1, d2, self._beta_lead_lb(depth - 1, k, rem)

    def _beta_step(self, depth: int, m: int, prec: int, min_window: int) -> QSeries:
        def budget(k):
            b = self._step_term(depth, m, k, prec)
            return None if (2 * k - m) + sum(b) >= prec else b

        extent = _grow_symmetric_window(
            lambda k: budget(k) is None,
            _LB_MARGIN,
            DEFAULT_WINDOW_CAP,
            "Bailey step window",
        )
        self.window_extents[(depth, m)] = extent
        extent = max(extent, min_window)
        sign = -1 if m % 2 else 1
        total = zero(prec)
        for k in range(-extent, extent + 1):
            b = budget(k)
            if b is None:
                continue
            d1, d2, lb = b
            pref = 2 * k - m
            rel = prec - pref
            ch1, ch2 = self._step_charges(depth, m, k)
            f1 = tet_index(*ch1, rel - d2 - lb)
            f2 = tet_index(*ch2, rel - d1 - lb)
            bk = self._beta(depth - 1, k, rel - d1 - d2)
            total = total + (f1 * f2 * bk).scaled(sign, pref).truncated(prec)
        return total

    def _beta_lead_lb(self, depth: int, m: int, target: int) -> int:
        """Lower bound for beta's minimal degree, at most `target`.

        Exact at depth 0.  Deeper it is the minimum of the step terms'
        bounds over a scan that stops once `_LB_MARGIN` of them on each
        side clear `target`, which misses a dip beyond the stop; where
        the scan hits its cap the current minimum is used with a
        warning.
        """
        key = (depth, m)
        cached = self._beta_lb.get(key)
        if cached is not None and cached >= target:
            return cached
        if depth == 0:
            lb = target
            for n in self.support():
                lb = min(lb, self._alpha_lead(n, 0) + tet_min_degree(self.t0, n + m))
        else:
            lb = self._scan_step_lb(depth, m, target)
        lb = min(lb, target)
        if cached is None or lb > cached:
            self._beta_lb[key] = lb
        return lb

    def _scan_step_lb(self, depth: int, m: int, target: int) -> int:
        def term_bound(k):
            return (2 * k - m) + sum(self._step_term(depth, m, k, target))

        best = term_bound(0)
        stable_pos = stable_neg = 0
        k = 1
        while k <= _LB_SCAN_CAP and (
            stable_pos < _LB_MARGIN or stable_neg < _LB_MARGIN
        ):
            if stable_pos < _LB_MARGIN:
                b = term_bound(k)
                stable_pos = stable_pos + 1 if b >= target else 0
                best = min(best, b)
            if stable_neg < _LB_MARGIN:
                b = term_bound(-k)
                stable_neg = stable_neg + 1 if b >= target else 0
                best = min(best, b)
            k += 1
        if stable_pos < _LB_MARGIN or stable_neg < _LB_MARGIN:
            warnings.warn(
                "beta degree-bound scan hit its cap; using the scanned "
                "minimum as a heuristic lower bound",
                RuntimeWarning,
                stacklevel=2,
            )
        return best


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
