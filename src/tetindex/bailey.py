"""Bailey pairs with respect to the tetrahedron-index kernel.

A state holds a finite-support family alpha (seed values are exact
Laurent polynomials in q^(1/2)) together with the integer parameter t;
a stepped state also holds its parent, the state one step below it.
beta is never materialized: it is defined by the pair relation at
depth 0 and by the step transform of the parent's betas at each deeper
level, and is computed lazily into the state's own memo, keyed by
charge.  The states stepped from one parent read its one memo, so a
chain or a tree computes each level once.

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

Every sum here is made of charge products (`lattice.charge_product`),
as the lattice sums are.  After d steps alpha_n is one product per
monomial c q^(h/2) of its seed, c (-1)^(nd) q^((h - nd)/2) times the d
step indices; alpha and the kernel sum, whose products lead with
I(t_d, n+k), go through the one accumulator `lattice.sum_products`.
Each step term is one product of the two step indices times beta(k).
"""

from __future__ import annotations

from math import inf

from .identities import CheckReport, _members_window, _pentagon_sum, compare_series
from .lattice import charge_product, sum_products
from .series import QSeries, zero
from .tetrahedron import term_degree

__all__ = [
    "BaileyState",
    "bailey_seed_delta",
    "bailey_seed",
    "bailey_step",
    "bailey_beta",
    "bailey_verify",
    "bailey_chain",
]


class BaileyState:
    """Immutable snapshot of a Bailey pair at parameter t: a seed, or one
    step of t - parent.t from `parent`, whose level it reads."""

    def __init__(self, t, seed, parent=None):
        # seed: mapping n -> Laurent polynomial ((half_exp, coeff), ...)
        self.t, self.parent = t, parent
        self.seed = {
            n: tuple(sorted((h, c) for h, c in poly if c))
            for n, poly in seed.items()
            if any(c for _, c in poly)
        }
        self.history = () if parent is None else parent.history + (t - parent.t,)
        # beta, its degree bound and the step window of this level, per m
        self._beta_cache, self._beta_lb, self._windows = {}, {}, {}

    @property
    def window_extents(self) -> dict[tuple[int, int], int]:
        """The step windows of this state's own level, per (depth, m), each
        at the precision its beta is memoized to."""
        return {(self.depth, m): w for m, w in self._windows.items()}

    @property
    def depth(self) -> int:
        return len(self.history)

    def support(self):
        return tuple(sorted(self.seed))

    def _alpha_products(self, n: int):
        """alpha_n as charge products (charges, pref_h, c), one per
        monomial c q^(h/2) of the seed, each step a factor
        (-1)^n q^(-n/2) I(3t-s+n, 2s-t-n)."""
        if self.parent is None:
            return [([], h, c) for h, c in self.seed.get(n, ())]
        t, s = self.parent.t, self.t - self.parent.t
        step, sign = (3 * t - s + n, 2 * s - t - n), -1 if n % 2 else 1
        return [([*ch, step], h - n, sign * c) for ch, h, c in self.parent._alpha_products(n)]

    def _kernel_products(self, m: int):
        """The terms I(t, n+m) alpha_n of the kernel sum as charge products."""
        return [
            ([(self.t, n + m), *charges], h, c)
            for n in self.support()
            for charges, h, c in self._alpha_products(n)
        ]

    def _alpha_lead(self, n: int) -> int:
        """The minimal degree of alpha_n, for n in the support: its lowest
        monomial's, exact."""
        return min(term_degree(ch, h) for ch, h, _ in self._alpha_products(n))

    def alpha(self, n: int, prec: int) -> QSeries:
        """alpha_n at the current parameter, truncated at `prec`."""
        return sum_products(self._alpha_products(n), prec)

    # -- beta -----------------------------------------------------------

    def beta(self, k: int, prec: int) -> QSeries:
        """beta_k at the current parameter, via the defining sum (a seed)
        or the step transform of the parent's betas, memoized."""
        cached = self._beta_cache.get(k)
        if cached is not None and cached.prec >= prec:
            return cached.truncated(prec)
        s = self._kernel_sum(k, prec) if self.parent is None else self._beta_step(k, prec)
        self._beta_cache[k] = s
        return s

    def _kernel_sum(self, m: int, prec: int) -> QSeries:
        """sum_n I(t, n+m) alpha_n."""
        return sum_products(self._kernel_products(m), prec)

    def _pentagon_args(self, m: int):
        """(m1, m2, e1, e2) = (2t-2s-m, m+2s-t, 2s-t, -m-s-t): at e0 = n,
        the shifted pentagon's sum over k is (-1)^m q^m times the step
        sum for beta(m) with I(t, n+k) for the parent's beta(k), t = m1 + m2
        the parent's parameter and s the step."""
        t, s = self.parent.t, self.t - self.parent.t
        return 2 * t - 2 * s - m, m + 2 * s - t, 2 * s - t, -m - s - t

    def _step_charges(self, m: int, k: int):
        m1, m2, e1, e2 = self._pentagon_args(m)
        return (m1, e1 + k), (m2, e2 + k)

    def _window_members(self, m: int):
        """One rank-1 sum per seed point n, whose term at k starts at the
        step term's bound at k against n alone."""
        m1, m2, e1, e2 = self._pentagon_args(m)
        return [
            _pentagon_sum(m1, m2, e1, e2, n, self.parent._alpha_lead(n) - m)
            for n in self.support()
        ]

    def _beta_step(self, m: int, prec: int) -> QSeries:
        """The step sum over k of the charge product
        (-1)^m q^((2k-m)/2) I(ch1) I(ch2) times the parent's beta(k): the
        product to `prec` less beta's degree bound, beta to `prec` less
        the product's degree."""
        extent = self._windows[m] = _members_window(
            self._window_members(m), prec, "Bailey step window"
        )
        parent, sign = self.parent, -1 if m % 2 else 1
        total = zero(prec)
        for k in range(-extent, extent + 1):
            charges, pref = self._step_charges(m, k), 2 * k - m
            d, lb = term_degree(charges, pref), parent._beta_lead_lb(k)
            if d + lb >= prec:  # the term starts at or above prec
                continue
            term = charge_product(charges, pref, sign, prec - lb)
            total = total + (term * parent.beta(k, prec - d)).truncated(prec)
        return total

    def _window(self, m: int, prec: int) -> int:
        """This level's step window for beta(m) at `prec`, 0 for a seed: the
        memo's, unless beta is memoized above `prec`, whose window was
        certified at that higher precision."""
        if self.parent is not None and self._beta_cache[m].prec > prec:
            return _members_window(self._window_members(m), prec, "Bailey step window")
        return self._windows.get(m, 0)

    def _beta_lead_lb(self, m: int):
        """Lower bound for beta's minimal degree, the least degree of the
        terms of its kernel sum (infinite for an empty support, where
        beta is zero)."""
        if m not in self._beta_lb:
            self._beta_lb[m] = min(
                (term_degree(ch, h) for ch, h, _ in self._kernel_products(m)), default=inf
            )
        return self._beta_lb[m]


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
    return BaileyState(state.t + s, state.seed, state)


def bailey_beta(state: BaileyState, k: int, prec: int) -> QSeries:
    return state.beta(k, prec)


def bailey_verify(
    state: BaileyState, m_range: tuple[int, int], prec: int
) -> CheckReport:
    """Check the defining relation beta_m = sum_n I(t, n+m) alpha_n for
    every m in the inclusive range, which must not be empty.  The report
    carries the widest step window of its own level at `prec` over the
    checked m, 0 at depth 0, whatever states were checked before."""
    lo, hi = m_range
    if lo > hi:
        raise ValueError(f"empty m range {lo}..{hi}: lo must not exceed hi")
    pairs = [
        (state.beta(m, prec), state._kernel_sum(m, prec))
        for m in range(lo, hi + 1)
    ]
    return compare_series(pairs, prec, max(state._window(m, prec) for m in range(lo, hi + 1)))


def bailey_chain(
    n0: int, t: int, steps, m_range: tuple[int, int], prec: int
) -> list[CheckReport]:
    """Seed a delta pair, then alternate stepping and verification.
    Returns one report per level, the seed included."""
    state = bailey_seed_delta(n0, t)
    reports = [bailey_verify(state, m_range, prec)]
    for s in steps:
        state = bailey_step(state, s)
        reports.append(bailey_verify(state, m_range, prec))
    return reports
