"""Bailey pairs with respect to the tetrahedron-index kernel.

A state holds a finite-support family alpha (seed values are exact
Laurent polynomials in q^(1/2)) together with the integer parameter t;
a stepped state also holds its parent, the state one step below it.
beta is never materialized: it is defined by the pair relation at
depth 0 and by the step transform of the parent's betas at each deeper
level, and is computed lazily into the state's own memo, keyed by
charge.  The states stepped from one parent read its one memo, so
siblings share their parent's betas; a beta asked for above the
precision it is memoized to is summed again.

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
seed point, each solved exactly by the lattice certificate, which
certifies a term: each member is built from its integer charges
(`identities._pentagon_term`), not from an expression.

Each state builds on its parent once.  It keeps the lead of each
alpha_n, the least degree of its monomials: the lowest seed monomial's
plus the step factors', from the parent's leads when the state is
made.  The leads bound the kernel-sum terms, beta's degree and the
step windows.  alpha is memoized per state and grown as beta is: a
seed's alpha_n is its polynomial, a stepped state's is one product of
the step factor and the parent's alpha_n.  Every sum goes into the
dense integer list of `lattice.sum_series`, the accumulator of the
lattice sums too: a kernel-sum term is the one product
I(t_d, n+k) alpha_n, each side to the precision less the other side's
degree, and a step term is the charge product (`lattice.charge_product`)
of the two step indices times beta(k).  Only kernel sums read the alpha
memo, so above the seed the two sides `bailey_verify` compares share no
memo.
"""

from __future__ import annotations

from math import inf

from .identities import CheckReport, _members_window, _pentagon_term, compare_series
from .lattice import charge_product, sum_products, sum_series
from .series import QSeries, zero
from .tetrahedron import term_degree, tet_index, tet_min_degree

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
        # seed: mapping n -> Laurent polynomial ((half_exp, coeff), ...),
        # normalized here for a seed, in increasing n; a stepped state is
        # passed its parent's, as `bailey_step` does, and keeps it
        self.t, self.parent = t, parent
        if parent is None:
            self.seed = {
                n: tuple(sorted((h, c) for h, c in poly if c))
                for n, poly in sorted(seed.items())
                if any(c for _, c in poly)
            }
            self.history = ()
            # the least degree of alpha_n's monomials, the lowest seed monomial's
            self._alpha_lead = {n: poly[0][0] for n, poly in self.seed.items()}
        else:
            self.seed, self.history = seed, parent.history + (t - parent.t,)
            self._alpha_lead = {
                n: lead + term_degree([self._alpha_charge(n)], -n)
                for n, lead in parent._alpha_lead.items()
            }
        # alpha, beta, beta's degree bound and this level's step window, per n or m
        self._alpha_cache, self._beta_cache, self._beta_lb, self._windows = {}, {}, {}, {}

    @property
    def window_extents(self) -> dict[tuple[int, int], int]:
        """The step windows of this state's own level, per (depth, m), each
        at the precision its beta is memoized to."""
        return {(self.depth, m): w for m, w in self._windows.items()}

    @property
    def depth(self) -> int:
        return len(self.history)

    def support(self):
        return tuple(self.seed)

    def _alpha_charge(self, n: int):
        """The charges of the step index I(3t-s+n, 2s-t-n) of alpha_n."""
        t, s = self.parent.t, self.t - self.parent.t
        return 3 * t - s + n, 2 * s - t - n

    def alpha(self, n: int, prec: int) -> QSeries:
        """alpha_n at the current parameter, truncated at `prec`, memoized:
        the seed polynomial, or the parent's alpha_n times the step factor
        (-1)^n q^(-n/2) I(3t-s+n, 2s-t-n), each to `prec` less the other's
        degree."""
        if self._alpha_lead.get(n, inf) >= prec:  # zero to prec, or off the support
            return zero(prec)
        cached = self._alpha_cache.get(n)
        if cached is not None and cached.prec >= prec:
            return cached.truncated(prec)
        if self.parent is None:
            a = sum_products([((), h, c) for h, c in self.seed[n]], prec)
        else:
            charges = [self._alpha_charge(n)]
            d, lead = term_degree(charges, -n), self.parent._alpha_lead[n]
            step = charge_product(charges, -n, -1 if n % 2 else 1, prec - lead)
            a = (step * self.parent.alpha(n, prec - d)).truncated(prec)
        self._alpha_cache[n] = a
        return a

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
        """sum_n I(t, n+m) alpha_n: one product per n whose term starts
        below `prec`, the index to `prec` less alpha_n's degree and alpha_n
        to `prec` less the index's."""
        t, terms = self.t, []
        for n, lead in self._alpha_lead.items():
            d = tet_min_degree(t, n + m)
            if d + lead < prec:
                terms.append(tet_index(t, n + m, prec - lead) * self.alpha(n, prec - d))
        return sum_series(terms, prec)

    def _pentagon_args(self, m: int):
        """(m1, m2, e1, e2) = (2t-2s-m, m+2s-t, 2s-t, -m-s-t): at e0 = n,
        the shifted pentagon's sum over k is (-1)^m q^m times the step
        sum for beta(m) with I(t, n+k) for the parent's beta(k), t = m1 + m2
        the parent's parameter and s the step."""
        t, s = self.parent.t, self.t - self.parent.t
        return 2 * t - 2 * s - m, m + 2 * s - t, 2 * s - t, -m - s - t

    def _window_members(self, m: int):
        """One rank-1 term per seed point n (`_pentagon_term`), whose value
        at k starts at the step term's bound at k against n alone."""
        m1, m2, e1, e2 = self._pentagon_args(m)
        lead = self.parent._alpha_lead
        return [_pentagon_term(m1, m2, e1, e2, n, lead[n] - m) for n in self.support()]

    def _beta_step(self, m: int, prec: int) -> QSeries:
        """The step sum over k of (-1)^m q^((2k-m)/2) I(m1, e1+k)
        I(m2, e2+k) times the parent's beta(k), (m1, m2, e1, e2) from
        `_pentagon_args`: the product to `prec` less beta's degree bound,
        beta to `prec` less the product's degree."""
        extent = self._windows[m] = _members_window(
            self._window_members(m), prec, "Bailey step window"
        )
        m1, m2, e1, e2 = self._pentagon_args(m)
        parent, sign, terms = self.parent, -1 if m % 2 else 1, []
        for k in range(-extent, extent + 1):
            charges, pref = ((m1, e1 + k), (m2, e2 + k)), 2 * k - m
            d, lb = term_degree(charges, pref), parent._beta_lead_lb(k)
            if d + lb < prec:  # the term starts below prec
                term = charge_product(charges, pref, sign, prec - lb)
                terms.append(term * parent.beta(k, prec - d))
        return sum_series(terms, prec)

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
                (tet_min_degree(self.t, n + m) + lead for n, lead in self._alpha_lead.items()),
                default=inf,
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
    """New state at parameter t + s, sharing the state's seed; alpha
    transforms pointwise, so the support never grows.  `s` is appended
    to the history."""
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
