import itertools

import pytest

from oracle import dict_add, dict_mul, dict_scale, naive_tet_index, same_to_order
from tetindex import bailey
from tetindex.bailey import (
    bailey_beta,
    bailey_chain,
    bailey_seed,
    bailey_seed_delta,
    bailey_step,
    bailey_verify,
)
from tetindex.identities import pentagon_shifted_check
from tetindex.lattice import _Term
from tetindex.series import equal_to_order, monomial, zero
from tetindex.tetrahedron import tet_index


def _widen_step_windows(monkeypatch):
    """Make every Bailey step window of states built from now on reach 8
    indices past its farthest low index."""
    members_window = bailey._members_window
    monkeypatch.setattr(bailey, "_members_window", lambda *args: members_window(*args) + 8)


class TestSeed:
    def test_delta_beta_is_kernel_column(self):
        # with alpha = delta_{n,0} the defining sum collapses to one term
        st = bailey_seed_delta(0, 1)
        for k in range(-2, 3):
            assert equal_to_order(st.beta(k, 8), tet_index(1, k, 8), 8)

    def test_shifted_delta(self):
        st = bailey_seed_delta(2, -1)
        assert equal_to_order(st.beta(0, 8), tet_index(-1, 2, 8), 8)

    def test_zero_coefficients_dropped_from_support(self):
        st = bailey_seed(0, {0: ((0, 1),), 3: ((2, 0),)})
        assert st.support() == (0,)

    def test_laurent_seed_beta(self):
        # alpha_0 = q^(-1/2) - q scales the kernel column exactly
        st = bailey_seed(1, {0: ((-1, 1), (2, -1))})
        want = tet_index(1, 0, 10).scaled(1, -1) + tet_index(1, 0, 7).scaled(-1, 2)
        assert equal_to_order(st.beta(0, 6), want.truncated(6), 6)
        # at depth 0 alpha is the seed polynomial itself
        assert st.alpha(0, 6) == monomial(1, -1, 6) + monomial(-1, 2, 6)

    def test_depth0_verify_is_tautological(self):
        for n0 in (-1, 0, 2):
            for t in (-1, 0, 1):
                assert bailey_verify(bailey_seed_delta(n0, t), (-3, 3), 6).holds


class TestStep:
    def test_parameter_advances(self):
        st = bailey_step(bailey_seed_delta(0, 1), 2)
        assert st.t == 3 and st.depth == 1

    def test_support_preserved(self):
        st = bailey_seed(0, {-1: ((0, 1),), 2: ((1, -3),)})
        assert bailey_step(st, 1).support() == st.support()

    def test_alpha_transform_single_level(self):
        # alpha'_n = (-1)^n q^(-n/2) I(3t-s+n, 2s-t-n) alpha_n
        st0 = bailey_seed_delta(1, 1)
        st1 = bailey_step(st0, 0)
        want = tet_index(3 + 1, -1 - 1, 9).scaled(-1, -1)
        assert equal_to_order(st1.alpha(1, 8), want.truncated(8), 8)

    def test_original_state_unchanged(self):
        st = bailey_seed_delta(0, 1)
        before = st.beta(0, 6)
        bailey_step(st, 1)
        assert st.beta(0, 6) == before and st.history == ()

    @pytest.mark.parametrize("n0,t,s", [(0, 1, 1), (0, 1, -1), (-1, 0, 2), (1, 2, 0)])
    def test_single_step_relation(self, n0, t, s):
        st = bailey_step(bailey_seed_delta(n0, t), s)
        assert bailey_verify(st, (-3, 3), 6).holds

    def test_depth_two_chain(self):
        reports = bailey_chain(0, 1, [1, -1], (-2, 2), 4)
        assert len(reports) == 3
        assert all(r.holds for r in reports)

    def test_beta_window_replay_stability(self, monkeypatch):
        # every level of the six benchmark verify-sweep chains, and a
        # depth-1 state at H=6
        chains = [
            (0, 1, (1,), (-1, 0, 2), 6),
            (0, 1, (1, -1), range(-2, 3), 8),
            (1, 0, (-1, 1), range(-2, 3), 8),
            (-1, 0, (1, -1, 1), range(-2, 3), 8),
            (1, 1, (0, -1, 1), range(-2, 3), 8),
            (0, 1, (1, -1, 2, 0), range(-2, 3), 8),
            (0, -1, (1, 1, -1, 0), range(-2, 3), 8),
        ]

        def betas(n0, t, steps, ks, prec):
            st, out = bailey_seed_delta(n0, t), []
            for s in steps:
                st = bailey_step(st, s)
                out += [(st.history, k, st.beta(k, prec)) for k in ks]
            return out

        base = [betas(*chain) for chain in chains]
        _widen_step_windows(monkeypatch)
        for chain, want in zip(chains, base):
            prec = chain[-1]
            for (history, k, a), (_, _, b) in zip(want, betas(*chain)):
                assert equal_to_order(a, b, prec), (chain[:2], history, k)

    def test_multipoint_laurent_seed_steps(self, monkeypatch):
        # the kernel sum over several seed points, at depth 0 and below
        st = bailey_seed(0, {-1: ((0, 1),), 2: ((1, -3), (4, 2))})
        for k in (-1, 0, 2):
            want = (
                tet_index(0, k - 1, 8)
                + tet_index(0, k + 2, 7).scaled(-3, 1)
                + tet_index(0, k + 2, 4).scaled(2, 4)
            )
            assert equal_to_order(st.beta(k, 8), want, 8)
        seed = st

        def stepped():
            one = bailey_step(seed, 1)
            return [one, bailey_step(one, -1)]

        states = stepped()
        for st in states:
            assert bailey_verify(st, (-3, 3), 8).holds
        base = [st.beta(k, 8) for st in states for k in (-1, 0, 2)]
        _widen_step_windows(monkeypatch)
        wide = [st.beta(k, 8) for st in stepped() for k in (-1, 0, 2)]
        assert all(equal_to_order(a, b, 8) for a, b in zip(base, wide))

    def test_beta_memoization_transparent(self):
        st = bailey_step(bailey_seed_delta(0, 1), -1)
        hi = st.beta(0, 8)
        lo = st.beta(0, 5)
        assert equal_to_order(hi, lo, 5) and lo.prec == 5


class TestAgainstOracle:
    def test_depth0_beta_matches_naive_kernel(self):
        st = bailey_seed_delta(-1, 2)
        for k in range(-2, 3):
            assert same_to_order(naive_tet_index(2, -1 + k, 8), st.beta(k, 8), 8)

    def test_step_beta_matches_brute_force(self):
        # independent evaluation of the transformed beta over a huge window
        st = bailey_step(bailey_seed_delta(0, 1), 1)  # t=1, s=1
        prec, m = 6, 0
        acc = {}
        for k in range(-20, 21):
            pref = 2 * k - m
            rel = prec - pref
            if rel <= 0:
                continue
            term = dict_mul(
                naive_tet_index(-m - 2 + 2, 2 - 1 + k, rel),
                dict_mul(
                    naive_tet_index(m + 2 - 1, k - m - 1 - 1, rel),
                    naive_tet_index(1, k, rel),
                    rel,
                ),
                rel,
            )
            sign = -1 if m % 2 else 1
            acc = dict_add(acc, {h + pref: sign * c for h, c in term.items()}, prec)
        assert same_to_order(acc, st.beta(m, prec), prec)


class TestMultipointAgainstOracle:
    """alpha and the kernel sum of a Laurent seed with an odd and an even
    seed point, after two and three steps, from the oracle's index and
    dict products alone: each step multiplies alpha_n by
    (-1)^n q^(-n/2) I(3t-s+n, 2s-t-n), applied here one step at a time."""

    T0, SEED, STEPS, H = 0, {-1: ((0, 1),), 2: ((1, -3), (4, 2))}, (0, 1, -2), 16

    def state(self, depth):
        st = bailey_seed(self.T0, self.SEED)
        for s in self.STEPS[:depth]:
            st = bailey_step(st, s)
        return st

    def oracle_alpha(self, n, depth):
        """alpha_n after `depth` steps below H, and the half-exponent that
        bounds its lead from below.  Every index starts at q^0 or higher
        (asserted), so each is needed only to H less that bound."""
        low = min(h for h, _ in self.SEED[n]) - n * depth
        poly, indices, t = dict(self.SEED[n]), {0: 1}, self.T0
        for s in self.STEPS[:depth]:
            index = naive_tet_index(3 * t - s + n, 2 * s - t - n, self.H - low)
            assert min(index, default=0) >= 0
            indices = dict_mul(indices, index, self.H - low)
            poly = dict_scale(poly, -1 if n % 2 else 1, -n)
            t += s
        assert min(poly) == low
        return dict_mul(poly, indices, self.H), low

    @pytest.mark.parametrize("depth", [2, 3])
    def test_alpha_and_kernel_sum(self, depth):
        st, t = self.state(depth), self.T0 + sum(self.STEPS[:depth])
        alphas = {n: self.oracle_alpha(n, depth) for n in self.SEED}
        for n, (alpha, _) in alphas.items():
            assert alpha and same_to_order(alpha, st.alpha(n, self.H), self.H), n
        for m in (-2, -1, 0, 2):
            want = {}
            for n, (alpha, low) in alphas.items():
                kernel = naive_tet_index(t, n + m, self.H - low)
                want = dict_add(want, dict_mul(kernel, alpha, self.H), self.H)
            assert want and same_to_order(want, st._kernel_sum(depth, m, self.H), self.H), m


class TestVerify:
    def test_degenerate_precision_vacuous(self):
        with pytest.raises(ValueError, match="compare no coefficient"):
            bailey_verify(bailey_seed_delta(0, 1), (-2, 2), 0)

    def test_laurent_seed_checks_below_order_one(self):
        # beta_0 of this seed starts at q^(-2), beta_-1 at q^(-5/2): the
        # checks to orders 0, -2 and -4 compare coefficients, to -5 none
        state = bailey_seed(1, {0: ((-6, 1),)})
        assert state.beta(-1, 0).lead == -5
        for order in (0, -2, -4):
            report = bailey_verify(state, (-1, 1), order)
            assert report.holds and report.verified_to == order
        with pytest.raises(ValueError, match="compare no coefficient"):
            bailey_verify(state, (-1, 1), -5)

    def test_empty_m_range_rejected(self):
        # a check that compares no beta is refused, not reported as holding
        with pytest.raises(ValueError, match="range"):
            bailey_verify(bailey_seed_delta(0, 1), (3, -3), 8)
        with pytest.raises(ValueError, match="range"):
            bailey_chain(0, 1, [1, -1], (2, 1), 8)
        assert bailey_verify(bailey_seed_delta(0, 1), (2, 2), 8).holds

    def test_chain_report_count(self):
        reports = bailey_chain(1, -1, [0], (-1, 1), 5)
        assert len(reports) == 2 and all(r.holds for r in reports)

    @pytest.mark.parametrize(
        "n0, t, steps, m_range, prec",
        [(0, 1, [1, -1, 2, 0, 1, -1], (-3, 3), 12), (2, 1, [-2, 1], (-2, 2), 8)],
    )
    def test_each_level_reports_its_widest_step_window(self, n0, t, steps, m_range, prec):
        # the states of a chain share one memo: right after its check, a
        # level's view holds the windows of its own level and of every
        # level below it summed so far, and its report carries the widest
        state = bailey_seed_delta(n0, t)
        reports, views = [bailey_verify(state, m_range, prec)], [state.window_extents]
        for s in steps:
            state = bailey_step(state, s)
            reports.append(bailey_verify(state, m_range, prec))
            views.append(state.window_extents)
        assert reports == bailey_chain(n0, t, steps, m_range, prec)
        windows = [max(view.values(), default=0) for view in views]
        assert [r.window for r in reports] == windows
        lo, hi = m_range
        for depth, view in enumerate(views):
            assert all(level <= depth for level, _ in view)
            if depth:
                assert {(depth, m) for m in range(lo, hi + 1)} <= set(view)
        assert all(r.holds for r in reports) and windows[0] == 0 and max(windows) >= 1

    def test_interleaved_siblings_equal_fresh_chains(self):
        # two children of one parent share its memo, keyed apart by their
        # histories: checked in turns with their own children, every beta
        # equals the one a chain of its own computes from a fresh seed
        m_range, prec = (-2, 2), 24
        parent = bailey_step(bailey_seed_delta(0, 1), -1)
        bailey_verify(parent, m_range, prec)
        left, right = bailey_step(parent, -1), bailey_step(parent, 1)
        states = [left, right, bailey_step(left, 0), bailey_step(right, 0)]
        reports = [bailey_verify(state, m_range, prec) for state in states]
        assert all(r.holds for r in reports)
        assert left._beta_cache is right._beta_cache
        assert {(-1, -1), (-1, 1), (-1, -1, 0), (-1, 1, 0)} <= {p for p, _ in left._windows}
        for state in states:
            fresh = bailey_seed_delta(0, 1)
            for s in state.history:
                fresh = bailey_step(fresh, s)
            assert fresh._beta_cache is not state._beta_cache
            betas = [state.beta(m, prec) for m in range(-2, 3)]
            assert betas == [fresh.beta(m, prec) for m in range(-2, 3)], state.history
            assert sum(not b.is_zero for b in betas) >= 2
            assert bailey_verify(fresh, m_range, prec).holds


class TestKnownFalseMismatch:
    """The chain n0=2, t=1, steps (-2, 1) at H=8 once reported a mismatch
    at depth 2 that is not there: a heuristic scan put beta_1(-3) at
    half-exponent 11 while it starts at q^4, and so the step sum for
    beta_2 dropped the term k = -3."""

    N0, T, STEPS, H = 2, 1, (-2, 1), 8

    def state(self, depth):
        st = bailey_seed_delta(self.N0, self.T)
        for s in self.STEPS[:depth]:
            st = bailey_step(st, s)
        return st

    def test_brute_force_step_sum_is_the_kernel_sum(self):
        # beta_2(m) by plain step sums over k in [-40, 40] at both levels,
        # every factor to half-exponent 40: the series arithmetic tracks
        # how far each sum is exact, and beta_2(m) equals the right-hand
        # side at every m the check reports
        st, reach = self.state(2), 40

        def step_sum(depth, m, inner):
            total = zero(reach)
            for k in range(-reach, reach + 1):
                ch1, ch2 = st._step_charges(depth, m, k)
                term = tet_index(*ch1, reach) * tet_index(*ch2, reach) * inner[k]
                total = total + term.scaled(-1 if m % 2 else 1, 2 * k - m)
            return total

        beta0 = {k: st._kernel_sum(0, k, reach) for k in range(-reach, reach + 1)}
        beta1 = {k: step_sum(1, k, beta0) for k in range(-reach, reach + 1)}
        for m in range(-2, 3):
            beta2 = step_sum(2, m, beta1)
            assert beta2.prec >= self.H
            assert equal_to_order(beta2, st._kernel_sum(2, m, self.H), self.H)

    def test_chain_holds_at_every_level(self):
        reports = bailey_chain(self.N0, self.T, list(self.STEPS), (-2, 2), self.H)
        assert all(r.holds for r in reports)


class TestShiftedPentagonStep:
    """The step sum is a shifted pentagon: against one seed point n, with
    beta_{d-1}(k) replaced by I(t, n+k), its sum over k is the shifted
    pentagon's right-hand side at (m1, m2, e1, e2, e0) =
    (2t-2s-m, m+2s-t, 2s-t, -m-s-t, n).  That identity is what the beta
    degree bound and the step windows rest on."""

    def test_every_step_is_a_shifted_pentagon_that_holds(self):
        for t, s, n, m in itertools.product(range(-2, 3), repeat=4):
            args = (2 * t - 2 * s - m, m + 2 * s - t, 2 * s - t, -m - s - t)
            assert pentagon_shifted_check(*args, n, 8).holds, (t, s, n, m)
            st = bailey_step(bailey_seed_delta(n, t), s)
            assert st._pentagon_args(1, m) == args
            (member,) = st._window_members(1, m)
            for k in range(-5, 6):
                charges, pref_h = _Term(member).at((k,))
                assert charges == [*st._step_charges(1, m, k), (t, n + k)]
                assert pref_h == 2 * k - m

    def test_every_two_step_chain_holds(self):
        for n0, t, s1, s2 in itertools.product(range(-2, 3), repeat=4):
            reports = bailey_chain(n0, t, [s1, s2], (-2, 2), 8)
            assert all(r.holds for r in reports), (n0, t, s1, s2)

    def test_empty_support_steps_to_zero(self):
        st = bailey_step(bailey_seed(0, {}), 1)
        assert st.beta(0, 8) == zero(8) and st.window_extents[(1, 0)] == 0
        assert bailey_verify(st, (-2, 2), 8).holds
