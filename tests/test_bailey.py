import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies

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
from tetindex.lattice import LatticeSumExpr
from tetindex.series import QSeries, equal_to_order, monomial, zero
from tetindex.tetrahedron import tet_index, tet_min_degree


def _widen_step_windows(monkeypatch):
    """Make every Bailey step window certified from now on reach 8 indices
    past its farthest low index; a beta already memoized keeps the window
    it was summed with.  Returns the widened windows, one per certificate."""
    members_window, widened = bailey._members_window, []

    def wide(*args):
        widened.append(members_window(*args) + 8)
        return widened[-1]

    monkeypatch.setattr(bailey, "_members_window", wide)
    return widened


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
        def seed():
            return bailey_seed(0, {-1: ((0, 1),), 2: ((1, -3), (4, 2))})

        st = seed()
        for k in (-1, 0, 2):
            want = (
                tet_index(0, k - 1, 8)
                + tet_index(0, k + 2, 7).scaled(-3, 1)
                + tet_index(0, k + 2, 4).scaled(2, 4)
            )
            assert equal_to_order(st.beta(k, 8), want, 8)

        def stepped():
            one = bailey_step(seed(), 1)
            return [one, bailey_step(one, -1)]

        states = stepped()
        for st in states:
            assert bailey_verify(st, (-3, 3), 8).holds
        base = [st.beta(k, 8) for st in states for k in (-1, 0, 2)]
        widened = _widen_step_windows(monkeypatch)
        wide = [st.beta(k, 8) for st in stepped() for k in (-1, 0, 2)]
        assert len(widened) == 6
        assert all(equal_to_order(a, b, 8) for a, b in zip(base, wide))

    def test_beta_memoization_transparent(self):
        st = bailey_step(bailey_seed_delta(0, 1), -1)
        hi = st.beta(0, 8)
        lo = st.beta(0, 5)
        assert equal_to_order(hi, lo, 5) and lo.prec == 5

    def test_stepped_state_shares_its_seed(self):
        st = bailey_seed(0, {-1: ((0, 1),), 2: ((1, -3), (4, 2))})
        assert bailey_step(st, 1).seed is st.seed
        assert bailey_step(bailey_step(st, 1), -1).seed is st.seed

    def test_alpha_memoization_transparent(self):
        # alpha_n grows from its parent's like beta: asked low, then high,
        # then low again, it equals a fresh state's at each precision
        def state():
            return bailey_step(bailey_step(bailey_seed(0, {2: ((1, -3), (4, 2))}), 1), -1)

        st, fresh = state(), state()
        lo, hi = st.alpha(2, 14), st.alpha(2, 30)
        assert hi == fresh.alpha(2, 30) and not hi.is_zero
        assert lo == hi.truncated(14) == st.alpha(2, 14) and lo.prec == 14
        assert st.alpha(0, 30) == zero(30)

    def test_kernel_sum_makes_one_index_product_per_term(self, monkeypatch):
        # after four steps, each term I(t, n+m) alpha_n of the kernel sum
        # is one product of the index and the memoized alpha_n, not one
        # product per step index and seed monomial
        st = bailey_seed(0, {-1: ((0, 1),), 2: ((1, -3), (4, 2))})
        for s in (1, -1, 2, 0):
            st = bailey_step(st, s)
        prec, mul, products = 72, QSeries.__mul__, []

        def counted(a, b):
            products.append((a, b))
            return mul(a, b)

        for m in range(-2, 3):
            # both seed points' terms start below prec
            leads = [tet_min_degree(st.t, n + m) + st.alpha(n, prec).lead for n in st.support()]
            assert max(leads) < prec
            want = st._kernel_sum(m, prec)  # memoizes alpha and the indices
            monkeypatch.setattr(QSeries, "__mul__", counted)
            assert st._kernel_sum(m, prec) == want and not want.is_zero
            monkeypatch.setattr(QSeries, "__mul__", mul)
            assert len(products) == len(leads), m
            products.clear()


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
            assert want and same_to_order(want, st._kernel_sum(m, self.H), self.H), m


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
        # each level's step sums read its parent's betas, but right after
        # its check a level's view holds its own level's windows only, one
        # per checked m, and its report carries the widest of them
        state = bailey_seed_delta(n0, t)
        reports, views = [bailey_verify(state, m_range, prec)], [state.window_extents]
        for s in steps:
            state = bailey_step(state, s)
            reports.append(bailey_verify(state, m_range, prec))
            views.append(state.window_extents)
        assert reports == bailey_chain(n0, t, steps, m_range, prec)
        lo, hi = m_range
        checked = range(lo, hi + 1)
        assert views[0] == {} and reports[0].window == 0
        for depth, (view, report) in enumerate(zip(views[1:], reports[1:]), 1):
            assert set(view) == {(depth, m) for m in checked}
            assert report.window == max(view[depth, m] for m in checked)
        assert all(r.holds for r in reports) and max(r.window for r in reports) >= 1

    @pytest.mark.parametrize(
        "prec, windows", [(12, [0, 2, 0, 0, 0, 0, 0]), (160, [0, 39, 19, 29, 13, 6, 0])]
    )
    def test_depth_six_windows_per_level(self, prec, windows):
        # each level's own step window: no level repeats a lower level's
        reports = bailey_chain(0, 1, [1, -1, 2, 0, 1, -1], (-3, 3), prec)
        assert [r.window for r in reports] == windows
        assert all(r.holds for r in reports)

    @staticmethod
    def _count_sums(monkeypatch):
        """Count the step sums and kernel sums of every state from now on."""
        calls = {"_beta_step": 0, "_kernel_sum": 0}
        for name in calls:
            method = getattr(bailey.BaileyState, name)

            def counted(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(bailey.BaileyState, name, counted)
        return calls

    @pytest.mark.parametrize("prec, steps, kernels", [(12, 42, 56), (160, 251, 167)])
    def test_depth_six_step_and_kernel_sum_counts(self, prec, steps, kernels, monkeypatch):
        # the work of the depth-6 chain: the level above reads the betas
        # a level's check summed, but a beta asked for above the
        # precision it was summed to is summed again; at H=160, 138 of
        # the 251 step sums are such regrowths (none at H=12)
        calls = self._count_sums(monkeypatch)
        bailey_chain(0, 1, [1, -1, 2, 0, 1, -1], (-3, 3), prec)
        assert calls == {"_beta_step": steps, "_kernel_sum": kernels}

    @pytest.mark.parametrize(
        "n0, t, steps, windows, step_sums",
        [
            (0, 1, (1, -1), [0, 1, 0], 10),
            (1, 0, (-1, 1), [0, 4, 0], 10),
            (-1, 0, (1, -1, 1), [0, 2, 0, 0], 15),
            (1, 1, (0, -1, 1), [0, 0, 0, 0], 15),
            (0, 1, (1, -1, 2, 0), [0, 1, 0, 0, 0], 20),
            (0, -1, (1, 1, -1, 0), [0, 0, 0, 0, 0], 20),
        ],
    )
    def test_benchmark_chains(self, n0, t, steps, windows, step_sums, monkeypatch):
        # the six Bailey chains of the verify-sweep benchmark, at its H=8
        # and m in -2..2: every level holds, with these windows, and each
        # level sums each checked beta once
        calls = self._count_sums(monkeypatch)
        reports = bailey_chain(n0, t, list(steps), (-2, 2), 8)
        assert all(r.holds and r.verified_to == 8 for r in reports)
        assert [r.window for r in reports] == windows
        assert calls["_beta_step"] == step_sums == 5 * len(steps)

    def test_step_sums_build_no_expression(self, monkeypatch):
        # each step member is a term built from its charges, so the
        # depth-4 benchmark chain's 20 step sums build no LatticeSumExpr
        built, init = [], LatticeSumExpr.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(LatticeSumExpr, "__init__", spy)
        calls = self._count_sums(monkeypatch)
        reports = bailey_chain(0, 1, [1, -1, 2, 0], (-2, 2), 8)
        assert all(r.holds for r in reports) and calls["_beta_step"] == 20
        assert built == []

    @staticmethod
    def _windows_in_order(n0, t, histories, order, m_range, prec):
        """Check the states of `histories`, all stepped from one seed, one
        state per history and each stepped from its parent's state, in the
        given order; their windows, by history."""
        seed, states, windows = bailey_seed_delta(n0, t), {}, {}

        def state(history):
            if history not in states:
                parent = state(history[:-1]) if len(history) > 1 else seed
                states[history] = bailey_step(parent, history[-1])
            return states[history]

        for history in order:
            report = bailey_verify(state(history), m_range, prec)
            assert report.holds, history
            assert all(level == len(history) for level, _ in state(history).window_extents)
            windows[history] = report.window
        return windows

    def test_sibling_windows_in_every_order(self):
        # a child's step sums ask for its parent's betas, and siblings
        # share their parent: in all 24 orders of check the four states
        # read one set of windows
        histories = [(1,), (1, 2), (-1,), (-1, 2)]
        seen = {
            tuple(sorted(self._windows_in_order(0, 1, histories, order, (-2, 2), 40).items()))
            for order in itertools.permutations(histories)
        }
        assert seen == {(((-1,), 6), ((-1, 2), 4), ((1,), 9), ((1, 2), 4))}

    @settings(max_examples=100, deadline=None)
    @given(
        n0=strategies.integers(-2, 2),
        t=strategies.integers(-2, 2),
        tree=strategies.lists(
            strategies.tuples(
                strategies.integers(-2, 2),
                strategies.lists(strategies.integers(-2, 2), max_size=2, unique=True),
            ),
            min_size=1, max_size=2, unique_by=lambda child: child[0],
        ),
        prec=strategies.integers(4, 30),
        data=strategies.data(),
    )
    def test_two_level_tree_windows_in_any_order(self, n0, t, tree, prec, data):
        # a child checked before its parent asks for the parent's betas,
        # at times above the parent's check precision: every state still
        # reads the window it reads when checked alone from a fresh seed
        histories = [h for s, grand in tree for h in [(s,), *((s, g) for g in grand)]]
        order = data.draw(strategies.permutations(histories))
        windows = self._windows_in_order(n0, t, histories, order, (-2, 2), prec)
        for history in histories:
            alone = self._windows_in_order(n0, t, [history], [history], (-2, 2), prec)
            assert windows[history] == alone[history], history

    def test_child_checked_before_its_parent(self):
        # checked first, the child sums the parent's betas above H=14,
        # the precision the parent is then checked at
        histories = [(0,), (0, 0)]
        in_order = self._windows_in_order(0, -1, histories, histories, (-2, 2), 14)
        child_first = self._windows_in_order(0, -1, histories, histories[::-1], (-2, 2), 14)
        assert in_order == child_first == {(0,): 2, (0, 0): 2}

    def test_check_below_the_memo_precision(self):
        # a state checked again at a lower precision reports that
        # precision's window; its view keeps the windows its betas were
        # summed at
        state = bailey_step(bailey_seed_delta(0, 1), 1)
        high = bailey_verify(state, (-2, 2), 40).window
        view = state.window_extents
        low = bailey_verify(state, (-2, 2), 12).window
        fresh = bailey_verify(bailey_step(bailey_seed_delta(0, 1), 1), (-2, 2), 12).window
        assert (high, low) == (9, fresh) and low < high
        assert state.window_extents == view and max(view.values()) == high

    def test_interleaved_siblings_equal_fresh_chains(self, monkeypatch):
        # two children read their one parent's betas, summed once for
        # both, and keep their own: checked in turns with their own
        # children, every beta equals the one a chain of its own computes
        # from a fresh seed
        calls, (m_range, prec) = self._count_sums(monkeypatch), ((-2, 2), 24)
        parent = bailey_step(bailey_seed_delta(0, 1), -1)
        bailey_verify(parent, m_range, prec)
        left, right = bailey_step(parent, -1), bailey_step(parent, 1)
        states = [left, right, bailey_step(left, 0), bailey_step(right, 0)]
        reports = [bailey_verify(state, m_range, prec) for state in states]
        assert all(r.holds for r in reports)
        assert calls == {"_beta_step": 35, "_kernel_sum": 43}
        assert left.parent is right.parent is parent
        for state in states:
            levels = {level for level, _ in state.window_extents}
            assert levels == {state.depth}, state.history
            assert {(state.depth, m) for m in range(-2, 3)} <= set(state.window_extents)
            fresh = bailey_seed_delta(0, 1)
            for s in state.history:
                fresh = bailey_step(fresh, s)
            assert fresh.parent is not state.parent
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

        def step_sum(level, m, inner):
            total, (m1, m2, e1, e2) = zero(reach), level._pentagon_args(m)
            for k in range(-reach, reach + 1):
                term = tet_index(m1, e1 + k, reach) * tet_index(m2, e2 + k, reach) * inner[k]
                total = total + term.scaled(-1 if m % 2 else 1, 2 * k - m)
            return total

        beta0 = {k: st.parent.parent._kernel_sum(k, reach) for k in range(-reach, reach + 1)}
        beta1 = {k: step_sum(st.parent, k, beta0) for k in range(-reach, reach + 1)}
        for m in range(-2, 3):
            beta2 = step_sum(st, m, beta1)
            assert beta2.prec >= self.H
            assert equal_to_order(beta2, st._kernel_sum(m, self.H), self.H)

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
            assert st._pentagon_args(m) == args
            (member,) = st._window_members(m)
            m1, m2, e1, e2 = args
            for k in range(-5, 6):
                charges, pref_h = member.at((k,))
                assert charges == [(m1, e1 + k), (m2, e2 + k), (t, n + k)]
                assert pref_h == 2 * k - m

    def test_every_two_step_chain_holds(self):
        for n0, t, s1, s2 in itertools.product(range(-2, 3), repeat=4):
            reports = bailey_chain(n0, t, [s1, s2], (-2, 2), 8)
            assert all(r.holds for r in reports), (n0, t, s1, s2)

    def test_empty_support_steps_to_zero(self):
        st = bailey_step(bailey_seed(0, {}), 1)
        assert st.beta(0, 8) == zero(8) and st.window_extents[(1, 0)] == 0
        assert bailey_verify(st, (-2, 2), 8).holds
