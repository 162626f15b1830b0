import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    dict_add,
    dict_inv,
    dict_mul,
    dict_scale,
    naive_qpoch,
    same_to_order,
    series_to_dict,
    trim,
)
from tetindex import series as series_module
from tetindex.errors import PrecisionError
from tetindex.series import (
    KRONECKER_MIN,
    QSeries,
    equal_to_order,
    monomial,
    one,
    qpoch,
    zero,
)


def assert_canonical(s):
    assert len(s.coeffs) == s.prec - s.lead
    if s.coeffs:
        assert s.coeffs[0] != 0
    else:
        assert s.lead == s.prec


def series(lead, coeffs, prec):
    out = [0] * (prec - lead)
    for i, c in enumerate(coeffs):
        out[i] = c
    i = 0
    while i < len(out) and out[i] == 0:
        i += 1
    if i == len(out):
        return zero(prec)
    return QSeries(lead + i, tuple(out[i:]), prec)


@st.composite
def random_series(draw):
    lead = draw(st.integers(-10, 10))
    coeffs = draw(st.lists(st.integers(-100, 100), max_size=8))
    return series(lead, coeffs, lead + len(coeffs))


@st.composite
def series_pair(draw):
    """Two series, often equal to some order: the second is drawn on its
    own, or copies the first from another lead to another precision
    (fresh coefficients past the first's) with at most one changed."""
    a = draw(random_series())
    if draw(st.booleans()):
        return a, draw(random_series())
    prec = a.prec + draw(st.integers(-3, 3))
    lo = min(a.lead, prec) - draw(st.integers(0, 3))
    coeffs = [
        a.coefficient(h) if h < a.prec else draw(st.integers(-2, 2))
        for h in range(lo, prec)
    ]
    if coeffs and draw(st.booleans()):
        coeffs[draw(st.integers(0, len(coeffs) - 1))] += draw(st.sampled_from((-1, 1)))
    return a, series(lo, coeffs, prec)


@st.composite
def long_series(draw, lead=None, unit=False):
    """Up to 120 coefficients of up to 10^40, so products of two such
    series reach the Kronecker path.  With stride 2 every odd offset from
    the lead is zero, as in a series in q; stride 3 makes a sparse series.
    `unit` gives a lead-0 series with constant term +-1."""
    if lead is None:
        lead = draw(st.integers(-11, 11))
    n = draw(st.integers(0, 120))
    coeffs = draw(st.lists(st.integers(-(10**40), 10**40), min_size=n, max_size=n))
    stride = draw(st.sampled_from((1, 2, 3)))
    coeffs = [c if i % stride == 0 else 0 for i, c in enumerate(coeffs)]
    if unit:
        coeffs = [draw(st.sampled_from((1, -1)))] + coeffs
    return series(lead, coeffs, lead + len(coeffs))


class TestMonomial:
    def test_constant_one(self):
        s = monomial(1, 0, 10)
        assert s.lead == 0 and s.coeffs[0] == 1 and s.prec == 10
        assert sum(map(abs, s.coeffs)) == 1

    def test_zero_coefficient_gives_canonical_zero(self):
        s = monomial(0, 0, 4)
        assert s.is_zero and s.prec == 4 and s.lead == 4

    def test_minus_q_half(self):
        s = monomial(-1, 1, 6)
        assert s.coefficient(1) == -1 and s.coefficient(2) == 0

    def test_rejects_monomial_outside_window(self):
        with pytest.raises(ValueError):
            monomial(1, 10, 10)
        with pytest.raises(ValueError):
            monomial(3, 12, 10)


class TestAdd:
    def test_cancellation(self):
        a = series(0, [1, 0, 1], 8)  # 1 + q
        b = series(0, [1, 0, -1], 8)  # 1 - q
        s = a + b
        assert s.coefficient(0) == 2 and s.coefficient(2) == 0

    def test_zero_identity_keeps_prec(self):
        a = series(0, [1, 2, 3], 6)
        s = a + zero(6)
        assert s == a

    def test_cancellation_to_zero_takes_min_prec(self):
        a = series(2, [1], 4)  # q, prec 4
        b = series(2, [-1], 6)  # -q, prec 6
        s = a + b
        assert s.is_zero and s.prec == 4

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(random_series(), long_series()), st.one_of(random_series(), long_series()))
    def test_sum_against_oracle(self, a, b):
        for s in (a + b, b + a, a + (-a)):
            assert_canonical(s)
        prec = min(a.prec, b.prec)
        s = a + b
        assert s.prec == prec and s == b + a
        assert same_to_order(dict_add(series_to_dict(a), series_to_dict(b), prec), s, prec)
        assert (a + (-a)).is_zero


class TestMul:
    def test_difference_of_squares(self):
        a = series(0, [1, 0, 1], 8)
        b = series(0, [1, 0, -1], 8)
        s = a * b
        assert s.coefficient(0) == 1
        assert s.coefficient(2) == 0
        assert s.coefficient(4) == -1

    def test_half_exponents_add(self):
        s = monomial(1, 1, 8) * monomial(1, 1, 8)
        assert s.lead == 2 and s.coefficient(2) == 1

    @settings(max_examples=200)
    @given(random_series(), random_series(), random_series())
    def test_associativity(self, a, b, c):
        left = (a * b) * c
        right = a * (b * c)
        order = min(left.prec, right.prec)
        assert equal_to_order(left, right, order)

    @settings(max_examples=200)
    @given(random_series(), random_series())
    def test_commutativity_and_canonical(self, a, b):
        x, y = a * b, b * a
        assert x == y
        assert_canonical(x)

    @settings(max_examples=150, deadline=None)
    @given(long_series(), long_series())
    def test_long_products_against_oracle(self, a, b):
        s = a * b
        prec = min(a.prec + b.lead, b.prec + a.lead)
        assert s.prec == prec
        assert_canonical(s)
        want = dict_mul(series_to_dict(a), series_to_dict(b), prec)
        assert same_to_order(want, s, prec)

    @settings(max_examples=100, deadline=None)
    @given(long_series())
    def test_squares_against_oracle(self, a):
        # one operand twice is packed once and squared
        s = a * a
        prec = a.prec + a.lead
        assert s.prec == prec
        assert_canonical(s)
        want = dict_mul(series_to_dict(a), series_to_dict(a), prec)
        assert same_to_order(want, s, prec)

    @pytest.mark.parametrize("seed", range(24))
    def test_monomial_operand_is_not_packed(self, seed, monkeypatch):
        # at Kronecker size an operand whose first n coefficients are its
        # lead alone, whatever it carries past them, shifts and scales the
        # other operand, on either side, and nothing is packed; with one
        # more term among them it is packed as before
        rng = random.Random(seed)
        n = rng.randrange(KRONECKER_MIN, 120)
        longer = rng.randrange(1, 20)
        mono_tail, other_tail = rng.choice(((0, 0), (longer, 0), (0, longer)))
        c = rng.choice((1, -1, 7, -(10**30)))
        coeffs = [c] + [0] * (n - 1) + [rng.randrange(1, 9)] * mono_tail
        lead = rng.randrange(-5, 6)
        mono = series(lead, coeffs, lead + len(coeffs))
        coeffs[rng.randrange(1, n)] = rng.choice((1, -2))
        binomial = series(lead, coeffs, lead + len(coeffs))
        coeffs = [rng.randrange(-(10**20), 10**20) for _ in range(n + other_tail)]
        coeffs[0] = rng.choice((1, -3))
        lead = rng.randrange(-5, 6)
        other = series(lead, coeffs, lead + len(coeffs))
        prec = mono.lead + other.lead + n

        def products(a):
            want = dict_mul(series_to_dict(a), series_to_dict(other), prec)
            for s in (a * other, other * a):
                assert s.prec == prec
                assert_canonical(s)
                assert same_to_order(want, s, prec)

        products(binomial)

        def packed(a, b):
            raise AssertionError("a monomial product was packed")

        monkeypatch.setattr(series_module, "_kronecker", packed)
        products(mono)

    @pytest.mark.parametrize("c", [2**65 - 1, -(2**65 - 1), 255, -256])
    @pytest.mark.parametrize("n", [KRONECKER_MIN - 1, KRONECKER_MIN, 63, 126])
    def test_slot_boundaries(self, c, n):
        # constant operands make the top product coefficient m * c^2 with
        # m = 63 packed slots: within one bit of the slot width; alternating
        # signs exercise the borrows.  A stride-2 operand is a series in q,
        # and only a product of two such is packed every other coefficient.
        def pattern(stride, alternate):
            return [
                c * (-1) ** (alternate * i // stride) if i % stride == 0 else 0
                for i in range(n)
            ]

        for sa, sb, alternate in itertools.product((1, 2), (1, 2), (0, 1)):
            a = series(1, pattern(sa, alternate), n + 1)
            b = series(0, pattern(sb, 0), n)
            want = dict_mul(series_to_dict(a), series_to_dict(b), n + 1)
            assert same_to_order(want, a * b, n + 1)

    # slots of 1 to 24 bytes: one, two and three 64-bit words, with the
    # edges at 8/9 and 16/17 bytes
    @pytest.mark.parametrize("width", range(1, 25))
    def test_pack_unpack_every_slot_width(self, width):
        bits = 8 * width
        top = 2 ** (bits - 1) - 1
        rng = random.Random(width)

        def ref_pack(coeffs):
            # the slots' two's complement bytes, where a negative slot
            # owes 2^bits to the slot above
            raw = b"".join(c.to_bytes(width, "little", signed=True) for c in coeffs)
            owed = sum(1 << (bits * (i + 1)) for i, c in enumerate(coeffs) if c < 0)
            return int.from_bytes(raw, "little") - owed

        def ref_unpack(value, m):
            out = []
            for _ in range(m):
                low = (value & ((1 << bits) - 1)).to_bytes(width, "little")
                c = int.from_bytes(low, "little", signed=True)
                out.append(c)
                value = (value - c) >> bits
            return out

        cases = [
            [top, -top] * 4,
            [-top] * 7,
            [top] * 7,
            [-top, -1, -(2 ** (bits - 2)), -top],
            [1, 2 ** (bits - 2), top, top - 1],
            [(-1) ** i * rng.randint(0, top) for i in range(9)],
            [rng.randint(-top, top) for _ in range(9)],
            [top],
            [-top],
            [-1],
            [0, 0, -1, 0],
        ]
        for coeffs in cases:
            m = len(coeffs)
            ones = int.from_bytes((b"\x01" + bytes(width - 1)) * m, "little")
            packed = series_module._pack(tuple(coeffs), bits, ones)
            assert packed == ref_pack(coeffs)
            assert packed == sum(c << (bits * i) for i, c in enumerate(coeffs))
            assert series_module._unpack(packed, m, bits, ones) == coeffs
            # slots above the m asked for are ignored
            above = packed + (rng.randint(-top, top) << (bits * m))
            assert series_module._unpack(above, m, bits, ones) == ref_unpack(above, m)

    @pytest.mark.parametrize("width", range(1, 25))
    def test_kronecker_every_slot_width(self, width, monkeypatch):
        # m = 16 packed slots and coefficients of bit lengths ka and kb with
        # ka + kb + bit_length(m) = 8 width - 1, the most a `width`-byte
        # slot admits: the largest product coefficient, m (2^ka - 1)
        # (2^kb - 1), comes within two bits of the slot's sign bit.  The
        # lopsided split puts coefficients of up to 185 bits, two and three
        # words each, in a.
        m = 16
        widths = []
        pack = series_module._pack

        def spy(coeffs, bits, ones):
            widths.append(bits // 8)
            return pack(coeffs, bits, ones)

        monkeypatch.setattr(series_module, "_pack", spy)
        total = 8 * width - 1 - m.bit_length()
        for ka, stride, signs in itertools.product(
            {total // 2, total - 1}, (1, 2), ("positive", "negative", "alternating", "square")
        ):
            big_a, big_b = 2**ka - 1, 2 ** (total - ka) - 1

            def operand(big, alternate, sign):
                return tuple(
                    sign * big * (-1) ** (alternate * i // stride) if i % stride == 0 else 0
                    for i in range(m * stride)
                )

            if signs == "square":
                # one operand: its bit lengths split evenly
                a = b = operand(2 ** (total // 2) - 1, 1, -1)
            else:
                a = operand(big_a, signs == "alternating", -1 if signs == "negative" else 1)
                b = operand(big_b, signs == "alternating", 1)
            widths.clear()
            got = series_module._kronecker(a, b)
            assert widths == [width] * (1 if b is a else 2)
            n = len(a)
            want = dict_mul(dict(enumerate(a)), dict(enumerate(b)), n)
            assert got == [want.get(k, 0) for k in range(n)]

    @settings(max_examples=200)
    @given(random_series(), random_series(), random_series())
    def test_distributivity(self, a, b, c):
        left = a * (b + c)
        right = a * b + a * c
        order = min(left.prec, right.prec)
        assert equal_to_order(left, right, order)


class TestInverse:
    def test_geometric_series(self):
        s = series(0, [1, 0, -1], 12).inverse()  # 1/(1-q)
        assert all(s.coefficient(2 * k) == 1 for k in range(6))

    def test_inverse_of_one(self):
        assert one(8).inverse() == one(8)

    def test_pochhammer_round_trip(self):
        p = qpoch(2, 12)
        assert equal_to_order(p * p.inverse(), one(12), 12)

    def test_rejects_non_unit_constant(self):
        with pytest.raises(ValueError):
            series(0, [2], 4).inverse()
        with pytest.raises(ValueError):
            series(2, [1], 6).inverse()

    @settings(max_examples=200)
    @given(random_series())
    def test_round_trip_property(self, a):
        if a.is_zero or a.lead != 0 or a.coeffs[0] not in (1, -1):
            b = series(0, [1] + list(a.coeffs), a.prec + 1 - a.lead)
        else:
            b = a
        assert equal_to_order(b * b.inverse(), one(b.prec), b.prec)

    @settings(max_examples=150, deadline=None)
    @given(long_series(lead=0, unit=True))
    def test_long_inverse_against_oracle(self, a):
        assert same_to_order(dict_inv(series_to_dict(a), a.prec), a.inverse(), a.prec)

    @settings(max_examples=150, deadline=None)
    @given(long_series(lead=0, unit=True), st.integers(1, 121))
    def test_extended_inverse_equals_cold_inverse(self, a, cut):
        # resumed from any shorter inverse, including a step-aligned one
        known = a.truncated(min(cut, a.prec)).inverse()
        assert a.inverse(known=known) == a.inverse()

    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_extended_row_equals_cold_row(self, n):
        for lo, hi in [(1, 2), (7, 160), (40, 41), (160, 160)]:
            row = qpoch(n, hi).inverse(known=qpoch(n, lo).inverse())
            assert row == qpoch(n, hi).inverse()

    def test_extension_rejects_a_foreign_prefix(self):
        message = "a resumed inverse must start at lead 0 below prec"
        for known in (qpoch(3, 12).inverse(), zero(0), monomial(1, 2, 6)):
            with pytest.raises(ValueError, match=message):
                qpoch(3, 10).inverse(known=known)
        # the divisor is checked first, with the errors of a cold inverse
        with pytest.raises(ValueError, match="inverse requires constant term"):
            series(0, [2, 1], 6).inverse(known=one(4))

    def test_known_is_keyword_only(self):
        # bench/spans.py counts an inversion's work from its positional
        # arguments alone, the divisor
        with pytest.raises(TypeError):
            qpoch(3, 10).inverse(qpoch(3, 4).inverse())

    @pytest.mark.parametrize("n", [10, 20, 34])
    def test_row_resumed_from_every_cut_equals_cold_row(self, n):
        row = qpoch(n, 160)
        cold = row.inverse()
        for cut in range(1, 161):
            assert row.inverse(known=cold.truncated(cut)) == cold, cut


def dense_unit(rng, n, a0, stride):
    """A lead-0 series of n coefficients, constant term a0, with a
    nonzero coefficient of at most 3 in absolute value at every multiple
    of `stride` and zeros elsewhere."""
    coeffs = [a0] + [
        rng.choice((-3, -2, -1, 1, 2, 3)) if i % stride == 0 else 0
        for i in range(1, n)
    ]
    return QSeries(0, tuple(coeffs), n)


@functools.lru_cache(maxsize=None)
def _dense_600(a0):
    """A dense unit series of 600 coefficients and its inverse, checked
    against the oracle."""
    a = dense_unit(random.Random(600 + a0), 600, a0, 1)
    cold = a.inverse()
    assert same_to_order(dict_inv(series_to_dict(a), 600), cold, 600)
    return a, cold


class TestDenseInverse:
    """Divisors with a nonzero coefficient at every multiple of their
    stride, the costliest input of the triangular recursion: each
    solved coefficient takes a multiply-add per lower one."""

    @pytest.mark.parametrize("a0", [1, -1])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_dense_inverse_against_oracle(self, a0, stride):
        rng = random.Random(1000 * stride + a0)
        # stride 3 has a ninth of the work of stride 1 at equal length
        for n in (rng.randint(300 if stride < 3 else 450, 800) for _ in range(2)):
            a = dense_unit(rng, n, a0, stride)
            assert same_to_order(dict_inv(series_to_dict(a), n), a.inverse(), n)

    @pytest.mark.parametrize("a0", [1, -1])
    @pytest.mark.parametrize("cut", [1, 37, 127, 128, 129, 256, 301, 512, 599])
    def test_extended_dense_inverse_equals_cold_inverse(self, a0, cut):
        # cuts at the first coefficient, odd and even ones and n - 1
        a, cold = _dense_600(a0)
        assert a.inverse(known=a.truncated(cut).inverse()) == cold

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((1, -1)),
        st.integers(1, 3),
        st.integers(2, 240),
        st.randoms(use_true_random=False),
        st.data(),
    )
    def test_resumed_dense_inverse_equals_cold_and_oracle(self, a0, stride, n, rng, data):
        a = dense_unit(rng, n, a0, stride)
        cut = data.draw(st.integers(1, n), label="cut")
        cold = a.inverse()
        assert a.inverse(known=a.truncated(cut).inverse()) == cold
        assert same_to_order(dict_inv(series_to_dict(a), n), cold, n)

    @pytest.mark.parametrize("n", [10, 20, 34])
    def test_dense_pochhammer_round_trip(self, n):
        p = qpoch(n, 1200)
        assert p * p.inverse() == one(1200)


class TestEqualToOrder:
    def test_agreement(self):
        a = series(0, [1, 0, 0, 0, -1], 8)  # 1 - q^2
        b = series(0, [1, 0, 1], 8) * series(0, [1, 0, -1], 8)
        assert equal_to_order(a, b, 8)

    def test_disagreement_past_order(self):
        a = one(12)
        b = a + monomial(1, 10, 12)
        assert not equal_to_order(a, b, 12)
        assert equal_to_order(a, b, 10)

    def test_insufficient_precision_is_an_error(self):
        a = one(10)
        b = one(10) + monomial(1, 5, 10)
        with pytest.raises(PrecisionError):
            equal_to_order(a, b, 12)

    @settings(max_examples=400)
    @given(series_pair(), st.data())
    def test_agrees_with_a_coefficient_scan(self, pair, data):
        # orders below, at and above both leads, and past either precision
        a, b = pair
        lo = min(a.lead, b.lead)
        order = data.draw(st.integers(lo - 3, max(a.prec, b.prec) + 2), label="order")
        if order > min(a.prec, b.prec):
            with pytest.raises(PrecisionError) as err:
                equal_to_order(a, b, order)
            assert str(err.value) == (
                f"comparison to half-exponent {order} needs precision >= {order} "
                f"on both sides (have {a.prec} and {b.prec})"
            )
            return
        scan = all(a.coefficient(h) == b.coefficient(h) for h in range(lo, order))
        assert equal_to_order(a, b, order) == scan


class TestQPoch:
    def test_empty_product(self):
        assert qpoch(0, 8) == one(8)

    def test_single_factor(self):
        p = qpoch(1, 8)
        assert p.coefficient(0) == 1 and p.coefficient(2) == -1

    def test_two_factors(self):
        p = qpoch(2, 10)
        expected = {0: 1, 2: -1, 4: -1, 6: 1}
        for h in range(10):
            assert p.coefficient(h) == expected.get(h, 0)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            qpoch(-1, 8)

    def test_factors_past_precision_are_one(self):
        # a deep charge asks for (q;q)_n with 2n far past prec
        assert qpoch(5000, 20) == qpoch(10, 20)

    def test_incremental_build_in_any_order(self):
        # each (q;q)_n is built from 1, one factor at a time, whatever
        # was asked for before
        calls = [(n, prec) for n in range(41) for prec in (31, 90)]
        random.Random(4).shuffle(calls)
        for n, prec in calls:
            assert same_to_order(naive_qpoch(n, prec), qpoch(n, prec), prec)


class TestTruncateScale:
    def test_truncation_drops_tail(self):
        a = series(0, [1, 2, 3, 4], 4)
        t = a.truncated(2)
        assert t.prec == 2 and t.coeffs == (1, 2)

    def test_truncation_cannot_extend(self):
        with pytest.raises(PrecisionError):
            zero(4).truncated(6)

    def test_scaling_shifts_window(self):
        a = series(0, [1, 2], 2)
        s = a.scaled(-1, 3)
        assert s.lead == 3 and s.prec == 5 and s.coeffs == (-1, -2)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(random_series(), long_series()), st.integers(0, 130))
    def test_truncation_against_oracle(self, a, cut):
        prec = a.prec - cut
        t = a.truncated(prec)
        assert_canonical(t)
        assert t.prec == prec
        assert same_to_order(trim(series_to_dict(a), prec), t, prec)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(random_series(), long_series()),
        st.sampled_from((1, -1, 3, -7)),
        st.integers(-5, 5),
    )
    def test_scaling_against_oracle(self, a, c, h):
        s = a.scaled(c, h)
        assert_canonical(s)
        assert s.prec == a.prec + h
        assert same_to_order(dict_scale(series_to_dict(a), c, h), s, s.prec)
