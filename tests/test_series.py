"""Series-core tests: frozen oracles, ring-axiom properties, round trips."""

import json
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from enumgeo.modforms import eisenstein
from enumgeo.series import (
    QSeries,
    SeriesError,
    VariableMismatch,
    ShiftMismatch,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    ConstantTermNotOne,
    OrderExceeded,
    int_binomial,
    product_family,
    _euler_product,
    _pack,
    _poly_str,
    _unpack,
)


def rand_series(rng, order, shift=Fraction(0), var="q", unit=False,
                scale=10):
    cs = [Fraction(rng.randint(-scale, scale),
                   rng.randint(1, 4)) for _ in range(order + 1)]
    if unit:
        while cs[0] == 0:
            cs[0] = Fraction(rng.randint(-scale, scale), rng.randint(1, 4))
    return QSeries(cs, var=var, shift=shift, order=order)


def poly_str_replace(coeffs, var):
    """Oracle: the nonzero terms joined by " + ", then every "+ -" turned
    into "- ", as the series printer worked before it wrote signs itself."""
    def term(k, c):
        if k == 0:
            return str(c)
        v = var if k == 1 else f"{var}^{k}"
        if c == 1:
            return v
        if c == -1:
            return f"-{v}"
        return f"{c}*{v}"
    terms = [term(k, c) for k, c in enumerate(coeffs) if c]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def binomial_product(exponent, order):
    """Oracle: prod (1 - q**m)**exponent(m), each factor expanded by the
    binomial theorem and multiplied in over the integers."""
    acc = [1] + [0] * order
    for m in range(1, order + 1):
        e = exponent(m)
        new = list(acc)
        for j in range(1, order // m + 1):
            c = (-1) ** j * int_binomial(e, j)
            for k in range(order - m * j + 1):
                new[k + m * j] += c * acc[k]
        acc = new
    return acc


def schoolbook(f, g):
    """Oracle: the truncated product by the plain double loop."""
    n = min(f.order, g.order)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += f.coefficient(i) * g.coefficient(j)
    return out


def invert_loop(f):
    """Oracle: 1/f by the recurrence b_k = -(sum a_i b_{k-i}) / a_0."""
    a = f.coefficients()
    b = [1 / a[0]]
    for k in range(1, f.order + 1):
        b.append(-sum(a[i] * b[k - i] for i in range(1, k + 1)) / a[0])
    return b


def exp_loop(f):
    """Oracle: exp f by m*g_m = sum k*f_k*g_{m-k}."""
    a = f.coefficients()
    g = [Fraction(1)]
    for m in range(1, f.order + 1):
        g.append(sum((k * a[k] * g[m - k] for k in range(1, m + 1)),
                     Fraction(0)) / m)
    return g


def log_loop(f):
    """Oracle: log f by h_m = f_m - (sum k*h_k*f_{m-k}) / m."""
    a = f.coefficients()
    h = [Fraction(0)]
    for m in range(1, f.order + 1):
        h.append(a[m] - sum((k * h[k] * a[m - k] for k in range(1, m)),
                            Fraction(0)) / m)
    return h


EIS_C1 = {2: -24, 4: 240, 6: -504}


class TestConstruction:
    def test_pads_to_order(self):
        f = QSeries([1, 2], order=4)
        assert f.coefficients() == (1, 2, 0, 0, 0)

    def test_too_many_coeffs_rejected(self):
        with pytest.raises(SeriesError):
            QSeries([1, 2, 3], order=1)

    def test_immutable(self):
        f = QSeries([1])
        with pytest.raises(AttributeError):
            f.order = 3

    def test_non_rational_rejected(self):
        with pytest.raises(TypeError):
            QSeries([0.5])

    def test_order_is_an_int(self):
        # True is an int subclass; it must not reach to_json_dict as true
        for f in (QSeries([1, 2], order=True), QSeries([1, 2]).truncate(True)):
            assert type(f.order) is int and f.order == 1
            assert json.dumps(f.to_json_dict()["order"]) == "1"

    def test_coefficient_bounds(self):
        f = QSeries([1, 2, 3])
        assert f.coefficient(2) == 3
        with pytest.raises(OrderExceeded):
            f.coefficient(3)
        with pytest.raises(OrderExceeded):
            f.coefficient(-1)


class TestOracles:
    def test_geometric_series_inverse(self):
        # (1 + q + q^2 + ...) * (1 - q) = 1
        geo = QSeries([1] * 21, order=20)
        assert geo * QSeries([1, -1], order=20) == QSeries.one(20)
        assert QSeries([1, -1], order=20).invert() == geo

    def test_negative_binomial_power(self):
        # coefficient of q^k in (1-q)^-n is C(n+k-1, k)
        f = QSeries([1, -1], order=10) ** -12
        for k in range(11):
            assert f.coefficient(k) == comb(12 + k - 1, k)
        assert f.coefficient(2) == 78

    def test_invert_example(self):
        g = QSeries([1, 1, Fraction(1, 2)], order=2).invert()
        assert g.coefficients() == (1, -1, Fraction(1, 2))

    def test_mul_truncates_to_smaller_order(self):
        a = QSeries([1, 1, 1, 1, 1], order=4)
        b = QSeries([1, 1], order=1)
        assert (a * b).order == 1

    def test_shift_arithmetic(self):
        f = QSeries([1, 2], shift=Fraction(1, 2), order=3)
        g = QSeries([1, 1], shift=Fraction(-1, 3), order=3)
        assert (f * g).shift == Fraction(1, 6)
        assert f.invert().shift == Fraction(-1, 2)
        assert (f ** 3).shift == Fraction(3, 2)
        assert (f ** -2).shift == Fraction(-1)
        assert (f ** 0) == QSeries.one(3)

    def test_exp_matches_factorial_sum(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 10)
            f = rand_series(rng, n)
            f = QSeries([0] + list(f.coefficients()[1:]), order=n)
            direct = QSeries.one(n)
            power = QSeries.one(n)
            for k in range(1, n + 1):
                power = power * f
                direct = direct + power * Fraction(1, factorial(k))
            assert f.exp() == direct

    def test_log_matches_mercator_sum(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 10)
            f = rand_series(rng, n)
            u = QSeries([0] + list(f.coefficients()[1:]), order=n)
            direct = QSeries.zero(n)
            power = QSeries.one(n)
            for k in range(1, n + 1):
                power = power * u
                direct = direct + power * Fraction((-1) ** (k + 1), k)
            assert (QSeries.one(n) + u).log() == direct

    def test_q_d_dq(self):
        f = QSeries([3, 1, 4, 1], order=3)
        assert f.q_d_dq().coefficients() == (0, 1, 8, 3)


class TestProductFamily:
    def test_neg12_digits(self):
        f = product_family(lambda m: -12, 5)
        assert f.coefficients() == (1, 12, 90, 520, 2535, 10908)

    def test_zero_exponent(self):
        assert product_family(lambda m: 0, 6) == QSeries.one(6)

    def test_colored_partition_oracle(self):
        # independent DP: partitions with 24 colors per part size
        order = 12
        dp = [0] * (order + 1)
        dp[0] = 1
        for m in range(1, order + 1):
            for _ in range(24):
                for n in range(m, order + 1):
                    dp[n] += dp[n - m]
        f = product_family(lambda m: -24, order)
        assert [int(c) for c in f.coefficients()] == dp
        assert dp[1:4] == [24, 324, 3200]

    def test_positive_exponent_pentagonal(self):
        # Euler: prod(1-q^m) has coefficients supported on pentagonal numbers
        f = product_family(lambda m: 1, 15)
        expect = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
        for k in range(16):
            assert f.coefficient(k) == expect.get(k, 0)

    def test_power_consistency(self):
        base = product_family(lambda m: -1, 15)
        for chi in (1, 12, 24):
            assert base ** chi == product_family(lambda m: -chi, 15)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(TypeError):
            product_family(lambda m: 0.5, 4)

    def test_recurrence_raises_on_inexact_division(self):
        # integer factors always divide exactly; a half-integer c does not
        assert _euler_product([(1, 2, 1)], 3) == [1, -2, 0, 0]
        with pytest.raises(ArithmeticError):
            _euler_product([(1, Fraction(1, 2), 1)], 1)

    @pytest.mark.parametrize("exponent", [
        lambda m: -24, lambda m: 8, lambda m: 0, lambda m: m % 3 - 1,
    ], ids=["-24", "8", "0", "m%3-1"])
    def test_matches_binomial_expansion(self, exponent):
        # factors with m > order are 1 + O(q**(order+1)), so every
        # truncation of the order-60 oracle is the product at that order
        expect = binomial_product(exponent, 60)
        for order in range(61):
            f = product_family(exponent, order)
            assert f.order == order
            assert f.coefficients() == tuple(expect[:order + 1])


class TestRingAxioms:
    def test_randomized_axioms(self):
        # acceptance criterion: 1000 randomized cases, order <= 16
        rng = random.Random(2024)
        for case in range(1000):
            n = rng.randint(0, 16)
            f = rand_series(rng, n)
            g = rand_series(rng, n)
            h = rand_series(rng, n)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + QSeries.zero(n) == f
            assert f * QSeries.one(n) == f
            assert f - f == QSeries.zero(n)

    def test_exp_log_round_trips(self):
        # acceptance criterion: 200 round-trip cases
        rng = random.Random(515)
        for case in range(200):
            n = rng.randint(1, 16)
            f = rand_series(rng, n)
            nilp = QSeries([0] + list(f.coefficients()[1:]), order=n)
            assert nilp.exp().log() == nilp
            unit = QSeries([1] + list(f.coefficients()[1:]), order=n)
            assert unit.log().exp() == unit

    def test_invert_round_trip(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(0, 16)
            f = rand_series(rng, n, unit=True)
            assert f * f.invert() == QSeries.one(n)
            assert f.invert().invert() == f

    def test_truncation_consistency(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(4, 16)
            m = rng.randint(0, n)
            f = rand_series(rng, n)
            g = rand_series(rng, n)
            assert (f + g).truncate(m) == f.truncate(m) + g.truncate(m)
            assert (f * g).truncate(m) == f.truncate(m) * g.truncate(m)
            fu = rand_series(rng, n, unit=True)
            assert fu.invert().truncate(m) == fu.truncate(m).invert()

    def test_equality_up_to_smaller_order(self):
        assert QSeries([1, 2, 3]) == QSeries([1, 2], order=1)
        assert QSeries([1, 2, 3]) != QSeries([1, 3], order=1)
        assert QSeries([1], shift=1) != QSeries([1], shift=0)
        assert QSeries([1], var="q") != QSeries([1], var="v")


class TestPrinter:
    def test_poly_str_matches_replace_oracle(self):
        rng = random.Random(41)
        for _ in range(3000):
            cs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
                  if rng.random() < 0.6 else Fraction(0)
                  for _ in range(rng.randint(1, 9))]
            var = rng.choice(("q", "t", "x1"))
            assert _poly_str(cs, var) == poly_str_replace(cs, var)
            ints = [int(c) for c in cs]
            assert _poly_str(ints, var) == poly_str_replace(ints, var)


class TestPackedProduct:
    """The packed (Kronecker) product against the schoolbook loop, and the
    pack/unpack helpers it runs on."""

    def test_matches_schoolbook_above_threshold(self):
        rng = random.Random(77)
        n = 540
        a = [Fraction(rng.randint(-3, 3)) for _ in range(n + 1)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(n + 1)]
        expect = [Fraction(0)] * (n + 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(min(n - i, n) + 1):
                expect[i + j] += ai * b[j]
        got = QSeries(a, order=n) * QSeries(b, order=n)
        assert got.coefficients() == tuple(expect)

    def test_matches_schoolbook_on_mixed_inputs(self):
        rng = random.Random(78)
        big = 2 ** 200
        cases = []
        # rational operands with unlike denominators, and shifts
        for n in list(range(8)) + [40, 150]:
            cases.append((
                QSeries([Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                  rng.randint(1, 97)) for _ in range(n + 1)],
                        shift=Fraction(-1, 2)),
                QSeries([Fraction(rng.randint(-50, 50), rng.choice((3, 8, 35)))
                         for _ in range(n + 1)], shift=Fraction(1, 24))))
        # zero operands, and zeros at both ends of an operand
        for n in (0, 1, 5, 30):
            cases.append((rand_series(rng, n), QSeries.zero(n)))
            cases.append((rand_series(rng, n, scale=10 ** 6), QSeries.zero(n)))
            cases.append((QSeries([200] * (n + 1)), QSeries.zero(n)))
            cases.append((QSeries.zero(n), QSeries.zero(n)))
            cases.append((rand_series(rng, n),
                          QSeries([0, 0] + [1] * (n // 2), order=n + 2)))
        # unequal orders
        for m, n in ((0, 9), (3, 40), (17, 200), (64, 65)):
            cases.append((rand_series(rng, m),
                          rand_series(rng, n, scale=10 ** 9)))
        # coefficients of 200 bits with both signs
        cases.append((
            QSeries([rng.choice((-1, 1)) * rng.randint(0, big)
                     for _ in range(30)]),
            QSeries([Fraction(rng.randint(-big, big), rng.randint(1, big))
                     for _ in range(30)])))
        for f, g in cases:
            for x, y in ((f, g), (g, f)):
                got = x * y
                assert got.order == min(x.order, y.order)
                assert got.shift == x.shift + y.shift
                assert got.coefficients() == tuple(schoolbook(x, y))

    def test_zero_times_wide_operand(self):
        # the packed digits must hold an operand even when the product is 0
        e4 = eisenstein(4, 30)
        zero = QSeries.zero(30)
        for x, y in ((e4, zero), (zero, e4), (e4 - e4, e4),
                     (QSeries([200]), QSeries.zero(0))):
            got = x * y
            assert got.is_zero() and got.order == min(x.order, y.order)

    def test_pack_round_trip(self):
        rng = random.Random(82)
        for width in (1, 2, 9):
            half = 1 << (8 * width - 1)
            digits = [-half, half - 1, 0, -1, 1] + [
                rng.randint(-half, half - 1) for _ in range(20)]
            assert _unpack(_pack(digits, width), width, len(digits)) == digits

    def test_unpack_raises_on_overflow(self):
        # two signed 8-bit digits hold exactly -32896 .. 32639
        assert _unpack(-32896, 1, 2) == [-128, -128]
        assert _unpack(32639, 1, 2) == [127, 127]
        for value in (32640, -32897, 1 << 16, -(1 << 16)):
            with pytest.raises(OverflowError):
                _unpack(value, 1, 2)


class TestForwardSubstitution:
    """The forward-substitution kernels of ``/``, ``invert``, ``log`` and
    ``exp`` against the Fraction-loop oracles."""

    ORDERS = range(34)

    def test_invert_matches_recurrence(self):
        rng = random.Random(91)
        for n in self.ORDERS:
            f = QSeries([Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                  rng.randint(2, 97))] + [
                Fraction(rng.randint(-50, 50), rng.choice((1, 3, 8, 35)))
                for _ in range(n)], shift=Fraction(1, 3))
            got = f.invert()
            assert got.order == n and got.shift == Fraction(-1, 3)
            assert got.coefficients() == tuple(invert_loop(f))

    def test_log_exp_match_recurrences(self):
        rng = random.Random(92)
        for n in self.ORDERS:
            tail = [Fraction(rng.randint(-50, 50), rng.choice((1, 3, 8, 35)))
                    for _ in range(n)]
            unit, nilp = QSeries([1] + tail), QSeries([0] + tail)
            assert unit.log().order == nilp.exp().order == n
            assert unit.log().coefficients() == tuple(log_loop(unit))
            assert nilp.exp().coefficients() == tuple(exp_loop(nilp))

    @pytest.mark.parametrize("weight", [2, 4, 6])
    def test_eisenstein(self, weight):
        e = eisenstein(weight, 150)
        assert e.invert().coefficients() == tuple(invert_loop(e))
        assert e.log().coefficients() == tuple(log_loop(e))
        x = (eisenstein(weight, 60) - 1) / EIS_C1[weight]
        assert x.exp().coefficients() == tuple(exp_loop(x))

    def test_divide_unequal_orders_and_shifts(self):
        rng = random.Random(93)
        for _ in range(60):
            f = rand_series(rng, rng.randint(0, 20),
                            shift=Fraction(rng.randint(-6, 6), 5))
            g = rand_series(rng, rng.randint(0, 20), unit=True,
                            shift=Fraction(rng.randint(-6, 6), 7))
            got = f / g
            n = min(f.order, g.order)
            assert got.order == n and got.shift == f.shift - g.shift
            assert list(got.coefficients()) == schoolbook(
                f, QSeries(invert_loop(g)))

    def test_large_non_unit_constant_term(self):
        rng = random.Random(94)
        a0 = Fraction(3 ** 90 + 7, -(10 ** 40 + 3))
        for n in (0, 1, 2, 9, 25):
            g = QSeries([a0] + [
                Fraction(rng.randint(-2 ** 80, 2 ** 80),
                         rng.randint(1, 2 ** 60)) for _ in range(n)],
                shift=Fraction(2, 3))
            assert g.invert().coefficients() == tuple(invert_loop(g))
            f = rand_series(rng, n)
            assert list((f / g).coefficients()) == schoolbook(
                f, QSeries(invert_loop(g)))

    def test_round_trips_at_order_300(self):
        e4 = eisenstein(4, 300)
        assert e4.log().exp() == e4
        # large common denominators: factorials in exp h, powers of 21 in f
        h = (e4 - 1) / 240
        assert h.exp().log() == h
        f = QSeries([1, Fraction(1, 3), Fraction(-2, 7)], order=300)
        assert f.log().exp() == f and f.invert().invert() == f


class TestErrors:
    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            QSeries([1], var="q") + QSeries([1], var="v")

    def test_shift_mismatch(self):
        with pytest.raises(ShiftMismatch):
            QSeries([1], shift=Fraction(1, 2)) + QSeries([1])
        with pytest.raises(ShiftMismatch):
            QSeries([1], shift=1) + 1

    def test_non_unit_inversion(self):
        with pytest.raises(NonUnitConstantTerm):
            QSeries([0, 1]).invert()
        with pytest.raises(NonUnitConstantTerm):
            QSeries([1, 2]) / QSeries([0, 1])
        with pytest.raises(NonUnitConstantTerm):
            QSeries([0, 1]) ** -1

    def test_exp_constant_term(self):
        with pytest.raises(NonzeroConstantTerm):
            QSeries([1, 1]).exp()
        with pytest.raises(ShiftMismatch):
            QSeries([0, 1], shift=1).exp()

    def test_log_constant_term(self):
        with pytest.raises(ConstantTermNotOne):
            QSeries([2, 1]).log()

    def test_q_d_dq_shift(self):
        with pytest.raises(ShiftMismatch):
            QSeries([1], shift=Fraction(1, 2)).q_d_dq()

    def test_truncate_cannot_extend(self):
        with pytest.raises(OrderExceeded):
            QSeries([1, 2]).truncate(5)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(25):
            f = rand_series(rng, rng.randint(0, 12),
                            shift=Fraction(rng.randint(-5, 5), 24))
            blob = json.dumps(f.to_json_dict(), sort_keys=True)
            g = QSeries.from_json_dict(json.loads(blob))
            assert g == f and g.order == f.order

    def test_schema_shape(self):
        d = QSeries([1, Fraction(-1, 8)], shift=Fraction(-1, 2)).to_json_dict()
        assert d == {
            "var": "q",
            "shift": ["-1", "2"],
            "order": 1,
            "coeffs": [["1", "1"], ["-1", "8"]],
        }

    def test_str(self):
        f = QSeries([1, -1, 1, Fraction(-1, 2), 0, 2, -3])
        assert str(f) == "1 - q + q^2 - 1/2*q^3 + 2*q^5 - 3*q^6 + O(q^7)"
        assert str(QSeries.zero(2)) == "0 + O(q^3)"
        g = QSeries([-1, 1, Fraction(1, 3)], shift=Fraction(1, 24))
        assert str(g) == "q^(1/24)*(-1 + q + 1/3*q^2 + O(q^3))"
        assert str(QSeries([0, -1], shift=-1)) == "q^(-1)*(-q + O(q^2))"
        assert str(QSeries([-1, Fraction(-3, 2)])) == "-1 - 3/2*q + O(q^2)"

    def test_absorb_shift(self):
        f = QSeries([1, 24], shift=1, order=1)
        g = f.absorb_shift()
        assert g.shift == 0 and g.coefficients() == (0, 1, 24)
        with pytest.raises(ShiftMismatch):
            QSeries([1], shift=Fraction(1, 2)).absorb_shift()

    def test_int_binomial(self):
        assert int_binomial(-12, 2) == 78
        assert int_binomial(5, 2) == 10
        assert int_binomial(-1, 3) == -1
