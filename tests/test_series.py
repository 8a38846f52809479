"""Series-core tests: frozen oracles, ring-axiom properties, round trips."""

import copy
import inspect
import json
import pickle
import random
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest

from conftest import binomial
from enumgeo.invariants import SURFACES, goettsche_series
from enumgeo.modforms import eisenstein
from enumgeo.series import (
    BiSeries,
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
    _eta_power,
    _euler_product,
    _pack,
    _poly_str,
    _t_poly,
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


def signed_digits(value, base):
    """Oracle: the digits d_i of value = sum(d_i * base**i) in
    [-base/2, base/2), lowest first, found one at a time."""
    digits = []
    while value:
        d = value % base
        if d >= base // 2:
            d -= base
        digits.append(d)
        value = (value - d) // base
    return digits


def trimmed(poly):
    """poly without its trailing zeros."""
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    return poly


def binomial_product(exponent, order):
    """Oracle: prod (1 - q**m)**exponent(m), each factor expanded by the
    binomial theorem and multiplied in over the integers."""
    acc = [1] + [0] * order
    for m in range(1, order + 1):
        e = exponent(m)
        new = list(acc)
        for j in range(1, order // m + 1):
            c = (-1) ** j * binomial(e, j)
            for k in range(order - m * j + 1):
                new[k + m * j] += c * acc[k]
        acc = new
    return acc


def schoolbook(f, g):
    """Oracle: the truncated product by the plain double loop."""
    n = min(f.order, g.order)
    a, b = f.coefficients(), g.coefficients()
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
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

    def test_unhashable(self):
        # __eq__ compares up to the smaller order, so no hash can agree
        for f in (QSeries.one(2), BiSeries.one(2)):
            with pytest.raises(TypeError):
                hash(f)

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

    def test_negative_order_rejected(self):
        with pytest.raises(SeriesError) as exc:
            product_family(lambda m: 1, -1)
        assert exc.value.args == ("order must be >= 0, got -1",)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(TypeError):
            product_family(lambda m: 0.5, 4)

    def test_recurrence_raises_on_inexact_division(self):
        # integer factors always divide exactly; a half-integer c does not
        assert _euler_product([(1, 2, 1)], 3) == [1, -2, 0, 0]
        with pytest.raises(ArithmeticError):
            _euler_product([(1, Fraction(1, 2), 1)], 1)

    def test_unequal_exponents_match_euler_product(self):
        # unequal exponents bypass the pentagonal kernel
        for order in (2, 5, 30, 100):
            f = product_family(lambda m: m % 3 - 1, order)
            factors = [(m, 1, m % 3 - 1) for m in range(1, order + 1)]
            assert f.coefficients() == tuple(_euler_product(factors, order))

    def test_non_integer_exponent_after_equal_ints_rejected(self):
        with pytest.raises(TypeError, match=r"exponent\(4\) = Fraction"):
            product_family(lambda m: 2 if m < 4 else Fraction(5, 2), 6)

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


class TestEtaPower:
    @pytest.mark.parametrize("e", [-24, -12, -1, 0, 8, 24])
    @pytest.mark.parametrize("order", [0, 1, 30, 200, 600])
    def test_matches_euler_product(self, e, order):
        factors = [(m, 1, e) for m in range(1, order + 1)]
        assert _eta_power(e, order) == _euler_product(factors, order)


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

    def test_t_poly_matches_digit_decode(self):
        # the top digit is negative, so the value's sign sits in a digit of
        # its own; [0, 1, -1] at width 1 is -65280, whose 16 bits fill two
        # digits exactly
        rng = random.Random(1)
        cases = [([0, 1, -1], 1), ([-128], 1), ([5, -3], 1)]
        for width in (1, 2, 3):
            half = 1 << (8 * width - 1)
            for _ in range(100):
                digits = [rng.randint(-half, half - 1)
                          for _ in range(rng.randint(0, 6))]
                cases.append((digits + [-rng.randint(1, half)], width))
        for digits, width in cases:
            base = 1 << (8 * width)
            value = sum(d * base ** i for i, d in enumerate(digits))
            assert (trimmed(_t_poly(value, width))
                    == signed_digits(value, base)), digits

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


class TestCopyAndPickle:
    ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                   "pickle": lambda f: pickle.loads(pickle.dumps(f)),
                   **{f"pickle-{p}": lambda f, p=p: pickle.loads(
                       pickle.dumps(f, protocol=p))
                      for p in range(6)}}

    @pytest.mark.parametrize("how", list(ROUND_TRIPS))
    @pytest.mark.parametrize("make", [
        lambda: QSeries([1, -2, Fraction(3, 5)], var="x",
                        shift=Fraction(1, 24)),
        lambda: goettsche_series(SURFACES["k3"](), 6),
    ], ids=["qseries-x-shift", "goettsche-k3-6"])
    def test_round_trip(self, make, how):
        f = make()
        g = self.ROUND_TRIPS[how](f)
        assert type(g) is type(f) and g == f
        for name in type(f).__slots__:
            assert getattr(g, name) == getattr(f, name), name
        with pytest.raises(AttributeError) as exc:
            g.order = 3
        assert exc.value.args == (f"{type(f).__name__} is immutable",)


class TestErrorPaths:
    @pytest.mark.parametrize("call, cls, message", [
        (lambda: QSeries.gen(0), SeriesError, "gen needs order >= 1"),
        (lambda: QSeries([1, 2]) / 0,
         ZeroDivisionError, "division of a series by zero"),
        (lambda: QSeries([1, 2], shift=1).log(),
         ShiftMismatch, "log requires shift 0"),
        (lambda: QSeries([1]) + "x", TypeError,
         "unsupported operand type(s) for +: 'QSeries' and 'str'"),
        (lambda: QSeries([1]) - "x", TypeError,
         "unsupported operand type(s) for -: 'QSeries' and 'str'"),
        (lambda: "x" - QSeries([1]), TypeError,
         "unsupported operand type(s) for -: 'str' and 'QSeries'"),
        (lambda: QSeries([1]) * "x", TypeError,
         "can't multiply sequence by non-int of type 'QSeries'"),
        (lambda: QSeries([1]) / "x", TypeError,
         "unsupported operand type(s) for /: 'QSeries' and 'str'"),
        (lambda: QSeries([1]) ** "x", TypeError,
         "unsupported operand type(s) for ** or pow(): 'QSeries' and 'str'"),
        (lambda: BiSeries.one(2) * 2, TypeError,
         "unsupported operand type(s) for *: 'BiSeries' and 'int'"),
        (lambda: setattr(BiSeries.one(2), "order", 3),
         AttributeError, "BiSeries is immutable"),
        (lambda: int_binomial(3, -1),
         ValueError, "lower index must be non-negative"),
        (lambda: QSeries.from_json_dict(
            {"var": "q", "shift": ["0", "0"], "order": 0,
             "coeffs": [["1", "1"]]}),
         SeriesError, "shift has denominator 0"),
        (lambda: QSeries.from_json_dict(
            {"var": "q", "shift": ["0", "1"], "order": 1,
             "coeffs": [["1", "1"], ["1", "0"]]}),
         SeriesError, "coeffs[1] has denominator 0"),
        (lambda: QSeries([1, 2, 3], var=""),
         SeriesError, "var must not be empty"),
        (lambda: QSeries([1, 2, 3], var=None),
         TypeError, "var must be a str, got NoneType"),
        (lambda: QSeries.one(3, var=b"q"),
         TypeError, "var must be a str, got bytes"),
        (lambda: BiSeries([(1,), (0, 1)], var_q=""),
         SeriesError, "var_q must not be empty"),
        (lambda: BiSeries([(1,), (0, 1)], var_t=None),
         TypeError, "var_t must be a str, got NoneType"),
        (lambda: BiSeries([(1,), (0, 1)], var_q="t", var_t="t"),
         SeriesError, "var_q and var_t must differ, both are 't'"),
        (lambda: product_family(lambda m: -1, 3, var=""),
         SeriesError, "var must not be empty"),
        (lambda: product_family(lambda m: -1, 3, var=7),
         TypeError, "var must be a str, got int"),
        (lambda: QSeries.from_json_dict(
            {"var": "", "shift": ["0", "1"], "order": 0,
             "coeffs": [["1", "1"]]}),
         SeriesError, "var must not be empty"),
        (lambda: BiSeries.from_json_dict(
            {"var_q": "q", "var_t": None, "order": 0, "coeffs": [["1"]]}),
         TypeError, "var_t must be a str, got NoneType"),
        (lambda: QSeries([1, 2, 3], var="q^2"),
         SeriesError, "var must be an identifier, got 'q^2'"),
        (lambda: BiSeries([(1,), (0, 1)], var_t="t 1"),
         SeriesError, "var_t must be an identifier, got 't 1'"),
        (lambda: product_family(lambda m: -1, 3, var="2*q"),
         SeriesError, "var must be an identifier, got '2*q'"),
        (lambda: QSeries.from_json_dict(
            {"var": "-q", "shift": ["0", "1"], "order": 0,
             "coeffs": [["1", "1"]]}),
         SeriesError, "var must be an identifier, got '-q'"),
    ], ids=["gen-order-0", "divide-by-0", "log-shifted", "add-str",
            "sub-str", "str-sub", "mul-str", "div-str", "pow-str",
            "biseries-mul-int", "biseries-setattr", "int-binomial-j-neg",
            "json-shift-den-0", "json-coeff-den-0", "var-empty", "var-none",
            "var-bytes", "biseries-var-q-empty", "biseries-var-t-none",
            "biseries-same-vars",
            "product-family-var-empty", "product-family-var-int",
            "json-var-empty", "biseries-json-var-t-none", "var-power",
            "biseries-var-t-space", "product-family-var-product",
            "json-var-signed"])
    def test_raises(self, call, cls, message):
        with pytest.raises(cls) as exc:
            call()
        assert type(exc.value) is cls and exc.value.args == (message,)

    @pytest.mark.parametrize("call, want", [
        (lambda: repr(QSeries.gen(3)),
         "QSeries('q', order=3, shift=0, coeffs=(0, 1, 0, 0))"),
        (lambda: repr(QSeries.constant(3, 9)),
         "QSeries('q', order=9, shift=0, coeffs=(3, 0, 0, 0, 0, 0, 0, 0, ...))"),
        (lambda: repr(1 - QSeries([1, 2], order=2)),
         "QSeries('q', order=2, shift=0, coeffs=(0, -2, 0))"),
        (lambda: QSeries([1]) == "x", False),
        (lambda: BiSeries.one(2) == 1, False),
    ], ids=["gen-3", "constant-order-9", "int-minus-series", "eq-str",
            "biseries-eq-int"])
    def test_edge_values(self, call, want):
        assert call() == want


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


# -- the Fraction implementation, kept as the oracle of the integer one ------

class FractionSeries:
    """A truncated series as a tuple of Fractions, every operation written
    with the textbook loops above: the double loop multiplies, the
    recurrences invert, exp and log, and poly_str_replace prints.  It
    imports nothing from enumgeo.  Only what the differential tests call
    is kept."""

    def __init__(self, coeffs, var="q", shift=0):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        self.var, self.shift = var, Fraction(shift)
        self.order = len(self.coeffs) - 1

    def coefficients(self):
        return self.coeffs

    def _new(self, coeffs, shift=0):
        return FractionSeries(coeffs, self.var, shift)

    def _coerce(self, other):
        if isinstance(other, FractionSeries):
            return other
        return self._new([other] + [0] * self.order)

    def truncate(self, order):
        return self._new(self.coeffs[:order + 1], self.shift)

    def with_shift(self, shift):
        return self._new(self.coeffs, shift)

    def absorb_shift(self):
        return self._new((Fraction(0),) * int(self.shift) + self.coeffs)

    def __add__(self, other):
        g = self._coerce(other)
        assert self.shift == g.shift
        n = min(self.order, g.order)
        return self._new([self.coeffs[k] + g.coeffs[k] for k in range(n + 1)],
                         self.shift)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self.coeffs], self.shift)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) + -self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._new([other * c for c in self.coeffs], self.shift)
        return self._new(schoolbook(self, other), self.shift + other.shift)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.invert()

    def invert(self):
        return self._new(invert_loop(self), -self.shift)

    def __pow__(self, e):
        if e == 0:
            return self._new([1] + [0] * self.order)
        base = self.invert() if e < 0 else self
        result = base
        for _ in range(abs(e) - 1):
            result = result * base
        return result

    def exp(self):
        return self._new(exp_loop(self))

    def log(self):
        return self._new(log_loop(self))

    def q_d_dq(self):
        return self._new([k * c for k, c in enumerate(self.coeffs)])

    def __str__(self):
        body = (f"{poly_str_replace(self.coeffs, self.var)}"
                f" + O({self.var}^{self.order + 1})")
        return f"{self.var}^({self.shift})*({body})" if self.shift else body

    def __repr__(self):
        cs = ", ".join(str(c) for c in self.coeffs[:8])
        if self.order >= 8:
            cs += ", ..."
        return (f"QSeries({self.var!r}, order={self.order}, "
                f"shift={self.shift}, coeffs=({cs}))")

    def to_json_dict(self):
        return {"var": self.var,
                "shift": [str(self.shift.numerator),
                          str(self.shift.denominator)],
                "order": self.order,
                "coeffs": [[str(c.numerator), str(c.denominator)]
                           for c in self.coeffs]}


def oracle_rational(rng):
    """Zero, small, or huge, over 1, a small or a huge denominator."""
    roll = rng.random()
    if roll < 0.2:
        return Fraction(0)
    num = (rng.randint(-9, 9) if roll < 0.7
           else rng.choice((-1, 1)) * rng.getrandbits(rng.choice((64, 200))))
    return Fraction(num, rng.choice((1, 1, 2, 3, 12, 35, 2 ** 61 - 1,
                                     rng.getrandbits(90) | 1)))


def oracle_pair(rng, order, var, shift=0, c0=None):
    """One random series as a QSeries and as a FractionSeries."""
    cs = [oracle_rational(rng) for _ in range(order + 1)]
    if c0 == "unit":
        while not cs[0]:
            cs[0] = oracle_rational(rng)
    elif c0 is not None:
        cs[0] = Fraction(c0)
    return (QSeries(cs, var=var, shift=shift),
            FractionSeries(cs, var=var, shift=shift))


def oracle_shift(rng):
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 24)))


#: name -> (operation, what its operands need), run on both implementations
ORACLE_OPS = {
    "add": (lambda f, g: f + g, "same-shift"),
    "sub": (lambda f, g: f - g, "same-shift"),
    "mul": (lambda f, g: f * g, "two"),
    "div": (lambda f, g: f / g, "unit-divisor"),
    "neg": (lambda f: -f, "any"),
    "add-int": (lambda f: f + 3, "unshifted"),
    "int-sub": (lambda f: 2 - f, "unshifted"),
    "scalar-mul": (lambda f: Fraction(-7, 12) * f, "any"),
    "scalar-mul-0": (lambda f: f * 0, "any"),
    "scalar-div": (lambda f: f / Fraction(5, 3), "any"),
    "invert": (lambda f: f.invert(), "unit"),
    "pow-3": (lambda f: f ** 3, "any"),
    "pow-minus-2": (lambda f: f ** -2, "small-unit"),
    "exp": (lambda f: f.exp(), "c0=0"),
    "log": (lambda f: f.log(), "c0=1"),
    "q_d_dq": (lambda f: f.q_d_dq(), "unshifted"),
    "truncate": (lambda f: f.truncate(f.order // 2), "any"),
    "with_shift": (lambda f: f.with_shift(Fraction(-3, 8)), "any"),
    "absorb_shift": (lambda f: f.absorb_shift(), "whole-shift"),
}


def oracle_operands(rng, needs):
    """The operands of one case: a list of (QSeries, FractionSeries)."""
    var, order, shift = rng.choice("qx"), rng.randint(0, 60), oracle_shift(rng)
    if needs in ("c0=0", "c0=1", "unshifted"):
        # order <= 30 keeps the Fraction oracle of exp and log quick
        c0 = {"c0=0": 0, "c0=1": 1}.get(needs)
        return [oracle_pair(rng, rng.randint(0, 30), var, 0, c0)]
    if needs == "small-unit":
        # order <= 20 keeps 1/f**2 within str's 4300-digit limit
        return [oracle_pair(rng, rng.randint(0, 20), var, shift, "unit")]
    if needs == "whole-shift":
        return [oracle_pair(rng, order, var, rng.randint(0, 4))]
    if needs in ("any", "unit"):
        return [oracle_pair(rng, order, var, shift,
                            "unit" if needs == "unit" else None)]
    return [oracle_pair(rng, order, var, shift),
            oracle_pair(rng, rng.randint(0, 60), var,
                        shift if needs == "same-shift" else oracle_shift(rng),
                        "unit" if needs == "unit-divisor" else None)]


class TestFractionOracle:
    """Every operation of the integer-backed QSeries against FractionSeries,
    textbook Fraction code that shares no kernel with it, on seeded random
    series of orders 0-60 with zero, negative, 200-bit and
    non-unit-denominator coefficients and nonzero shifts."""

    def test_oracle_imports_nothing_from_enumgeo(self, enumgeo_reads):
        methods = [f for f in vars(FractionSeries).values()
                   if inspect.isfunction(f)]
        assert enumgeo_reads(*methods) == set()

    @pytest.mark.parametrize("name", list(ORACLE_OPS))
    def test_matches(self, name):
        op, needs = ORACLE_OPS[name]
        rng = random.Random(f"oracle:{name}")
        for _ in range(12):
            operands = oracle_operands(rng, needs)
            got = op(*(new for new, _ in operands))
            want = op(*(old for _, old in operands))
            assert type(got) is QSeries
            assert (got.var, got.order) == (want.var, want.order)
            assert type(got.shift) is Fraction and got.shift == want.shift
            assert got.coefficients() == got.coeffs == want.coeffs
            assert all(type(c) is Fraction for c in got.coeffs)
            k = rng.randint(0, got.order)
            assert type(got.coefficient(k)) is Fraction
            assert got.coefficient(k) == want.coeffs[k]
            # one denominator, the least one
            assert got._den == lcm(*(c.denominator for c in want.coeffs))
            assert gcd(got._den, *got._nums) == 1
            assert got.to_json_dict() == want.to_json_dict()
            assert (str(got), repr(got)) == (str(want), repr(want))

    @pytest.mark.parametrize("how", list(TestCopyAndPickle.ROUND_TRIPS))
    def test_results_round_trip(self, how):
        rng = random.Random(f"round-trip:{how}")
        for op, needs in ORACLE_OPS.values():
            got = op(*(new for new, _ in oracle_operands(rng, needs)))
            back = TestCopyAndPickle.ROUND_TRIPS[how](got)
            assert type(back) is QSeries and back == got
            assert (back._nums, back._den, back.shift, back.var,
                    back.order) == (got._nums, got._den, got.shift, got.var,
                                    got.order)
            assert back.to_json_dict() == got.to_json_dict()
