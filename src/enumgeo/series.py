"""Truncated power series with exact rational coefficients.

A series is stored as coefficients c_0..c_N of a named variable together
with a global rational exponent ``shift``, representing

    q**shift * (c_0 + c_1*q + ... + c_N*q**N).

The shift carries fractional prefactors such as q**(1/24) through products
exactly; ring operations (exp, log, q*d/dq, addition of scalars) require a
zero shift.  All arithmetic is exact over ``fractions.Fraction``; nothing
here ever rounds.

Products run on Python integers.  A product of two series packs each
operand's numerators over their common denominator into one integer and
multiplies once (Kronecker substitution).  Inverse, exp and log are
compositions of that product: Newton iterations that double the
precision each step (Brent & Kung, J. ACM 25, 1978).  Infinite products
prod (1 - c*q**m)**e follow the logarithmic-derivative recurrence over Z.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Callable, Iterable, Union

Rational = Union[int, Fraction]


class SeriesError(ValueError):
    """Base class for series-arithmetic errors."""


class VariableMismatch(SeriesError):
    """Operands use different variable names."""


class ShiftMismatch(SeriesError):
    """Addition of series whose exponent shifts differ."""


class NonUnitConstantTerm(SeriesError):
    """Inversion (or a negative power) of a series with c_0 = 0."""


class NonzeroConstantTerm(SeriesError):
    """exp() of a series whose constant term is not zero."""


class ConstantTermNotOne(SeriesError):
    """log() of a series whose constant term is not one."""


class OrderExceeded(SeriesError):
    """Coefficient index outside the stored truncation order."""


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _scaled(coeffs) -> tuple:
    """Integer numerators over the lcm of the denominators, and that lcm."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _width(bound: int) -> int:
    """Bytes per digit for signed digits of absolute value <= bound."""
    return bound.bit_length() // 8 + 1


def _bias(width: int, count: int) -> int:
    """Adding this makes ``count`` signed digits non-negative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(digits: list, width: int) -> int:
    """sum(d_i * 2**(8*width*i)) for signed digits |d_i| < 2**(8*width-1)."""
    half = 1 << (8 * width - 1)
    data = b"".join((d + half).to_bytes(width, "little") for d in digits)
    return int.from_bytes(data, "little") - _bias(width, len(digits))


def _unpack(value: int, width: int, count: int) -> list:
    """Inverse of ``_pack``: the ``count`` signed digits of ``value``;
    ``to_bytes`` raises OverflowError when they cannot hold it."""
    data = (value + _bias(width, count)).to_bytes(width * count, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, width * count, width)]


def _euler_product(factors: Iterable, order: int) -> list:
    """f_0..f_order of prod (1 - c*q**m)**e over integer (m, c, e), m >= 1,
    by n*f_n = sum_{k=1..n} g_k*f_{n-k}, g_k = -sum_{m|k} m*e*c**(k/m)."""
    g = [0] * (order + 1)
    for m, c, e in factors:
        power = 1
        for k in range(m, order + 1, m):
            power *= c
            g[k] -= m * e * power
    f = [1]
    for n in range(1, order + 1):
        fn, rem = divmod(sum(map(mul, g[1:n + 1], reversed(f))), n)
        if rem:
            raise ArithmeticError(f"inexact division by {n} at q^{n}")
        f.append(fn)
    return f


def _euler_product_t(factors: list, order: int) -> list:
    """prod (1 - s*t**a*q**m)**e over (m, a, s, e), s = +-1, as integer
    t-polynomials at q**0..q**order, by ``_euler_product`` at t = 2**bits.
    The majorant prod (1 - q**m)**(-|e|) bounds every t-coefficient."""
    majorant = _euler_product([(m, 1, -abs(e)) for m, _, _, e in factors],
                              order)
    width = _width(max(majorant))
    bits = 8 * width
    values = _euler_product([(m, s << (bits * a), e)
                             for m, a, s, e in factors], order)
    # ceil((bit_length + 1) / bits) digits: the top digit is signed
    return [_unpack(v, width, (abs(v).bit_length() + bits) // bits)
            for v in values]


class QSeries:
    """An exact truncated power series q**shift * sum(c_k q**k, k=0..order)."""

    __slots__ = ("var", "order", "shift", "coeffs")

    def __init__(self, coeffs: Iterable[Rational], var: str = "q",
                 shift: Rational = 0, order: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if order is None:
            if not cs:
                raise SeriesError("empty coefficient list and no order given")
            order = len(cs) - 1
        if order < 0:
            raise SeriesError(f"order must be >= 0, got {order}")
        if len(cs) > order + 1:
            raise SeriesError(
                f"{len(cs)} coefficients exceed order {order}; truncate explicitly")
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "shift", _as_fraction(shift))
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int, var: str = "q") -> "QSeries":
        return cls([0], var=var, order=order)

    @classmethod
    def one(cls, order: int, var: str = "q") -> "QSeries":
        return cls([1], var=var, order=order)

    @classmethod
    def constant(cls, value: Rational, order: int, var: str = "q") -> "QSeries":
        return cls([value], var=var, order=order)

    @classmethod
    def gen(cls, order: int, var: str = "q") -> "QSeries":
        """The variable itself, truncated at the given order."""
        if order < 1:
            raise SeriesError("gen needs order >= 1")
        return cls([0, 1], var=var, order=order)

    # -- basic access ------------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of q**(shift + k); raises OrderExceeded outside 0..order."""
        if k < 0 or k > self.order:
            raise OrderExceeded(
                f"coefficient {k} requested, stored order is {self.order}")
        return self.coeffs[k]

    def coefficients(self) -> tuple:
        return self.coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncate(self, order: int) -> "QSeries":
        """Drop to a smaller order; extension is never silent."""
        if order > self.order:
            raise OrderExceeded(
                f"cannot extend order {self.order} to {order}")
        return QSeries(self.coeffs[: order + 1], var=self.var,
                       shift=self.shift, order=order)

    def with_shift(self, shift: Rational) -> "QSeries":
        """Same coefficients, different exponent shift."""
        return QSeries(self.coeffs, var=self.var, shift=shift, order=self.order)

    def absorb_shift(self) -> "QSeries":
        """Fold a non-negative integer shift into the coefficient array."""
        if self.shift.denominator != 1 or self.shift < 0:
            raise ShiftMismatch(
                f"cannot absorb shift {self.shift} into integer exponents")
        s = int(self.shift)
        return QSeries((Fraction(0),) * s + self.coeffs, var=self.var,
                       shift=0, order=self.order + s)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QSeries):
            if other.var != self.var:
                raise VariableMismatch(f"{self.var!r} vs {other.var!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return QSeries([other], var=self.var, order=self.order)
        return None

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if self.shift != g.shift:
            raise ShiftMismatch(f"{self.shift} vs {g.shift}")
        n = min(self.order, g.order)
        return QSeries([self.coeffs[k] + g.coeffs[k] for k in range(n + 1)],
                       var=self.var, shift=self.shift, order=n)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], var=self.var,
                       shift=self.shift, order=self.order)

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self.__add__(-g)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g.__add__(-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return QSeries([c * x for x in self.coeffs], var=self.var,
                           shift=self.shift, order=self.order)
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        # Kronecker substitution: one bigint product of the packed numerators;
        # the digits hold the operands too, also when the other one is zero
        n = min(self.order, g.order) + 1
        (xs, dx), (ys, dy) = _scaled(self.coeffs[:n]), _scaled(g.coeffs[:n])
        width = _width(max(1, *map(abs, xs)) * max(1, *map(abs, ys)) * n)
        zs = _unpack(_pack(xs, width) * _pack(ys, width), width, 2 * n - 1)
        den = dx * dy
        return QSeries([Fraction(z, den) for z in zs[:n]], var=self.var,
                       shift=self.shift + g.shift, order=n - 1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("division of a series by zero")
            return self * (1 / c)
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self * g.invert()

    def invert(self) -> "QSeries":
        """Multiplicative inverse; the constant term must be a unit.
        Newton doubling b <- b*(2 - a*b) from b = 1/a_0."""
        if self.coeffs[0] == 0:
            raise NonUnitConstantTerm("cannot invert: constant term is zero")
        b = QSeries([1 / self.coeffs[0]], var=self.var, shift=-self.shift)
        while b.order < self.order:
            m = min(2 * b.order + 1, self.order)
            b = QSeries(b.coeffs, var=self.var, shift=b.shift, order=m)
            b = b * (2 - self.truncate(m) * b)
        return b

    def __pow__(self, e: int) -> "QSeries":
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return QSeries.one(self.order, var=self.var)
        base = self.invert() if e < 0 else self
        k = abs(e)
        result = None
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- transcendental maps -----------------------------------------------

    def exp(self) -> "QSeries":
        """exp of a series with zero constant term and zero shift.
        Newton doubling g <- g*(1 + f - log g) from g = 1."""
        if self.shift != 0:
            raise ShiftMismatch("exp requires shift 0")
        if self.coeffs[0] != 0:
            raise NonzeroConstantTerm("exp requires constant term 0")
        g = QSeries.one(0, var=self.var)
        while g.order < self.order:
            m = min(2 * g.order + 1, self.order)
            g = QSeries(g.coeffs, var=self.var, order=m)
            g = g * (1 + self.truncate(m) - g.log())
        return g

    def log(self) -> "QSeries":
        """log of a series with constant term one and zero shift:
        the integral of (q*d/dq f) / f."""
        if self.shift != 0:
            raise ShiftMismatch("log requires shift 0")
        if self.coeffs[0] != 1:
            raise ConstantTermNotOne("log requires constant term 1")
        d = (self.q_d_dq() * self.invert()).coeffs
        return QSeries([0] + [c / k for k, c in enumerate(d[1:], 1)],
                       var=self.var, order=self.order)

    def q_d_dq(self) -> "QSeries":
        """The operator q*d/dq: c_k -> k*c_k.  Needs shift 0."""
        if self.shift != 0:
            raise ShiftMismatch("q*d/dq requires shift 0")
        return QSeries([k * c for k, c in enumerate(self.coeffs)],
                       var=self.var, order=self.order)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.var != other.var or self.shift != other.shift:
            return False
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None

    def _term(self, k: int, c: Fraction) -> str:
        if k == 0:
            return str(c)
        v = self.var if k == 1 else f"{self.var}^{k}"
        if c == 1:
            return v
        if c == -1:
            return f"-{v}"
        return f"{c}*{v}"

    def __str__(self):
        terms = [self._term(k, c) for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        body = f"{body} + O({self.var}^{self.order + 1})"
        if self.shift:
            return f"{self.var}^({self.shift})*({body})"
        return body

    def __repr__(self):
        cs = ", ".join(str(c) for c in self.coeffs[:8])
        if self.order >= 8:
            cs += ", ..."
        return (f"QSeries({self.var!r}, order={self.order}, "
                f"shift={self.shift}, coeffs=({cs}))")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: numerator/denominator pairs as decimal strings."""
        return {
            "var": self.var,
            "shift": [str(self.shift.numerator), str(self.shift.denominator)],
            "order": self.order,
            "coeffs": [[str(c.numerator), str(c.denominator)]
                       for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QSeries":
        shift = Fraction(int(data["shift"][0]), int(data["shift"][1]))
        coeffs = [Fraction(int(num), int(den)) for num, den in data["coeffs"]]
        return cls(coeffs, var=data["var"], shift=shift, order=data["order"])


def int_binomial(e: int, j: int) -> int:
    """binomial(e, j) for any integer e, non-negative j."""
    if j < 0:
        raise ValueError("lower index must be non-negative")
    if e >= 0:
        return comb(e, j)
    return (-1) ** j * comb(-e + j - 1, j)


def product_family(exponent: Callable[[int], int], order: int,
                   var: str = "q") -> QSeries:
    """prod_{m=1..order} (1 - q**m)**exponent(m), truncated at ``order``.

    The factors are expanded together by the integer logarithmic-derivative
    recurrence of ``_euler_product``; exponents must be integers.
    """
    if order < 0:
        raise SeriesError(f"order must be >= 0, got {order}")
    factors = []
    for m in range(1, order + 1):
        e = exponent(m)
        if not isinstance(e, int):
            raise TypeError(f"exponent({m}) = {e!r} is not an integer")
        factors.append((m, 1, e))
    return QSeries(_euler_product(factors, order), var=var, order=order)
