"""Truncated power series with exact rational coefficients.

A series is stored as coefficients c_0..c_N of a named variable together
with a global rational exponent ``shift``, representing

    q**shift * (c_0 + c_1*q + ... + c_N*q**N).

The shift carries fractional prefactors such as q**(1/24) through products
exactly; ring operations (exp, log, q*d/dq, addition of scalars) require a
zero shift.  All arithmetic is exact over ``fractions.Fraction``; nothing
here ever rounds.

Every operation runs on Python integers over common denominators.  A
product packs each operand's numerators into one integer and multiplies
once (Kronecker substitution, ``_product``).  Quotients, inverse, log and
exp are forward substitutions (``_substitute``), and infinite products
prod (1 - c*q**m)**e the logarithmic-derivative recurrence of
``_euler_product``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import index, mul
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


def _digits(value: int, width: int) -> list:
    """All signed digits of ``value`` as ``_pack`` wrote them: its bits and
    one more, rounded up to whole digits, so that the top digit is signed."""
    bits = 8 * width
    return _unpack(value, width, (abs(value).bit_length() + bits) // bits)


def _product(xs: list, ys: list) -> list:
    """The first n coefficients of xs*ys for integer lists of length n:
    one bigint product of the packed lists (Kronecker substitution).  The
    digits hold the operands too, also when the other one is zero."""
    n = len(xs)
    width = _width(max(1, *map(abs, xs)) * max(1, *map(abs, ys)) * n)
    return _unpack(_pack(xs, width) * _pack(ys, width), width, 2 * n - 1)[:n]


def _substitute(bs, ws, vs) -> list:
    """x_0..x_(n-1) with v_m*x_m = b_m - sum_{k=1..m} w_k*x_(m-k), for
    rationals b_m, w_k and nonzero v_m.  b and w are scaled to integers,
    and the x found so far are kept as integer numerators over their least
    common denominator, so each step is one integer inner product."""
    (bs, db), (ws, dw) = _scaled(bs), _scaled(ws)
    xs, den = [], 1
    for b, v in zip(bs, vs):
        s = b * dw * den - db * sum(map(mul, ws, reversed(xs)))
        x = Fraction(s * v.denominator, db * dw * den * v.numerator)
        if den % x.denominator:
            scale = x.denominator // gcd(den, x.denominator)
            xs = [y * scale for y in xs]
            den *= scale
        xs.append(x.numerator * (den // x.denominator))
    return [Fraction(y, den) for y in xs]


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
    t-polynomials at q**0..q**order: ``_euler_product`` at t = 2**(8*width).
    The majorant prod (1 - q**m)**(-|e|) bounds every t-coefficient."""
    majorant = _euler_product([(m, 1, -abs(e)) for m, _, _, e in factors],
                              order)
    width = _width(max(majorant))
    values = _euler_product([(m, s << (8 * width * a), e)
                             for m, a, s, e in factors], order)
    return [_digits(v, width) for v in values]


def _json_int(value) -> int:
    """An int from a decimal string, as ``to_json_dict`` writes it, or from
    an exact integer; a float raises TypeError instead of being truncated."""
    return int(value) if isinstance(value, str) else index(value)


def _signed_sum(terms) -> str:
    """The pairs (name, c), c != 0, as "c*name" joined by " + " or " - ",
    or "0"; |c| = 1 prints the name alone, an empty name |c| alone."""
    out = ""
    for name, c in terms:
        if c:
            m = abs(c)
            body = (name if m == 1 else f"{m}*{name}") if name else str(m)
            out += (" - " if c < 0 else " + ") + body
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


def _poly_str(coeffs, var: str) -> str:
    """The nonzero terms c*var^k of QSeries and BiSeries, or "0"."""
    names = ("", var, *(f"{var}^{k}" for k in range(2, len(coeffs))))
    return _signed_sum(zip(names, coeffs))


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
        order = index(order)
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
        n = min(self.order, g.order) + 1
        (xs, dx), (ys, dy) = _scaled(self.coeffs[:n]), _scaled(g.coeffs[:n])
        den = dx * dy
        return QSeries([Fraction(z, den) for z in _product(xs, ys)],
                       var=self.var, shift=self.shift + g.shift, order=n - 1)

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
        if g.coeffs[0] == 0:
            raise NonUnitConstantTerm("cannot invert: constant term is zero")
        n = min(self.order, g.order) + 1
        xs = _substitute(self.coeffs[:n], g.coeffs[1:n], [g.coeffs[0]] * n)
        return QSeries(xs, var=self.var, shift=self.shift - g.shift,
                       order=n - 1)

    def invert(self) -> "QSeries":
        """Multiplicative inverse; the constant term must be a unit.
        It is 1/self: one forward substitution over the integers."""
        return QSeries.one(self.order, var=self.var) / self

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
        """exp of a series with zero constant term and zero shift:
        g = exp h solves n*g_n = sum_{k=1..n} k*h_k*g_(n-k), g_0 = 1."""
        if self.shift != 0:
            raise ShiftMismatch("exp requires shift 0")
        if self.coeffs[0] != 0:
            raise NonzeroConstantTerm("exp requires constant term 0")
        khs = [-kh for kh in self.q_d_dq().coeffs[1:]]
        gs = _substitute([1] + [0] * self.order, khs,
                         [1, *range(1, self.order + 1)])
        return QSeries(gs, var=self.var, order=self.order)

    def log(self) -> "QSeries":
        """log of a series with constant term one and zero shift:
        the integral of (q*d/dq f) / f, one forward substitution."""
        if self.shift != 0:
            raise ShiftMismatch("log requires shift 0")
        if self.coeffs[0] != 1:
            raise ConstantTermNotOne("log requires constant term 1")
        d = (self.q_d_dq() / self).coeffs
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

    def __str__(self):
        body = _poly_str(self.coeffs, self.var)
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
        shift = Fraction(_json_int(data["shift"][0]),
                         _json_int(data["shift"][1]))
        coeffs = [Fraction(_json_int(num), _json_int(den))
                  for num, den in data["coeffs"]]
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
