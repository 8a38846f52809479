"""Truncated power series with exact rational coefficients.

A series is c_0..c_N in a named variable together with a global rational
exponent ``shift``, representing

    q**shift * (c_0 + c_1*q + ... + c_N*q**N).

The shift carries fractional prefactors such as q**(1/24) through products
exactly; ring operations (exp, log, q*d/dq, addition of scalars) require a
zero shift.  All arithmetic is exact; nothing here ever rounds.

A ``QSeries`` stores c_k = n_k / d: integer numerators n_0..n_N over one
denominator d > 0, reduced so that gcd(d, n_0, ..., n_N) = 1.  Every
operation runs on those integers and reduces its result with one gcd.
``Fraction`` objects exist only at the API edge: ``coeffs`` and
``coefficients()`` build a tuple of them, ``coefficient(k)`` one, and
``str`` and ``repr`` print them; ``to_json_dict`` writes each n_k / d in
lowest terms by one gcd, without them.  The public constructor takes ints
and Fractions and checks them; integer producers, such as
``product_family``, ``modforms.eisenstein`` and ``BiSeries.eval_t``, hand
their numerators to the trusted ``QSeries._from_ints``.

A product packs each operand's numerators into one integer and multiplies
once (Kronecker substitution, ``_product``).  Quotients, inverse, log and
exp are forward substitutions (``_substitute``).  A power of Euler's
function prod (1 - q**m)**e comes from the pentagonal series
(``_eta_power``), and any other infinite product prod (1 - c*q**m)**e
from the logarithmic-derivative recurrence of ``_euler_product``.

``BiSeries`` is a q-series whose coefficients are integer polynomials in a
second variable t, as Göttsche's product is.  Its product and
``_euler_product_t`` pack each t-polynomial into one integer, digit i
holding the coefficient of t**i, and read it back with ``_t_poly``; no
other module knows that packed format.  The
Göttsche product of Betti numbers (1, 0, b2, 0, 1) needs no packing:
``invariants`` builds it from an Appell-Lerch sum and ``_eta_power``;
every other Betti vector keeps the packed ``_euler_product_t``.  Kernel
rows reach ``BiSeries`` through the trusted ``BiSeries._from_rows``, which
only trims them; the public constructor checks every coefficient.

Both classes derive from ``_Frozen``: they are immutable and unhashable,
compare equal up to the smaller order, and copy, deepcopy and pickle.
They raise ``SeriesError`` (a ``ValueError``) subclasses:
``OrderExceeded``, also an ``IndexError``, for a coefficient outside the
stored order, and ``VariableMismatch`` for operands in other variables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import index, mul
from typing import Callable, Iterable, Sequence, Union

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


class OrderExceeded(SeriesError, IndexError):
    """Coefficient index outside the stored truncation order."""


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _scaled(coeffs) -> tuple:
    """Integer numerators over the lcm of the denominators, and that lcm."""
    # star-arguments from a set, not a generator: CPython resizes a tuple
    # built from a generator, and a freed resized tuple of 20 items or
    # fewer stays in the free list of its size until a full garbage
    # collection, which integer code seldom triggers, so RSS would grow
    den = lcm(*{c.denominator for c in coeffs})
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


def _product(xs: list, ys: list) -> list:
    """The first n coefficients of xs*ys for integer lists of length n:
    one bigint product of the packed lists (Kronecker substitution).  The
    digits hold the operands too, also when the other one is zero."""
    n = len(xs)
    width = _width(max(1, max(map(abs, xs))) * max(1, max(map(abs, ys)))
                   * n)        # no star-arguments: see _scaled
    return _unpack(_pack(xs, width) * _pack(ys, width), width, 2 * n - 1)[:n]


def _substitute(bs, ws, vs) -> tuple:
    """(xs, den): x_0..x_(n-1) with v_m*x_m = b_m - sum_{k=1..m} w_k*x_(m-k),
    for integers b_m, w_k and nonzero v_m, as integer numerators xs over
    their least common denominator den, up to sign, so each step is one
    integer inner product."""
    xs, den = [], 1
    for b, v in zip(bs, vs):
        s = b * den - sum(map(mul, ws, reversed(xs)))
        g = gcd(s, den * v)
        d = den * v // g        # x_m = (s // g) / d in lowest terms
        if den % d:
            scale = d // gcd(den, d)
            xs = [y * scale for y in xs]
            den *= scale
        xs.append(s // g * (den // d))
    return xs, den


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


def _eta_power(e: int, order: int) -> list:
    """f_0..f_order of prod (1 - q**m)**e for an integer e.  Euler's
    pentagonal theorem gives the O(sqrt(order)) nonzero terms p_k of
    prod (1 - q**m) = sum_j (-1)**j q**(j(3j-1)/2), j in Z, and
    J. C. P. Miller's power recurrence
    n*f_n = sum_k ((e + 1)*k - n)*p_k*f_(n-k) divides exactly by n."""
    pentagonal = []
    j = 1
    while (k := j * (3 * j - 1) // 2) <= order:
        sign = -1 if j % 2 else 1
        pentagonal += [(k, sign), (k + j, sign)]
        j += 1
    f = [1]
    for n in range(1, order + 1):
        s = 0
        for k, p in pentagonal:
            if k > n:
                break
            s += ((e + 1) * k - n) * p * f[n - k]
        f.append(s // n)
    return f


def _t_poly(value: int, width: int) -> list:
    """The t-polynomial sum(d_i * t**i) of the signed digits d_i that
    ``_pack`` wrote into ``value``: all its bits and one more, rounded up
    to whole digits, so that the top digit is signed."""
    bits = 8 * width
    return _unpack(value, width, (abs(value).bit_length() + bits) // bits)


def _euler_product_t(factors: list, order: int) -> list:
    """prod (1 - s*t**a*q**m)**e over (m, a, s, e), s = +-1, as integer
    t-polynomials at q**0..q**order: ``_euler_product`` at
    t = 2**(8*width), read back digit by digit.  Every t-coefficient is
    bounded by that of prod (1 - q**m)**(-|e|), hence by the majorant
    prod (1 - q**m)**(-E), E the largest sum of the |e| that share an m:
    (1 - q**m)**(-1) has non-negative coefficients."""
    sums = {}
    for m, _, _, e in factors:
        sums[m] = sums.get(m, 0) + abs(e)
    majorant = _eta_power(-max(sums.values(), default=0), order)
    width = _width(max(majorant))
    values = _euler_product([(m, s << (8 * width * a), e)
                             for m, a, s, e in factors], order)
    return [_t_poly(v, width) for v in values]


def _json_int(value) -> int:
    """An int from a decimal string, as ``to_json_dict`` writes it, or from
    an exact integer; a float raises TypeError instead of being truncated."""
    return int(value) if isinstance(value, str) else index(value)


def _json_fraction(num, den, field: str) -> Fraction:
    """num/den of two ``_json_int`` values; den = 0 names ``field``."""
    num, den = _json_int(num), _json_int(den)
    if not den:
        raise SeriesError(f"{field} has denominator 0")
    return Fraction(num, den)


def _check_name(name, field: str) -> None:
    """Refuse a variable name the printers would misstate: TypeError
    unless it is a str, SeriesError if it is empty or not an identifier."""
    if not isinstance(name, str):
        raise TypeError(f"{field} must be a str, got {type(name).__name__}")
    if not name:
        raise SeriesError(f"{field} must not be empty")
    if not name.isidentifier():
        raise SeriesError(f"{field} must be an identifier, got {name!r}")


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


def _padded(items: list, order: int | None, fill) -> list:
    """``items`` padded with ``fill`` to ``order + 1`` entries (to their own
    length if ``order`` is None); SeriesError if that cannot be done."""
    if order is None:
        if not items:
            raise SeriesError("empty coefficient list and no order given")
        order = len(items) - 1
    order = index(order)
    if order < 0:
        raise SeriesError(f"order must be >= 0, got {order}")
    if len(items) > order + 1:
        raise SeriesError(f"{len(items)} coefficients exceed order {order}; "
                          "truncate explicitly")
    return items + [fill] * (order + 1 - len(items))


class _Frozen:
    """An immutable series of coefficients 0..order in the variables named
    by ``_names``; equal up to the smaller order, so no hash can agree.
    ``_at(k)`` is coefficient k and ``_head(n)`` a canonical form of
    coefficients 0..n-1."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getstate__(self):
        """(None, {slot: value}); pickle protocols 0 and 1 refuse slots
        without it."""
        return None, {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        """Copy, deepcopy and pickle pass (None, {slot: value})."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def coefficient(self, k: int):
        """``coeffs[k]``; raises OrderExceeded outside 0..order."""
        if k < 0 or k > self.order:
            raise OrderExceeded(
                f"coefficient {k} requested, stored order is {self.order}")
        return self._at(k)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        n = min(self.order, other.order) + 1
        return (all(getattr(self, a) == getattr(other, a) for a in self._names)
                and self._head(n) == other._head(n))


class QSeries(_Frozen):
    """An exact truncated power series q**shift * sum(c_k q**k, k=0..order),
    stored as c_k = _nums[k] / _den in lowest terms."""

    __slots__ = ("var", "order", "shift", "_nums", "_den")
    _names = ("var", "shift")

    def __init__(self, coeffs: Iterable[Rational], var: str = "q",
                 shift: Rational = 0, order: int | None = None):
        _check_name(var, "var")
        cs = _padded([c if type(c) is int else _as_fraction(c)
                      for c in coeffs], order, 0)
        self._store(*_scaled(cs), var, _as_fraction(shift))

    @classmethod
    def _from_ints(cls, nums: Sequence[int], den: int = 1, var: str = "q",
                   shift: Fraction = Fraction(0)) -> "QSeries":
        """Trusted: sum(nums[k] * q**k) / den for integers nums, a nonzero
        integer den and a Fraction shift, reduced here; nothing is
        checked."""
        self = object.__new__(cls)
        self._store(nums, den, var, shift)
        return self

    def _store(self, nums, den, var, shift):
        """Set the slots, with nums/den reduced to gcd(den, *nums) = 1 and
        den > 0."""
        if den != 1:
            g = gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "order", len(nums) - 1)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)

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

    @property
    def coeffs(self) -> tuple:
        """c_0..c_order as Fractions, built on each access."""
        den = self._den
        return tuple([Fraction(x, den) for x in self._nums])

    def coefficients(self) -> tuple:
        return self.coeffs

    def _at(self, k: int) -> Fraction:
        return Fraction(self._nums[k], self._den)

    def _head(self, n: int) -> tuple:
        """c_0..c_(n-1) in lowest terms over one denominator."""
        nums = self._nums[:n]
        g = gcd(self._den, *nums)
        return self._den // g, [x // g for x in nums]

    def is_zero(self) -> bool:
        return not any(self._nums)

    def truncate(self, order: int) -> "QSeries":
        """Drop to a smaller order; extension is never silent."""
        if order > self.order:
            raise OrderExceeded(
                f"cannot extend order {self.order} to {order}")
        nums = _padded(list(self._nums[: order + 1]), order, 0)
        return QSeries._from_ints(nums, self._den, self.var, self.shift)

    def with_shift(self, shift: Rational) -> "QSeries":
        """Same coefficients, different exponent shift."""
        return QSeries._from_ints(self._nums, self._den, self.var,
                                  _as_fraction(shift))

    def absorb_shift(self) -> "QSeries":
        """Fold a non-negative integer shift into the coefficient array."""
        if self.shift.denominator != 1 or self.shift < 0:
            raise ShiftMismatch(
                f"cannot absorb shift {self.shift} into integer exponents")
        return QSeries._from_ints((0,) * int(self.shift) + self._nums,
                                  self._den, self.var)

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
        den = lcm(self._den, g._den)
        a, b = den // self._den, den // g._den
        return QSeries._from_ints(
            [x * a + y * b for x, y in zip(self._nums, g._nums)],
            den, self.var, self.shift)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._from_ints([-x for x in self._nums], self._den,
                                  self.var, self.shift)

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
            return QSeries._from_ints([c.numerator * x for x in self._nums],
                                      self._den * c.denominator, self.var,
                                      self.shift)
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        n = min(self.order, g.order) + 1
        return QSeries._from_ints(_product(self._nums[:n], g._nums[:n]),
                                  self._den * g._den, self.var,
                                  self.shift + g.shift)

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
        if g._nums[0] == 0:
            raise NonUnitConstantTerm("cannot invert: constant term is zero")
        # (F/df) / (G/dg) = (dg/df) * F/G
        n = min(self.order, g.order) + 1
        ys, den = _substitute(self._nums[:n], g._nums[1:n], [g._nums[0]] * n)
        return QSeries._from_ints([y * g._den for y in ys], den * self._den,
                                  self.var, self.shift - g.shift)

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
        g = exp h solves n*g_n = sum_{k=1..n} k*h_k*g_(n-k), g_0 = 1; with
        h = H/d, that is n*d*g_n = sum k*H_k*g_(n-k)."""
        if self.shift != 0:
            raise ShiftMismatch("exp requires shift 0")
        if self._nums[0] != 0:
            raise NonzeroConstantTerm("exp requires constant term 0")
        d = self._den
        ws = [-k * h for k, h in enumerate(self._nums[1:], 1)]
        gs, den = _substitute([1] + [0] * self.order, ws,
                              [1, *range(d, d * self.order + 1, d)])
        return QSeries._from_ints(gs, den, self.var)

    def log(self) -> "QSeries":
        """log of a series with constant term one and zero shift: the
        integral of (q*d/dq f) / f, one forward substitution.  The quotient
        is (k*F_k) / F for f = F/d, so d cancels."""
        if self.shift != 0:
            raise ShiftMismatch("log requires shift 0")
        fs = self._nums
        if fs[0] != self._den:
            raise ConstantTermNotOne("log requires constant term 1")
        ds, den = _substitute([k * f for k, f in enumerate(fs)], fs[1:],
                              [fs[0]] * len(fs))
        # h_k = d_k / (k*den) over den*m, m the lcm of the denominators
        # k/gcd(d_k, k) of the d_k/k, which makes each d_k*m/k whole
        m = lcm(*[k // gcd(x, k) for k, x in enumerate(ds[1:], 1)])
        return QSeries._from_ints(
            [0] + [x * m // k for k, x in enumerate(ds[1:], 1)],
            den * m, self.var)

    def q_d_dq(self) -> "QSeries":
        """The operator q*d/dq: c_k -> k*c_k.  Needs shift 0."""
        if self.shift != 0:
            raise ShiftMismatch("q*d/dq requires shift 0")
        return QSeries._from_ints([k * x for k, x in enumerate(self._nums)],
                                  self._den, self.var)

    # -- display -----------------------------------------------------------

    def __str__(self):
        body = _poly_str(self.coeffs, self.var)
        body = f"{body} + O({self.var}^{self.order + 1})"
        if self.shift:
            return f"{self.var}^({self.shift})*({body})"
        return body

    def __repr__(self):
        cs = ", ".join(str(self._at(k)) for k in range(min(8, self.order + 1)))
        if self.order >= 8:
            cs += ", ..."
        return (f"QSeries({self.var!r}, order={self.order}, "
                f"shift={self.shift}, coeffs=({cs}))")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: numerator/denominator pairs as decimal strings, each in
        lowest terms."""
        den = self._den
        return {
            "var": self.var,
            "shift": [str(self.shift.numerator), str(self.shift.denominator)],
            "order": self.order,
            "coeffs": [[str(x // (g := gcd(x, den))), str(den // g)]
                       for x in self._nums],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QSeries":
        shift = _json_fraction(data["shift"][0], data["shift"][1], "shift")
        coeffs = [_json_fraction(num, den, f"coeffs[{k}]")
                  for k, (num, den) in enumerate(data["coeffs"])]
        return cls(coeffs, var=data["var"], shift=shift, order=data["order"])


class BiSeries(_Frozen):
    """Truncated series in q whose coefficients are integer polynomials
    in a second variable t, as tuples; degree at q**k is at most 4k."""

    __slots__ = ("var_q", "var_t", "order", "coeffs")
    _names = ("var_q", "var_t")

    def __init__(self, coeffs: Sequence, var_q: str = "q", var_t: str = "t",
                 order: int | None = None):
        _check_name(var_q, "var_q")
        _check_name(var_t, "var_t")
        if var_q == var_t:
            raise SeriesError(f"var_q and var_t must differ, both are "
                              f"{var_q!r}")
        polys = _padded([self._trim([index(c) for c in poly])
                         for poly in coeffs], order, (0,))
        for k, poly in enumerate(polys):
            if len(poly) - 1 > 4 * k:
                raise SeriesError(
                    f"t-degree {len(poly) - 1} at q^{k} exceeds bound {4 * k}")
        self._store(polys, var_q, var_t)

    @classmethod
    def _from_rows(cls, rows: list, var_q: str = "q",
                   var_t: str = "t") -> "BiSeries":
        """Trusted: integer lists of t-degree at most 4k at q**k, trimmed
        here; nothing is checked."""
        self = object.__new__(cls)
        self._store([cls._trim(row) for row in rows], var_q, var_t)
        return self

    def _store(self, polys, var_q, var_t):
        object.__setattr__(self, "var_q", var_q)
        object.__setattr__(self, "var_t", var_t)
        object.__setattr__(self, "order", len(polys) - 1)
        object.__setattr__(self, "coeffs", tuple(tuple(p) for p in polys))

    @staticmethod
    def _trim(poly):
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        return poly or [0]

    def _at(self, k: int) -> tuple:
        return self.coeffs[k]

    def _head(self, n: int) -> tuple:
        return self.coeffs[:n]

    @classmethod
    def one(cls, order: int, var_q: str = "q", var_t: str = "t") -> "BiSeries":
        return cls([(1,)], var_q=var_q, var_t=var_t, order=order)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        """Truncated product with each t-polynomial packed into one integer
        at t = 2**(8*width), as ``_euler_product_t`` packs its factors:
        q**m is then the integer convolution sum_{i<=m} X_i*Y_(m-i).  Its
        t-digits are sums of at most n*max(len Y_j) digit products, which
        sets the width."""
        if not isinstance(other, BiSeries):
            return NotImplemented
        if (self.var_q, self.var_t) != (other.var_q, other.var_t):
            raise VariableMismatch("variable names differ")
        n = min(self.order, other.order) + 1
        fs, gs = self.coeffs[:n], other.coeffs[:n]
        width = _width(max(1, *map(abs, chain(*fs))) * n * max(map(len, gs))
                       * max(1, *map(abs, chain(*gs))))
        xs, ys = ([_pack(p, width) for p in f] for f in (fs, gs))
        zs = [sum(map(mul, xs[:m + 1], reversed(ys[:m + 1])))
              for m in range(n)]
        return BiSeries._from_rows([_t_poly(z, width) for z in zs],
                                   self.var_q, self.var_t)

    def eval_t(self, value: Rational) -> QSeries:
        """Specialize the second variable to an exact rational v = p/r.

        Integer Horner over each t-polynomial of degree d gives
        sum_k c_k p^k r^(d-k), the numerator of its value over r^d; scaled
        by r^(D-d), D the largest degree, it is over r^D."""
        v = _as_fraction(value)
        p, r = v.numerator, v.denominator
        top = max(map(len, self.coeffs))
        nums = []
        for poly in self.coeffs:
            num, scale = 0, r ** (top - len(poly))
            for c in reversed(poly):
                num = num * p + c * scale
                scale *= r
            nums.append(num)
        return QSeries._from_ints(nums, r ** (top - 1), self.var_q)

    def __str__(self):
        lines = [f"{self.var_q}^{k}: {_poly_str(p, self.var_t)}"
                 for k, p in enumerate(self.coeffs)]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "var_q": self.var_q,
            "var_t": self.var_t,
            "order": self.order,
            "coeffs": [[str(c) for c in poly] for poly in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BiSeries":
        return cls([[_json_int(c) for c in poly] for poly in data["coeffs"]],
                   var_q=data["var_q"], var_t=data["var_t"],
                   order=data["order"])


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

    Exponents must be integers.  When they are all equal, the product is
    a power of Euler's function, expanded from the pentagonal series by
    ``_eta_power``; otherwise the factors are expanded together by the
    integer logarithmic-derivative recurrence of ``_euler_product``.
    """
    _check_name(var, "var")
    exponents = []
    for m in range(1, order + 1):
        e = exponent(m)
        if not isinstance(e, int):
            raise TypeError(f"exponent({m}) = {e!r} is not an integer")
        exponents.append(e)
    if len(set(exponents)) > 1:
        coeffs = _euler_product([(m, 1, e) for m, e in
                                 enumerate(exponents, 1)], order)
    else:
        coeffs = _eta_power(exponents[0] if exponents else 0, order)
    return QSeries._from_ints(_padded(coeffs, order, 0), var=var)
