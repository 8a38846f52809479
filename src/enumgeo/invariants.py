"""Enumerative invariants of surfaces: Hilbert-scheme Euler characteristics,
Göttsche's Betti-number product, the Bryan-Leung rational-elliptic series,
genus conditions, and the Seiberg-Witten / wall-crossing bookkeeping that
feeds Donaldson-Thomas comparisons.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb
from typing import Sequence, Union

from .lattice import ParityViolation
from .modforms import divisor_sigma, theta_e8
from .series import (QSeries, _as_fraction, _digits, _euler_product_t,
                     _json_int, _pack, _poly_str, _width, product_family)

Rational = Union[int, Fraction]


class EvenClass(ValueError):
    """Plane Seiberg-Witten classes must be odd multiples of the line."""


class NonpositivePg(ValueError):
    """The binomial closed form needs geometric genus >= 1."""


class NonIntegerChiV(ValueError):
    """2**(1 - chi(v)) in the wall-crossing sum needs an integer chi."""


class HypothesisWarning(UserWarning):
    """A wall-crossing hypothesis is violated; the sum is still returned."""


def _exact_ints(obj, *names) -> None:
    """Store the named fields of a frozen dataclass as ints; a float or a
    Fraction raises TypeError instead of being truncated."""
    for name in names:
        object.__setattr__(obj, name, operator.index(getattr(obj, name)))


@dataclass(frozen=True)
class SurfaceData:
    """Topological data of a smooth compact surface.

    chi_top must equal the alternating sum of the Betti numbers, and for
    b1 = 0 surfaces the holomorphic Euler characteristic is 1 + p_g.
    """

    betti: tuple
    chi_top: int
    chi_O: int
    p_g: int
    b1_zero: bool = True

    def __post_init__(self):
        b = tuple(operator.index(x) for x in self.betti)
        if len(b) != 5:
            raise ValueError("five Betti numbers b0..b4 required")
        object.__setattr__(self, "betti", b)
        _exact_ints(self, "chi_top", "chi_O", "p_g")
        alt = b[0] - b[1] + b[2] - b[3] + b[4]
        if alt != self.chi_top:
            raise ValueError(
                f"chi_top {self.chi_top} != alternating Betti sum {alt}")
        if self.b1_zero and (b[1] or self.chi_O != 1 + self.p_g):
            raise ValueError("b1 = 0 forces chi_O = 1 + p_g")

    @classmethod
    def projective_plane(cls) -> "SurfaceData":
        return cls(betti=(1, 0, 1, 0, 1), chi_top=3, chi_O=1, p_g=0)

    @classmethod
    def k3(cls) -> "SurfaceData":
        return cls(betti=(1, 0, 22, 0, 1), chi_top=24, chi_O=2, p_g=1)

    @classmethod
    def half_k3(cls) -> "SurfaceData":
        """The rational elliptic surface (plane blown up in nine points)."""
        return cls(betti=(1, 0, 10, 0, 1), chi_top=12, chi_O=1, p_g=0)


class BiSeries:
    """Truncated series in q whose coefficients are integer polynomials
    in a second variable t; degree at q**k is at most 4k."""

    __slots__ = ("var_q", "var_t", "order", "coeffs")

    def __init__(self, coeffs: Sequence, var_q: str = "q", var_t: str = "t",
                 order: int | None = None):
        polys = [self._trim([operator.index(c) for c in poly])
                 for poly in coeffs]
        if order is None:
            if not polys:
                raise ValueError("empty coefficient list and no order given")
            order = len(polys) - 1
        order = operator.index(order)
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(polys) > order + 1:
            raise ValueError(f"{len(polys)} polynomials exceed order {order}")
        polys.extend([(0,)] * (order + 1 - len(polys)))
        for k, poly in enumerate(polys):
            if len(poly) - 1 > 4 * k and any(poly[4 * k + 1:]):
                raise ValueError(
                    f"t-degree {len(poly) - 1} at q^{k} exceeds bound {4 * k}")
        object.__setattr__(self, "var_q", var_q)
        object.__setattr__(self, "var_t", var_t)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(tuple(p) for p in polys))

    def __setattr__(self, name, value):
        raise AttributeError("BiSeries is immutable")

    @staticmethod
    def _trim(poly):
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        return poly or [0]

    @classmethod
    def one(cls, order: int, var_q: str = "q", var_t: str = "t") -> "BiSeries":
        return cls([(1,)], var_q=var_q, var_t=var_t, order=order)

    def coefficient(self, k: int) -> tuple:
        """The t-polynomial at q**k, as a coefficient tuple."""
        if k < 0 or k > self.order:
            raise IndexError(f"q-exponent {k} outside stored order {self.order}")
        return self.coeffs[k]

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        """Truncated product with each t-polynomial packed into one integer
        at t = 2**(8*width), as ``goettsche_series`` does: q**m is then the
        integer convolution sum_{i<=m} X_i*Y_(m-i).  Its t-digits are sums
        of at most n*max(len Y_j) digit products, which sets the width."""
        if not isinstance(other, BiSeries):
            return NotImplemented
        if (self.var_q, self.var_t) != (other.var_q, other.var_t):
            raise ValueError("variable names differ")
        n = min(self.order, other.order) + 1
        fs, gs = self.coeffs[:n], other.coeffs[:n]
        width = _width(max(1, *map(abs, chain(*fs))) * n * max(map(len, gs))
                       * max(1, *map(abs, chain(*gs))))
        xs, ys = ([_pack(p, width) for p in f] for f in (fs, gs))
        zs = [sum(map(operator.mul, xs[:m + 1], reversed(ys[:m + 1])))
              for m in range(n)]
        return BiSeries([_digits(z, width) for z in zs], var_q=self.var_q,
                        var_t=self.var_t, order=n - 1)

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return ((self.var_q, self.var_t) == (other.var_q, other.var_t)
                and self.coeffs[: n + 1] == other.coeffs[: n + 1])

    __hash__ = None

    def eval_t(self, value: Rational) -> QSeries:
        """Specialize the second variable to an exact rational v = p/r.

        Integer Horner over each t-polynomial of degree d gives
        sum_k c_k p^k r^(d-k); one ``Fraction`` per q-coefficient divides
        it by r^d."""
        v = _as_fraction(value)
        p, r = v.numerator, v.denominator
        cs = []
        for poly in self.coeffs:
            num, den = 0, 1
            for c in reversed(poly):
                num = num * p + c * den
                den *= r
            cs.append(Fraction(num * r, den))
        return QSeries(cs, var=self.var_q, order=self.order)

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


def hilb_euler_series(surface: SurfaceData, order: int) -> QSeries:
    """Generating series of Hilbert-scheme Euler characteristics:
    prod(1 - q**m)**(-chi_top)."""
    chi = surface.chi_top
    return product_family(lambda m: -chi, order)


def goettsche_series(surface: SurfaceData, order: int) -> BiSeries:
    """Göttsche's product for Hilbert-scheme Betti numbers.

    For each m >= 1 the five factors (1 - (-t)**(2m-2+i) q**m) enter with
    exponent (-1)**(i+1) b_i, i = 0..4.  The q**k coefficient is the
    Poincaré polynomial of the k-point Hilbert scheme; t = -1 recovers the
    Euler-characteristic series.  All factors are expanded at once by the
    integer Euler-product recurrence with t packed as a power of two.
    """
    b = surface.betti
    factors = [(m, 2 * m - 2 + i, (-1) ** i, b[i] if i % 2 else -b[i])
               for m in range(1, order + 1) for i in range(5) if b[i]]
    return BiSeries(_euler_product_t(factors, order), order=order)


def bryan_leung_series(genus: int, order: int) -> QSeries:
    """Genus-g series for section-plus-fibers classes on the rational
    elliptic surface: (sum_k k sigma(k) q**(k-1))**g * prod(1-q**m)**-12."""
    genus = operator.index(genus)
    if genus < 0:
        raise ValueError("genus must be >= 0")
    base = product_family(lambda m: -12, order)
    if genus == 0:
        return base
    prefactor = QSeries(
        [(k + 1) * divisor_sigma(k + 1, 1) for k in range(order + 1)],
        order=order)
    return prefactor ** genus * base


def elliptic_genus1_coeffs(order: int) -> list:
    """Coefficients n_k, k = 1..order, of log prod(1-q**m)**-1; each equals
    sigma(k)/k."""
    if order < 1:
        raise ValueError("order must be >= 1")
    f = product_family(lambda m: -1, order)
    lg = f.log()
    return [lg.coefficient(k) for k in range(1, order + 1)]


def half_k3_z1(order: int) -> QSeries:
    """Rank-one partition series of the rational elliptic surface:
    E8 theta series times the twelfth-power eta quotient, the fractional
    shifts cancelling.  Equals E4 * prod(1-q**m)**-12 at shift zero."""
    return theta_e8(order, method="eisenstein") * product_family(
        lambda m: -12, order)


@dataclass(frozen=True)
class GromovCheck:
    """Adjunction bookkeeping for a curve class with given self-intersection
    and canonical degree."""

    beta_sq: int
    k_beta: int
    genus: int
    n_points: int
    toroidal: bool
    admissible: bool


def gromov_conditions(beta_sq: int, k_beta: int) -> GromovCheck:
    """Genus and point conditions from the adjunction numbers.

    n_points - genus = -K.beta - 1 always holds; classes with
    beta^2 = K.beta = 0 (fiber type) are marked toroidal and inadmissible.
    """
    beta_sq, k_beta = operator.index(beta_sq), operator.index(k_beta)
    s = beta_sq + k_beta
    if s % 2:
        raise ParityViolation(f"beta^2 + K.beta = {s} is odd")
    genus = 1 + s // 2
    n_points = (beta_sq - k_beta) // 2
    toroidal = beta_sq == 0 and k_beta == 0
    return GromovCheck(beta_sq=beta_sq, k_beta=k_beta, genus=genus,
                       n_points=n_points, toroidal=toroidal,
                       admissible=n_points >= 0 and not toroidal)


@dataclass(frozen=True)
class ChernVector:
    """Chern data (r, a, n) of a sheaf class, with the divisor part a
    recorded through its pairings a.h, a.K and a^2."""

    r: int
    a_h: int
    a_K: int
    a_sq: int
    n: Fraction

    def __post_init__(self):
        _exact_ints(self, "r", "a_h", "a_K", "a_sq")
        if self.r < 0:
            raise ValueError("rank must be >= 0")
        object.__setattr__(self, "n", _as_fraction(self.n))


def chi_v(v: ChernVector, chi_O: Rational) -> Fraction:
    """Holomorphic Euler pairing chi(v) = r*chi_O - a.K/2 + n."""
    return v.r * _as_fraction(chi_O) - Fraction(v.a_K, 2) + v.n


def virtual_dim(v: ChernVector, chi_O: Rational) -> int:
    """Expected dimension a^2 - 4n - 3*chi_O of the rank-2 moduli space."""
    d = v.a_sq - 4 * v.n - 3 * _as_fraction(chi_O)
    if d.denominator != 1:
        raise ValueError(f"virtual dimension {d} is not an integer")
    return int(d)


def sw_dimension(c_sq: int, chi_top: int, sigma: int) -> Fraction:
    """Expected dimension (c^2 - 2*chi_top - 3*sigma)/4 of the
    Seiberg-Witten moduli space for a spin-c class c."""
    return Fraction(c_sq - 2 * chi_top - 3 * sigma, 4)


def sw_p2(c_coeff: int, chamber: str) -> int:
    """Seiberg-Witten invariant of the plane for c = c_coeff * h in the
    given chamber ('+' or '-').  The class must be odd."""
    c_coeff = operator.index(c_coeff)
    if c_coeff % 2 == 0:
        raise EvenClass(f"{c_coeff}*h is not a spin-c class of the plane")
    if chamber not in ("+", "-"):
        raise ValueError(f"chamber must be '+' or '-', got {chamber!r}")
    if chamber == "+":
        return 1 if c_coeff >= 3 else 0
    return -1 if c_coeff <= -3 else 0


def sw_closed_form(d_c: int, p_g: int) -> int:
    """(-1)**d * binomial(p_g - 1, d) for surfaces with positive geometric
    genus; vanishes once d exceeds p_g - 1."""
    if p_g <= 0:
        raise NonpositivePg(f"closed form needs p_g >= 1, got {p_g}")
    if d_c < 0:
        raise ValueError("moduli dimension must be >= 0")
    return (-1) ** d_c * comb(p_g - 1, d_c)


@dataclass(frozen=True)
class SWDecomposition:
    """One wall term: a splitting a = a1 + a2 ordered by degree, the
    Seiberg-Witten invariant of a1, and the caller-supplied factor A."""

    a1_h: int
    a2_h: int
    sw_a1: int
    a_value: Fraction

    def __post_init__(self):
        _exact_ints(self, "a1_h", "a2_h", "sw_a1")
        if not self.a1_h < self.a2_h:
            raise ValueError(
                f"splitting must have a1.h < a2.h, got {self.a1_h} >= {self.a2_h}")
        object.__setattr__(self, "a_value", _as_fraction(self.a_value))


def mochizuki_sum(v: ChernVector, chi: Rational,
                  decomps: Sequence, k_dot_h: int | None = None) -> Fraction:
    """Wall-crossing sum -sum SW(a1) * 2**(1 - chi) * A over the ordered
    splittings of the determinant.

    chi must be an integer (NonIntegerChiV otherwise).  Violated hypotheses
    (chi < 1, rank != 2, even pairing degree, or a.h <= 2*K.h when the
    polarization degree is supplied) emit HypothesisWarning; the sum is
    still returned.
    """
    chi = _as_fraction(chi)
    if chi.denominator != 1:
        raise NonIntegerChiV(f"chi(v) = {chi} is not an integer")
    chi = int(chi)
    if chi < 1:
        warnings.warn(f"chi(v) = {chi} < 1", HypothesisWarning, stacklevel=2)
    if v.r != 2:
        warnings.warn(f"rank {v.r} != 2", HypothesisWarning, stacklevel=2)
    if v.a_h % 2 == 0:
        warnings.warn(f"a.h = {v.a_h} is even", HypothesisWarning,
                      stacklevel=2)
    if k_dot_h is not None and not v.a_h > 2 * k_dot_h:
        warnings.warn(f"a.h = {v.a_h} <= 2*K.h = {2 * k_dot_h}",
                      HypothesisWarning, stacklevel=2)
    weight = Fraction(2) ** (1 - chi)
    total = Fraction(0)
    for d in decomps:
        if d.a1_h + d.a2_h != v.a_h:
            raise ValueError(
                f"splitting {d.a1_h} + {d.a2_h} != a.h = {v.a_h}")
        total += d.sw_a1 * weight * d.a_value
    return -total
