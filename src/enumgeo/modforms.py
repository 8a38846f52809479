"""Quasi-modular forms as exact q-expansions.

Eisenstein series E2, E4, E6, eta quotients carrying their fractional
q-power in the series shift, the E8 theta series (by lattice point counts
or via E4), and exact linear fitting of quasi-homogeneous E2/E4/E6
polynomials against prescribed series coefficients.  Every series in a fit
has integer coefficients, so the fit builds its columns as integer lists,
one packed product (``series._product``) each, and hands integer rows to
``solve_exact``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Sequence

from . import lattice as _lattice
from .series import (QSeries, _as_fraction, _euler_product, _product,
                     _scaled, product_family)

#: weight -> (prefactor of the divisor sum, divisor power)
_EISENSTEIN = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}


class OddOrNonpositiveWeight(ValueError):
    """Monomial bases exist only for positive even weights."""


def divisor_sigma(n: int, k: int) -> int:
    """Sum of k-th powers of the divisors of n >= 1, for k >= 0."""
    n, k = operator.index(n), operator.index(k)
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


def _eisenstein_ints(weight: int, order: int) -> list:
    """The coefficients 1, c*sigma_k(1), ..., c*sigma_k(order) of E_weight."""
    c, k = _EISENSTEIN[weight]
    return [1] + [c * divisor_sigma(n, k) for n in range(1, order + 1)]


def eisenstein(weight: int, order: int) -> QSeries:
    """E_weight as a q-expansion; only weights 2, 4, 6 are constructible."""
    # 4.0 == 4 would find E4 in the table, so floats are refused first
    if operator.index(weight) not in _EISENSTEIN:
        raise OddOrNonpositiveWeight(
            f"Eisenstein weight must be 2, 4 or 6, got {weight}")
    return QSeries(_eisenstein_ints(weight, order), order=order)


def eta_quotient(exponent: int, order: int) -> QSeries:
    """The exponent-th power of the eta function: shift exponent/24 and
    coefficients prod(1 - q**m)**exponent."""
    if not isinstance(exponent, int):
        raise TypeError("eta exponent must be an integer")
    f = product_family(lambda m: exponent, order)
    return f.with_shift(Fraction(exponent, 24))


@lru_cache(maxsize=8)
def _theta_counts(order: int) -> tuple:
    counts = _lattice.enumerate_vectors(_lattice.e8_lattice(), 2 * order)
    odd = [n for n in counts if n % 2 and counts[n]]
    if odd:
        raise AssertionError(f"odd norms {odd} in an even lattice")
    return tuple(counts[2 * k] for k in range(order + 1))


def theta_e8(order: int, method: str = "eisenstein") -> QSeries:
    """Theta series of the E8 lattice.

    method='lattice' counts vectors of each even norm exactly;
    method='eisenstein' returns E4.  The two agree identically.
    """
    if method == "eisenstein":
        return eisenstein(4, order)
    if method == "lattice":
        return QSeries(_theta_counts(order), order=order)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class MonomialBasis:
    """All E2^i E4^j E6^k with 2i + 4j + 6k = weight, in lex order."""

    weight: int
    monomials: tuple

    def labels(self) -> tuple:
        return tuple(monomial_label(m) for m in self.monomials)

    def __len__(self):
        return len(self.monomials)


def monomial_label(m: Sequence) -> str:
    i, j, k = m
    parts = [f"E{w}^{e}" if e > 1 else f"E{w}"
             for w, e in ((2, i), (4, j), (6, k)) if e]
    return "*".join(parts) if parts else "1"


def weight_monomials(weight: int) -> MonomialBasis:
    """Exponent triples (i, j, k) of the quasi-modular monomials of the
    given weight, lexicographically ordered."""
    if weight <= 0 or weight % 2:
        raise OddOrNonpositiveWeight(
            f"weight must be a positive even integer, got {weight}")
    triples = []
    for i in range(weight // 2, -1, -1):
        rem = weight - 2 * i
        for j in range(rem // 4, -1, -1):
            rem2 = rem - 4 * j
            if rem2 % 6 == 0:
                triples.append((i, j, rem2 // 6))
    return MonomialBasis(weight=weight, monomials=tuple(sorted(triples)))


def monomial_series(m: Sequence, order: int) -> QSeries:
    """The q-expansion of E2^i * E4^j * E6^k."""
    i, j, k = m
    powers = [eisenstein(w, order) ** e for w, e in ((2, i), (4, j), (6, k))
              if e]
    return reduce(operator.mul, powers) if powers else QSeries.one(order)


@dataclass(frozen=True)
class FitResult:
    """Exact solution set of a coefficient-matching problem.

    ``particular`` is one solution (free variables set to zero) or None
    when the system is inconsistent; ``nullspace`` spans all homogeneous
    solutions, so the full solution set is particular + span(nullspace).
    """

    basis: MonomialBasis
    eta_exponent: int
    particular: tuple | None
    nullspace: tuple
    consistent: bool

    @property
    def nullity(self) -> int:
        return len(self.nullspace)

    def to_json_dict(self) -> dict:
        def vec(v):
            return {",".join(str(e) for e in m):
                    [str(c.numerator), str(c.denominator)]
                    for m, c in zip(self.basis.monomials, v)}
        return {
            "weight": self.basis.weight,
            "eta_exponent": self.eta_exponent,
            "monomials": [list(m) for m in self.basis.monomials],
            "consistent": self.consistent,
            "particular": vec(self.particular) if self.particular else None,
            "nullspace": [vec(v) for v in self.nullspace],
        }


def solve_exact(rows: Sequence, rhs: Sequence) -> tuple:
    """Solve A x = b exactly over the rationals.

    Returns (consistent, particular, nullspace).  The particular solution
    sets all free variables to zero; the nullspace basis has one vector per
    free column.  The solve stays in the integers: fraction-free (Bareiss)
    elimination of the denominator-cleared rows, then fraction-free back
    substitution of D * x, which is integral for D the last pivot.  Every
    vector is re-checked against the rows as they were before elimination.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("one right-hand side per row required")
    n = len(rows[0]) if m else 0
    # an int passes as it is: _scaled reads only numerator and denominator
    aug = [[x if type(x) is int else _as_fraction(x) for x in (*row, b)]
           for row, b in zip(rows, rhs)]
    if any(len(row) != n + 1 for row in aug):
        raise ValueError("ragged coefficient matrix")
    aug = [_scaled(row)[0] for row in aug]
    original = [row[:] for row in aug]

    pivots = []  # pivots[r] is the pivot column of row r
    r = 0
    prev = 1
    for c in range(n):
        p = next((i for i in range(r, m) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        piv, pivot_row = aug[r][c], aug[r][c:]
        # rows below r are already zero left of column c
        for row in aug[r + 1:]:
            head = row[c]
            row[c:] = [(piv * a - head * b) // prev
                       for a, b in zip(row[c:], pivot_row)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == m:
            break

    # rows below the rank are zero in every coefficient column
    consistent = not any(row[n] for row in aug[r:])
    # with D = prev, the last pivot, column n seeds X = D * (x, -1) and a
    # free column f seeds X = D * (e_f, 0)
    seeds = [n] if consistent else []
    seeds += [f for f in range(n) if f not in pivots]
    solutions = []
    for seed in seeds:
        x = [0] * (n + 1)
        x[seed] = -prev if seed == n else prev
        for row, c in zip(reversed(aug[:r]), reversed(pivots)):
            x[c] = -sum(map(operator.mul, row[c + 1:], x[c + 1:])) // row[c]
        # exact re-verification against the original system
        if any(sum(map(operator.mul, row, x)) for row in original):
            raise AssertionError("elimination produced a bad solution")
        solutions.append(tuple(Fraction(v, prev) for v in x[:n]))
    particular = solutions.pop(0) if consistent else None
    return consistent, particular, tuple(solutions)


def _fit_columns(monomials: Sequence, eta_exponent: int,
                 order: int) -> list:
    """Coefficients 0..order of E2^i E4^j E6^k * prod(1-q**m)**eta_exponent
    for each (i, j, k), as integer lists, one packed product per column.

    T(j, k) = eta * E4^j * E6^k comes from T(j-1, k) or T(0, k-1); the
    pairs (j, k) of a weight basis are closed under both steps.  E2^i
    comes from one chain of powers, and the column is E2^i * T(j, k).
    """
    e2, e4, e6 = (_eisenstein_ints(w, order) for w in (2, 4, 6))
    tails = {(0, 0): _euler_product(
        [(m, 1, eta_exponent) for m in range(1, order + 1)], order)}
    for j, k in sorted({(j, k) for _, j, k in monomials} - {(0, 0)},
                       key=lambda jk: jk[::-1]):
        tails[j, k] = (_product(tails[j - 1, k], e4) if j
                       else _product(tails[0, k - 1], e6))
    e2_powers = [None, e2]
    for _ in range(2, max(i for i, _, _ in monomials) + 1):
        e2_powers.append(_product(e2_powers[-1], e2))
    return [_product(e2_powers[i], tails[j, k]) if i else tails[j, k]
            for i, j, k in monomials]


def fit_quasi_homogeneous(weight: int, eta_exponent: int,
                          targets: Sequence) -> FitResult:
    """Match sum_m c_m * (E2^i E4^j E6^k) * prod(1-q**n)**eta_exponent
    against prescribed coefficients.

    ``targets`` is a sequence of (q_exponent, value) pairs indexing the
    coefficient array of the shift-stripped product.  Every column has
    integer coefficients, built with one packed product each, so the rows
    reach ``solve_exact`` as integers and the linear system is solved
    exactly; inconsistency is reported in the result, not raised.
    """
    eta_exponent = operator.index(eta_exponent)
    targets = list(targets)
    if not targets:
        raise ValueError("at least one target coefficient required")
    exps = [operator.index(e) for e, _ in targets]
    if any(e < 0 for e in exps):
        raise ValueError("target exponents must be >= 0")
    basis = weight_monomials(weight)
    columns = _fit_columns(basis.monomials, eta_exponent, max(exps))
    rows = [[col[e] for col in columns] for e in exps]
    rhs = [v for _, v in targets]
    consistent, particular, nullspace = solve_exact(rows, rhs)
    return FitResult(basis=basis, eta_exponent=eta_exponent,
                     particular=particular, nullspace=nullspace,
                     consistent=consistent)
