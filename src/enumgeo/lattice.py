"""Integer lattices of algebraic surfaces: pairings, genus, signature,
short-vector counts and exceptional-class searches.

The central object is the odd unimodular lattice of the rational elliptic
surface, diag(1, -1, ..., -1) on the basis e0..e9, with fiber class
F = 3e0 - e1 - ... - e9, section class B = e9 and canonical class K = -F.
The orthogonal complement of F and B is a negated E8 root lattice.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Sequence

from . import _shortvec
from ._shortvec import NotPositiveDefinite

Vector = tuple  # integer coordinate tuples


class DimensionMismatch(ValueError):
    """Vector length does not match the lattice rank."""


class NoCanonicalClass(ValueError):
    """Genus requested on a lattice without a canonical class."""


class ParityViolation(ValueError):
    """beta*beta + K*beta is odd, so the genus formula gives no integer."""


class DegenerateForm(ValueError):
    """Signature requested on a degenerate bilinear form."""


def enumeration_backend() -> str:
    """The short-vector kernel: always 'pure', the exact half-space scan of
    ``_shortvec``."""
    return "pure"


@dataclass(frozen=True)
class SurfaceLattice:
    """A finitely generated integer lattice with a symmetric pairing.

    ``canonical`` (when present) must be characteristic on the basis:
    b*b + K*b even for every basis vector b, so the adjunction genus is an
    integer on the whole lattice.
    """

    rank: int
    gram: tuple
    basis_labels: tuple
    canonical: Vector | None = None

    def __post_init__(self):
        object.__setattr__(self, "rank", operator.index(self.rank))
        g = tuple(tuple(operator.index(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", g)
        if len(g) != self.rank or any(len(row) != self.rank for row in g):
            raise DimensionMismatch(
                f"gram must be {self.rank}x{self.rank}")
        if g != tuple(zip(*g)):
            raise ValueError("gram matrix must be symmetric")
        if isinstance(self.basis_labels, str):
            raise TypeError("basis_labels must be a sequence of labels, "
                            "not a str")
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        for label in self.basis_labels:
            if not isinstance(label, str):
                raise TypeError(f"basis labels must be str, got "
                                f"{type(label).__name__}")
            if not label:
                raise ValueError("basis labels must not be empty")
            if not label.isidentifier():
                raise ValueError(f"basis labels must be identifiers, got "
                                 f"{label!r}")
        if len(set(self.basis_labels)) != len(self.basis_labels):
            raise ValueError("basis labels must be distinct")
        if len(self.basis_labels) != self.rank:
            raise DimensionMismatch("one label per basis vector required")
        if self.canonical is not None:
            k = self._check_vector(self.canonical)
            object.__setattr__(self, "canonical", k)
            for i in range(self.rank):
                if (g[i][i] + sum(kj * row[i] for kj, row in zip(k, g))) % 2:
                    raise ParityViolation(
                        f"canonical class is not characteristic on "
                        f"{self.basis_labels[i]}")

    def _check_vector(self, v: Sequence) -> Vector:
        w = tuple(operator.index(x) for x in v)
        if len(w) != self.rank:
            raise DimensionMismatch(
                f"vector of length {len(w)} in a rank-{self.rank} lattice")
        return w

    def pair(self, u: Sequence, v: Sequence) -> int:
        """The symmetric bilinear pairing u*v."""
        uu, vv = self._check_vector(u), self._check_vector(v)
        return sum(uu[i] * self.gram[i][j] * vv[j]
                   for i in range(self.rank) for j in range(self.rank)
                   if uu[i] and self.gram[i][j])

    def norm(self, v: Sequence) -> int:
        return self.pair(v, v)

    def adjunction_genus(self, beta: Sequence) -> int:
        """Arithmetic genus 1 + (beta^2 + K*beta)/2 of a curve class."""
        if self.canonical is None:
            raise NoCanonicalClass("lattice has no canonical class")
        b = self._check_vector(beta)
        return 1 + (self.norm(b) + self.pair(self.canonical, b)) // 2

    def signature(self) -> tuple:
        """(positive, negative) inertia indices: the signs of
        d_i = p_i/p_(i-1) over the pivots p_i of ``_shortvec.pivot_rows``,
        whose zero-pivot repairs are congruences."""
        rows = _shortvec.pivot_rows(self.gram)
        ps = [1] + [row[i] for i, row in enumerate(rows)]
        if 0 in ps:
            raise DegenerateForm("form is degenerate")
        neg = sum((p > 0) != (q > 0) for p, q in zip(ps, ps[1:]))
        return self.rank - neg, neg

    def sublattice(self, vectors: Iterable[Sequence],
                   labels: Sequence[str] | None = None) -> "SurfaceLattice":
        """Lattice on the given vectors with the induced pairing."""
        vs = [self._check_vector(v) for v in vectors]
        gram = tuple(tuple(self.pair(u, v) for v in vs) for u in vs)
        if labels is None:
            labels = tuple(f"v{i}" for i in range(len(vs)))
        return SurfaceLattice(rank=len(vs), gram=gram,
                              basis_labels=tuple(labels))

    def format_vector(self, v: Sequence) -> str:
        """The signed sum c_1*label_1 + ... of the nonzero coordinates."""
        from .series import _signed_sum
        return _signed_sum(zip(self.basis_labels, self._check_vector(v)))

    def to_json_dict(self) -> dict:
        d = {
            "rank": self.rank,
            "gram": [list(row) for row in self.gram],
            "basis": list(self.basis_labels),
        }
        if self.canonical is not None:
            d["canonical"] = list(self.canonical)
        return d


def _blowup_lattice(k: int) -> SurfaceLattice:
    """diag(1, -1, ..., -1) on e0..ek with K = -3e0 + e1 + ... + ek."""
    n = k + 1
    gram = tuple(tuple((1 if i == 0 else -1) if i == j else 0
                       for j in range(n)) for i in range(n))
    return SurfaceLattice(rank=n, gram=gram,
                          basis_labels=tuple(f"e{i}" for i in range(n)),
                          canonical=tuple([-3] + [1] * k))


def make_gamma19() -> SurfaceLattice:
    """The rank-10 odd unimodular blowup lattice with K = -F."""
    return _blowup_lattice(9)


def make_del_pezzo(k: int) -> SurfaceLattice:
    """Blowup lattice of the plane in k points, K = -3e0 + e1 + ... + ek."""
    if not 0 <= k <= 8:
        raise ValueError(f"del Pezzo blowup count must be 0..8, got {k}")
    return _blowup_lattice(k)


def gamma19_named_vectors() -> dict:
    """Distinguished classes of the rank-10 lattice by name."""
    f = (3,) + (-1,) * 9
    b = (0,) * 9 + (1,)
    names = {"F": f, "B": b, "K": tuple(-x for x in f)}
    for i in range(10):
        names[f"e{i}"] = tuple(1 if j == i else 0 for j in range(10))
    return names


def e8_minus_basis() -> tuple:
    """Basis of the negated E8 sublattice orthogonal to F and B.

    First the branch generator e0 - e1 - e2 - e3, then the A7 chain
    e1 - e2, ..., e7 - e8; on this ordering the Gram matrix equals the
    negated E8 Cartan matrix.
    """
    vs = [(1, -1, -1, -1, 0, 0, 0, 0, 0, 0)]
    for i in range(1, 8):
        v = [0] * 10
        v[i], v[i + 1] = 1, -1
        vs.append(tuple(v))
    return tuple(vs)


def e8_cartan_matrix() -> tuple:
    """E8 Cartan matrix, nodes ordered branch-first to match
    e8_minus_basis(): node 1 attaches to node 4 of the chain 2-3-...-8."""
    edges = {(1, 4)} | {(i, i + 1) for i in range(2, 8)}
    def entry(i, j):
        if i == j:
            return 2
        return -1 if (min(i, j), max(i, j)) in edges else 0
    return tuple(tuple(entry(i, j) for j in range(1, 9)) for i in range(1, 9))


def e8_lattice() -> SurfaceLattice:
    """The positive-definite E8 root lattice on a simple-root basis."""
    return SurfaceLattice(rank=8, gram=e8_cartan_matrix(),
                          basis_labels=tuple(f"a{i}" for i in range(1, 9)))


def enumerate_vectors(lattice: SurfaceLattice, norm_max: int) -> dict:
    """Exact counts {n: #vectors of norm n} for 0 <= n <= norm_max.

    The form must be positive definite.  The scan runs over Python
    integers, so the counts are exact for any entries and any norm bound.
    """
    norm_max = operator.index(norm_max)
    if norm_max < 0:
        raise ValueError("norm_max must be >= 0")
    return dict(enumerate(_shortvec.count_by_norm(lattice.gram, norm_max)))


def exceptional_classes(k: int, degree_bound: int = 6) -> list:
    """All classes with K*beta = beta^2 = -1 on the k-point blowup,
    searched over |beta . e0| <= degree_bound; sorted lexicographically."""
    k, degree_bound = operator.index(k), operator.index(degree_bound)
    if not 0 <= k <= 8:
        raise ValueError(f"blowup count must be 0..8, got {k}")
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    results = []
    beta = [0] * (k + 1)        # (d, c_1, ..., c_k)

    def descend(i: int, rsum: int, rsq: int) -> None:
        left = k + 1 - i
        if left == 0:
            if rsum == 0 and rsq == 0:
                results.append(tuple(beta))
            return
        if rsum * rsum > left * rsq:   # Cauchy-Schwarz infeasible
            return
        bound = isqrt(rsq)
        for c in range(-bound, bound + 1):
            beta[i] = c
            descend(i + 1, rsum - c, rsq - c * c)

    for d in range(-degree_bound, degree_bound + 1):
        # K*beta = beta^2 = -1: sum c_i = 1 - 3d, sum c_i^2 = d^2 + 1
        beta[0] = d
        descend(1, 1 - 3 * d, d * d + 1)
    return results              # distinct, and in lexicographic order
