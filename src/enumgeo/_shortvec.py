"""Exact short-vector enumeration for positive-definite integer lattices.

The Gram matrix is decomposed as G = L D L^T over the rationals and the
quadratic form written as Q(x) = sum_i d_i (x_i + sum_{j>i} L_ji x_j)^2.
All data is then rescaled to integers: with M_i the lcm of the denominators
in row i of L and LAM a global lcm, each level carries an integer weight
ehat_i = LAM*d_i/M_i**2 and the remaining budget stays an exact integer
throughout the depth-first scan.  No floating point anywhere, so counts are
exact for any norm bound.

The scan is a half-space scan: Q(x) = Q(-x), so it visits only the zero
vector and the vectors whose highest-index nonzero coordinate is positive,
and counts each of those twice (Fincke & Pohst, Math. Comp. 44, 1985, on
the enumeration).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


class NotPositiveDefinite(ValueError):
    """Enumeration requested on a form that is not positive definite."""


def prepare(gram) -> dict:
    """Scaled-integer LDL^T data for the depth-first scan.

    Returns a dict with keys rank, lm (integer rows, lm[i][j] = M_i*L_ji for
    j > i), m (row denominators), ehat (level weights), lam (global scale).
    Raises NotPositiveDefinite unless all pivots are positive.
    """
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for i in range(n):
        d = a[i][i] - sum(lower[i][k] * lower[i][k] * diag[k] for k in range(i))
        if d <= 0:
            raise NotPositiveDefinite(
                f"pivot {i} is {d}; the form has a non-positive direction")
        diag[i] = d
        for j in range(i + 1, n):
            s = a[j][i] - sum(lower[j][k] * lower[i][k] * diag[k]
                              for k in range(i))
            lower[j][i] = s / d

    m = []
    lm = []
    for i in range(n):
        m.append(lcm(*(lower[j][i].denominator for j in range(i + 1, n))))
        lm.append([int(lower[j][i] * m[i]) if j > i else 0 for j in range(n)])

    scaled = [diag[i] / (m[i] * m[i]) for i in range(n)]
    lam = lcm(*(s.denominator for s in scaled))
    ehat = [int(s * lam) for s in scaled]
    return {"rank": n, "lm": lm, "m": m, "ehat": ehat, "lam": lam}


def count_by_norm(data: dict, norm_max: int) -> list:
    """Counts[n] of lattice vectors with Q(x) = n, for 0 <= n <= norm_max.

    Since Q(x) = Q(-x), the scan visits only the zero vector and the vectors
    whose highest-index nonzero coordinate is positive, and counts each of
    the latter twice (once for x, once for -x).  A ``lead`` flag marks the
    levels above which every coordinate is 0: there the offset is 0 and
    only x_i >= 0 is scanned.  The innermost level steps t = M_0 x_0 + C_0
    directly.
    """
    rank = data["rank"]
    lm, m, ehat, lam = data["lm"], data["m"], data["ehat"], data["lam"]
    counts = [0] * (norm_max + 1)
    if norm_max < 0:
        return counts
    if rank == 0:
        counts[0] = 1
        return counts
    budget0 = lam * norm_max
    xs = [0] * rank

    def descend(i: int, budget: int, lead: bool) -> None:
        chat = 0
        if not lead:
            row = lm[i]
            for j in range(i + 1, rank):
                if xs[j]:
                    chat += row[j] * xs[j]
        s = isqrt(budget // ehat[i])
        mi = m[i]
        lo = 0 if lead else -((s + chat) // mi)
        hi = (s - chat) // mi
        ei = ehat[i]
        if i == 0:
            base = budget0 - budget
            for t in range(mi * lo + chat, mi * hi + chat + 1, mi):
                counts[(base + ei * t * t) // lam] += 2
            if lead:
                counts[0] -= 1      # the zero vector is its own negative
        else:
            for x in range(lo, hi + 1):
                xs[i] = x
                t = mi * x + chat
                descend(i - 1, budget - ei * t * t, lead and not x)
            xs[i] = 0

    descend(rank - 1, budget0, True)
    return counts
