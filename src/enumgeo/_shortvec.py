"""Exact short-vector enumeration for positive-definite integer lattices.

G = L D L^T is read off ``pivot_rows``, the integer elimination that the
signature also runs, and Q(x) = sum_i d_i (x_i + sum_{j>i} L_ji x_j)^2.
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
from math import gcd, isqrt, lcm


class NotPositiveDefinite(ValueError):
    """Enumeration requested on a form that is not positive definite."""


def pivot_rows(gram) -> list:
    """Fraction-free symmetric elimination (Bareiss, Math. Comp. 22, 1968).

    Returns the eliminated matrix: row i, from column i on, is pivot row i,
    and p_i = rows[i][i].  Step i sets, exactly, for j, k > i,
    a[j][k] = (p_i*a[j][k] - a[j][i]*a[i][k]) // p_(i-1).  A zero pivot is
    repaired by a congruence, which keeps the inertia: a symmetric swap with
    a later nonzero diagonal entry, else first b_j += b_k for a nonzero a_jk
    of the remaining block.  If that block is zero, every remaining pivot is
    0.  When every p_i > 0 no repair took place, and L_ji = row_i[j]/p_i,
    d_i = p_i/p_(i-1) is the LDL^T of the given basis.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    prev = 1
    for i in range(n):
        if not a[i][i]:
            j = next((j for j in range(i + 1, n) if a[j][j]), None)
            if j is None:
                jk = next(((j, k) for j in range(i, n)
                           for k in range(j + 1, n) if a[j][k]), None)
                if jk is None:
                    break               # the remaining block is zero
                j, k = jk
                for row in a:           # b_j += b_k makes a_jj = 2*a_jk
                    row[j] += row[k]
                a[j] = [x + y for x, y in zip(a[j], a[k])]
            a[i], a[j] = a[j], a[i]     # swap b_i and b_j
            for row in a:
                row[i], row[j] = row[j], row[i]
        p, pivot = a[i][i], a[i]
        for j in range(i + 1, n):
            row, f = a[j], a[j][i]
            for k in range(i + 1, n):
                row[k] = (p * row[k] - f * pivot[k]) // prev
        prev = p
    return a


def prepare(gram) -> dict:
    """Scaled-integer LDL^T data for the depth-first scan.

    Returns a dict with keys rank, lm (integer rows, lm[i][j] = M_i*L_ji for
    j > i), m (row denominators), ehat (level weights), lam (global scale):
    M_i = p_i/g_i and M_i*L_ji = row_i[j]/g_i, with g_i the gcd of pivot
    row i from column i on.  Raises NotPositiveDefinite at a pivot p_i <= 0.
    """
    m, lm, scaled = [], [], []
    prev = 1
    for i, row in enumerate(pivot_rows(gram)):
        p = row[i]
        if p <= 0:
            raise NotPositiveDefinite(
                f"pivot {i} is {Fraction(p, prev)}; "
                "the form has a non-positive direction")
        g = gcd(*row[i:])
        m.append(p // g)
        lm.append([0] * (i + 1) + [x // g for x in row[i + 1:]])
        scaled.append(Fraction(p, prev * m[i] * m[i]))
        prev = p
    lam = lcm(*(s.denominator for s in scaled))
    ehat = [int(s * lam) for s in scaled]
    return {"rank": len(gram), "lm": lm, "m": m, "ehat": ehat, "lam": lam}


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
