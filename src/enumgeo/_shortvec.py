"""Exact short-vector enumeration for positive-definite integer lattices.

``pivot_rows``, the integer elimination that the signature also runs, gives
the pivots p_i, with p_(-1) = 1, and the pivot rows a_ij, j > i, and

    Q(x) = sum_i t_i**2 / (p_(i-1)*p_i),  t_i = p_i*x_i + sum_{j>i} a_ij*x_j.

With LAM the lcm of the p_(i-1)*p_i, level i carries the integer weight
w_i = LAM/(p_(i-1)*p_i), so LAM*Q(x) = sum_i w_i*t_i**2 and the remaining
budget stays an exact integer throughout the depth-first scan.  No floating
point anywhere, so counts are exact for any norm bound.

The scan is a half-space scan: Q(x) = Q(-x), so it visits only the zero
vector and the vectors whose highest-index nonzero coordinate is positive,
and counts each of those twice (Fincke & Pohst, Math. Comp. 44, 1985, on
the enumeration).  So x_i >= 0 while the budget is whole, LAM*norm_max,
as it is exactly while every higher coordinate is 0.  Level 0 is a lookup:
its share of the histogram depends only on the remaining budget and on the
centre c_0 mod p_0, so each call caches the leaf histogram of every
(budget, c_0 mod p_0) it meets and adds the cached one on every repeat.
"""

from __future__ import annotations

from functools import cache
from math import isqrt, lcm


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


def count_by_norm(gram, norm_max: int) -> list:
    """Counts[n] of lattice vectors with Q(x) = n, for 0 <= n <= norm_max.

    Raises NotPositiveDefinite at the first pivot p_i <= 0, whatever
    norm_max is.  Level i steps x_i, so t_i moves by p_i around the centre
    c_i = sum_{j>i} a_ij*x_j, which runs over the nonzero a_ij only, and
    spends w_i*t_i**2 of the budget LAM*norm_max.  The budget is whole
    exactly while every higher coordinate is 0, since the top centre is 0
    and every p_j > 0; there c_i is 0 and x_i >= 0 is scanned.  The
    innermost level steps t_0 = c_0 (mod p_0), and its norm index
    (LAM*norm_max - budget + w_0*t_0**2)/LAM depends on nothing but the
    budget and t_0.  So level 1 reads each leaf from ``leaf``, a
    ``functools.cache`` local to the call on (budget, c_0 mod p_0), whose
    values are tuples of (norm index, multiplicity) pairs.
    """
    rows = pivot_rows(gram)
    rank = len(rows)
    prev, dens = 1, []
    for i, row in enumerate(rows):
        p = row[i]
        if p <= 0:
            from fractions import Fraction
            raise NotPositiveDefinite(
                f"pivot {i} is {Fraction(p, prev)}; "
                "the form has a non-positive direction")
        dens.append(prev * p)
        prev = p
    lam = lcm(*dens)
    weights = [lam // d for d in dens]
    counts = [0] * (norm_max + 1)
    if norm_max < 0:
        return counts
    if rank == 0:
        counts[0] = 1
        return counts
    budget0 = lam * norm_max
    xs = [0] * rank
    # the nonzero a_ij right of the diagonal, so centres skip the zeros
    offsets = [[(j, row[j]) for j in range(i + 1, rank) if row[j]]
               for i, row in enumerate(rows)]
    p0, w0 = rows[0][0], weights[0]

    def span(budget: int, p: int, w: int, c: int) -> range:
        """The x with w*(p*x + c)**2 <= budget, x >= 0 while the budget is
        whole."""
        s = isqrt(budget // w)
        lo = 0 if budget == budget0 else -((s + c) // p)
        return range(lo, (s - c) // p + 1)

    @cache
    def leaf(budget: int, r: int) -> tuple:
        """Level 0's (norm index, multiplicity) pairs at this budget, over
        t_0 = p_0*x + r."""
        base = budget0 - budget
        hist = {}
        for x in span(budget, p0, w0, r):
            t = p0 * x + r
            n = (base + w0 * t * t) // lam
            hist[n] = hist.get(n, 0) + 2
        if budget == budget0:
            hist[0] -= 1        # the zero vector is its own negative
        return tuple(hist.items())

    def descend(i: int, budget: int) -> None:
        c = 0
        for j, a in offsets[i]:
            c += a * xs[j]
        p, w = rows[i][i], weights[i]
        for x in span(budget, p, w, c):
            xs[i] = x
            t = p * x + c
            if i > 1:
                descend(i - 1, budget - w * t * t)
            else:               # level 0 from the cache
                c0 = 0
                for j, a in offsets[0]:
                    c0 += a * xs[j]
                for n, m in leaf(budget - w * t * t, c0 % p0):
                    counts[n] += m
        xs[i] = 0

    if rank == 1:
        for n, m in leaf(budget0, 0):
            counts[n] += m
    else:
        descend(rank - 1, budget0)
    return counts
