"""Independent integer oracles for cross-checking the golden outputs.

None of this uses enumgeo.  Products are expanded with the logarithmic
derivative recurrence n*f_n = sum_k g_k f_{n-k} over the integers, series
products by plain integer convolution, and the E8 theta series by 240*sigma_3.
"""

from __future__ import annotations

from fractions import Fraction


def sigma(k: int, limit: int) -> list:
    """sigma_k(n) for n = 0..limit (sigma_k(0) = 0), by a divisor sieve."""
    out = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dk = d ** k
        for n in range(d, limit + 1, d):
            out[n] += dk
    return out


def euler_product(exponent: int, order: int) -> list:
    """Coefficients of prod_{m>=1} (1 - q^m)^exponent up to q^order."""
    s1 = sigma(1, order)
    g = [-exponent * s1[k] for k in range(order + 1)]
    f = [1] + [0] * order
    for n in range(1, order + 1):
        acc = sum(g[k] * f[n - k] for k in range(1, n + 1))
        if acc % n:
            raise ArithmeticError(f"inexact division at q^{n}")
        f[n] = acc // n
    return f


def mul(a: list, b: list) -> list:
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def eisenstein(weight: int, order: int) -> list:
    c, k = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}[weight]
    s = sigma(k, order)
    return [1] + [c * s[n] for n in range(1, order + 1)]


def invert(a: list) -> list:
    """Inverse of an integer series with constant term 1."""
    b = [1]
    for k in range(1, len(a)):
        b.append(-sum(a[i] * b[k - i] for i in range(1, k + 1)))
    return b


def theta_e8(order: int) -> list:
    """Number of E8 vectors of norm 2n, n = 0..order: 1 then 240*sigma_3(n)."""
    s3 = sigma(3, order)
    return [1] + [240 * s3[n] for n in range(1, order + 1)]


def bryan_leung(genus: int, order: int) -> list:
    s1 = sigma(1, order + 1)
    pre = [(k + 1) * s1[k + 1] for k in range(order + 1)]
    out = euler_product(-12, order)
    for _ in range(genus):
        out = mul(out, pre)
    return out


def discriminant(order: int) -> list:
    """(E4^3 - E6^2) / 1728 up to q^order; its q^0 coefficient is 0."""
    e4, e6 = eisenstein(4, order), eisenstein(6, order)
    diff = [x - y for x, y in zip(mul(mul(e4, e4), e4), mul(e6, e6))]
    if any(x % 1728 for x in diff):
        raise ArithmeticError("E4^3 - E6^2 is not divisible by 1728")
    return [x // 1728 for x in diff]


def series_coeffs(data: dict) -> list:
    """Fractions from a QSeries JSON dict (numerator/denominator strings)."""
    return [Fraction(int(n), int(d)) for n, d in data["coeffs"]]


def series_shift(data: dict) -> Fraction:
    return Fraction(int(data["shift"][0]), int(data["shift"][1]))


def biseries_at_minus_one(data: dict) -> list:
    """A BiSeries JSON dict with its second variable set to -1."""
    return [sum(int(c) * (-1) ** a for a, c in enumerate(poly))
            for poly in data["coeffs"]]


def inertia(gram) -> tuple:
    """(positive, negative) inertia of a nondegenerate symmetric form by
    symmetric elimination over Q; a zero pivot is repaired with
    b_i += b_j or b_i -= b_j, whichever makes it nonzero."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][i] != 0), None)
            if j is None:
                raise ArithmeticError("degenerate form")
            # b_i += b_j makes the pivot a_ii + 2 a_ij + a_jj (or try minus)
            sgn = 1 if a[i][i] + 2 * a[i][j] + a[j][j] != 0 else -1
            for k in range(n):
                a[i][k] += sgn * a[j][k]
            for k in range(n):
                a[k][i] += sgn * a[k][j]
        d = a[i][i]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        for j in range(i + 1, n):
            f = a[j][i] / d
            for k in range(i, n):
                a[j][k] -= f * a[i][k]
        for j in range(i + 1, n):
            a[i][j] = Fraction(0)
            a[j][i] = Fraction(0)
    return pos, neg
