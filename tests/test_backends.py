"""Short-vector scan tests: the half-space scan over the pivots against a
full scan over the data of a Fraction LDL^T, the rejection of forms that
are not positive definite, exact counts on huge entries, and the public
entry point."""

import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from conftest import geobench
from enumgeo import _shortvec as pure
from enumgeo import lattice as lat

oracles = geobench("oracles")


def count_full(data, norm_max):
    """Reference scan: visits every vector of norm <= norm_max once."""
    rank = data["rank"]
    lm, m, ehat, lam = data["lm"], data["m"], data["ehat"], data["lam"]
    counts = [0] * (norm_max + 1)
    if norm_max < 0:
        return counts
    budget0 = lam * norm_max
    xs = [0] * rank

    def descend(i, budget):
        row = lm[i]
        chat = 0
        for j in range(i + 1, rank):
            if xs[j]:
                chat += row[j] * xs[j]
        s = isqrt(budget // ehat[i])
        mi = m[i]
        lo = -((s + chat) // mi)
        hi = (s - chat) // mi
        ei = ehat[i]
        if i == 0:
            for x in range(lo, hi + 1):
                t = mi * x + chat
                rem = budget - ei * t * t
                counts[(budget0 - rem) // lam] += 1
        else:
            for x in range(lo, hi + 1):
                xs[i] = x
                t = mi * x + chat
                descend(i - 1, budget - ei * t * t)
            xs[i] = 0

    if rank == 0:
        counts[0] = 1
        return counts
    descend(rank - 1, budget0)
    return counts


def prepare_fraction(gram):
    """Reference: the scan data from an LDL^T over Fraction; a pivot that
    is not positive raises ArithmeticError with the scan's message."""
    n = len(gram)
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for i in range(n):
        d = Fraction(gram[i][i]) - sum(
            lower[i][k] ** 2 * diag[k] for k in range(i))
        if d <= 0:
            raise ArithmeticError(
                f"pivot {i} is {d}; the form has a non-positive direction")
        diag[i] = d
        for j in range(i + 1, n):
            s = Fraction(gram[j][i]) - sum(
                lower[j][k] * lower[i][k] * diag[k] for k in range(i))
            lower[j][i] = s / d
    m = [lcm(*(lower[j][i].denominator for j in range(i + 1, n)))
         for i in range(n)]
    lm = [[int(lower[j][i] * m[i]) if j > i else 0 for j in range(n)]
          for i in range(n)]
    scaled = [diag[i] / (m[i] * m[i]) for i in range(n)]
    lam = lcm(*(s.denominator for s in scaled))
    ehat = [int(s * lam) for s in scaled]
    return {"rank": n, "lm": lm, "m": m, "ehat": ehat, "lam": lam}


def random_forms(seed, count, max_rank=6, first=(1, 2)):
    """Seeded positive-definite Gram matrices B^T B + D of rank 0..max_rank:
    B is upper triangular with diagonal 1 or 2 and entries -1..1 above it,
    D is diagonal with entries 0..1, so most forms are not unimodular.
    B_00 is drawn from ``first``; row 0 of the Gram matrix is B_00 times
    row 0 of B, so B_00 >= 2 makes the first pivot B_00**2 + D_00 > 1 and
    its row's entries B_00*B_0j leave residues modulo it."""
    rng = random.Random(seed)
    forms = []
    for k in range(count):
        n = k % (max_rank + 1)
        b = [[rng.randint(*first) if i == j == 0 else
              rng.randint(1, 2) if i == j else rng.randint(-1, 1) * (i < j)
              for j in range(n)] for i in range(n)]
        gram = tuple(tuple(sum(b[r][i] * b[r][j] for r in range(n))
                           + (rng.randint(0, 1) if i == j else 0)
                           for j in range(n)) for i in range(n))
        forms.append(gram)
    return forms


class TestPureKernel(object):
    def test_rejects_indefinite(self):
        # the hyperbolic plane has nonzero pivots only after the repair
        # b_0 += b_1, and must still be rejected; the check comes before
        # the early return on a negative bound
        for gram in (((1, 0), (0, -1)), ((0,),), ((0, 1), (1, 0)),
                     ((1, 1), (1, 1))):
            for norm_max in (-1, 0, 4):
                with pytest.raises(pure.NotPositiveDefinite):
                    pure.count_by_norm(gram, norm_max)

    def test_prepare_matches_fraction_oracle(self):
        # every rank 0..8, against the full scan over the data of the
        # Fraction LDL^T that count_by_norm no longer builds
        forms = random_forms(3, 945, max_rank=8)
        assert {len(gram) for gram in forms} == set(range(9))
        steps = set()
        for k, gram in enumerate(forms):
            data = prepare_fraction(gram)
            steps.update(data["m"])
            norm_max = k % 12 - 1
            assert pure.count_by_norm(gram, norm_max) == \
                count_full(data, norm_max), (gram, norm_max)
        assert max(steps) > 1

    def test_rejects_like_fraction_oracle(self):
        # shifted diagonals make many forms indefinite or degenerate; the
        # message matches unless the oracle stops at a zero pivot, which the
        # elimination repairs before it finds a non-positive one
        rng = random.Random(4)
        rejected = 0
        for k, gram in enumerate(random_forms(4, 600, max_rank=8)):
            shifted = tuple(tuple(x - (rng.randint(0, 3) if i == j else 0)
                                  for j, x in enumerate(row))
                            for i, row in enumerate(gram))
            norm_max = k % 6 - 1
            try:
                expected = prepare_fraction(shifted)
            except ArithmeticError as exc:
                rejected += 1
                with pytest.raises(pure.NotPositiveDefinite) as got:
                    pure.count_by_norm(shifted, norm_max)
                if " is 0;" not in str(exc):
                    assert str(got.value) == str(exc), shifted
                continue
            assert pure.count_by_norm(shifted, norm_max) == \
                count_full(expected, norm_max), shifted
        assert 100 < rejected < 500

    def test_identity_rank3(self):
        counts = pure.count_by_norm(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 9)
        # sums of three squares, norms 0..9
        assert counts == [1, 6, 12, 8, 6, 24, 24, 0, 12, 30]

    def test_huge_entries_stay_exact(self):
        # 2*10^19 does not fit in 64 bits; Python integers keep it exact
        for big in (2 * 10 ** 18, 2 * 10 ** 19):
            assert pure.count_by_norm(((big,),), 10) == [1] + [0] * 10


class TestHalfSpaceScan(object):
    """The half-space scan against the full scan over the oracle's data."""

    def test_matches_full_scan_on_random_forms(self):
        forms = random_forms(1, 420)
        datas = [prepare_fraction(gram) for gram in forms]
        assert any(max(data["m"], default=1) > 1 for data in datas)
        for k, (gram, data) in enumerate(zip(forms, datas)):
            norm_max = k % 12 - 1
            assert pure.count_by_norm(gram, norm_max) == \
                count_full(data, norm_max), (gram, norm_max)

    def test_matches_full_scan_at_larger_norms(self):
        # norms 20..30 on ranks 1..8: level 1 meets the same leaf budget
        # many times, so most leaves come from the call's cache
        forms = [gram for gram in random_forms(5, 135, max_rank=8) if gram]
        assert {len(gram) for gram in forms} == set(range(1, 9))
        for k, gram in enumerate(forms):
            norm_max = 20 + k % 11
            assert pure.count_by_norm(gram, norm_max) == \
                count_full(prepare_fraction(gram), norm_max), (gram, norm_max)

    def test_first_pivot_above_one(self):
        # t_0 steps by p_0 > 1 from a centre c_0 = sum_j a_0j*x_j that is
        # not a multiple of p_0, so leaves differ by residue at one budget
        forms = [gram for gram in random_forms(6, 135, max_rank=8,
                                               first=(2, 3)) if gram]
        assert all(gram[0][0] > 1 for gram in forms)
        assert sum(any(a % gram[0][0] for a in gram[0][1:])
                   for gram in forms) > 80
        for k, gram in enumerate(forms):
            norm_max = 10 + k % 21
            assert pure.count_by_norm(gram, norm_max) == \
                count_full(prepare_fraction(gram), norm_max), (gram, norm_max)

    def test_no_state_survives_a_call(self):
        # both forms start with the leaf key (4, 0): budget
        # LAM*norm_max = 1*4 and 2*2, yet the leaves differ; then two
        # random forms and E8 back to back, each scanned twice
        square, skew = ((1, 0), (0, 1)), ((1, 0), (0, 2))
        e8 = lat.e8_lattice().gram
        cases = [(square, 4), (skew, 2), (e8, 8)] + [
            (gram, 24) for gram in random_forms(7, 9, max_rank=8)[7:]]
        expected = [count_full(prepare_fraction(gram), norm_max)
                    for gram, norm_max in cases]
        assert expected[0] == [1, 4, 4, 0, 4]
        assert expected[1] == [1, 2, 2]
        for _ in range(2):
            for (gram, norm_max), want in zip(cases, expected):
                assert pure.count_by_norm(gram, norm_max) == want, gram

    def test_a2_to_norm_1200(self):
        # A2's pivot row a_01 = -1 moves c_0 inside level 1's loop, which
        # E8's a_01 = 0 never does; Q = 2(x^2 - xy + y^2) takes the value
        # 2m in 6*sum_{d | m} chi_-3(d) ways, chi_-3(d) = 0, 1, -1 for
        # d = 0, 1, 2 (mod 3)
        half = 600
        sums = [0] * (half + 1)
        for d in range(1, half + 1):
            for m in range(d, half + 1, d):
                sums[m] += (0, 1, -1)[d % 3]
        expected = [1] + [0 if n % 2 else 6 * sums[n // 2]
                          for n in range(1, 2 * half + 1)]
        assert pure.count_by_norm(((2, -1), (-1, 2)), 2 * half) == expected

    def test_e8_theta_coefficients(self):
        gram = lat.e8_lattice().gram
        theta = oracles.theta_e8(11)
        expected = [0 if n % 2 else theta[n // 2] for n in range(23)]
        for norm_max in (0, 1, 2, 9, 22):
            assert pure.count_by_norm(gram, norm_max) == \
                expected[:norm_max + 1]


class TestEnumerateVectors(object):
    def test_huge_entries(self):
        lattice = lat.SurfaceLattice(
            rank=1, gram=((2 * 10 ** 18,),), basis_labels=("x",),
            canonical=(0,))
        counts = lat.enumerate_vectors(lattice, 10)
        assert counts[0] == 1 and sum(counts.values()) == 1
