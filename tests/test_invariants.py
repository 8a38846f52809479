"""Invariant-series tests: Hilbert-scheme Euler numbers, refined
two-variable series, section-plus-fiber counts, wall-crossing bookkeeping."""

import random
import warnings
from fractions import Fraction

import pytest

from enumgeo import invariants as inv
from enumgeo import lattice as lat
from enumgeo import modforms as mf
from enumgeo.series import QSeries, int_binomial, product_family


def brute_sigma1(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def biseries_schoolbook(f, g):
    """Oracle: the truncated BiSeries product by the plain four-deep loop
    over q- and t-exponents, skipping zero terms."""
    n = min(f.order, g.order)
    out = [[0] for _ in range(n + 1)]
    for i in range(n + 1):
        pi = f.coeffs[i]
        if pi == (0,):
            continue
        for j in range(n + 1 - i):
            pj = g.coeffs[j]
            if pj == (0,):
                continue
            tgt = out[i + j]
            need = len(pi) + len(pj) - 1
            if len(tgt) < need:
                tgt.extend([0] * (need - len(tgt)))
            for a, ca in enumerate(pi):
                if ca:
                    for b, cb in enumerate(pj):
                        if cb:
                            tgt[a + b] += ca * cb
    return inv.BiSeries(out, var_q=f.var_q, var_t=f.var_t, order=n)


def rand_biseries(rng, order, bits):
    """Random t-polynomials of degree <= 4k at q**k, some of them zero."""
    polys = []
    for k in range(order + 1):
        if rng.random() < 0.25:
            polys.append((0,))
            continue
        polys.append(tuple(
            rng.randint(-2 ** bits, 2 ** bits) if rng.random() < 0.7 else 0
            for _ in range(rng.randint(1, 4 * k + 1))))
    return inv.BiSeries(polys, order=order)


def goettsche_by_factors(surface, order):
    """Oracle: Göttsche's product as one BiSeries factor
    (1 - (-t)**a q**m)**e per pair (m, Betti index), each expanded by the
    binomial theorem and multiplied in by ``biseries_schoolbook``."""
    out = inv.BiSeries.one(order)
    b = surface.betti
    for m in range(1, order + 1):
        for i in range(5):
            a = 2 * m - 2 + i
            e = b[i] if i % 2 else -b[i]
            polys = [[1]] + [[0] for _ in range(order)]
            for j in range(1, order // m + 1):
                coeff = int_binomial(e, j) * (-1) ** j * (-1) ** (a * j)
                polys[m * j] = [0] * (a * j) + [coeff]
            out = biseries_schoolbook(out, inv.BiSeries(polys, order=order))
    return out


#: the three presets and two surfaces with b1 != 0 (an abelian surface and
#: a ruled surface over an elliptic curve), whose polynomials carry signs
GOETTSCHE_SURFACES = {
    "p2": inv.SurfaceData.projective_plane(),
    "k3": inv.SurfaceData.k3(),
    "b9": inv.SurfaceData.half_k3(),
    "abelian": inv.SurfaceData(betti=(1, 4, 6, 4, 1), chi_top=0, chi_O=0,
                               p_g=1, b1_zero=False),
    "elliptic-ruled": inv.SurfaceData(betti=(1, 2, 2, 2, 1), chi_top=0,
                                      chi_O=0, p_g=0, b1_zero=False),
}


class TestSurfaceData(object):
    def test_presets(self):
        p2 = inv.SurfaceData.projective_plane()
        assert p2.betti == (1, 0, 1, 0, 1)
        assert p2.chi_top == 3 and p2.p_g == 0 and p2.chi_O == 1
        k3 = inv.SurfaceData.k3()
        assert k3.betti == (1, 0, 22, 0, 1)
        assert k3.chi_top == 24 and k3.chi_O == 2 and k3.p_g == 1
        b9 = inv.SurfaceData.half_k3()
        assert b9.betti == (1, 0, 10, 0, 1)
        assert b9.chi_top == 12 and b9.chi_O == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            inv.SurfaceData(betti=(1, 0, 1), chi_top=2, chi_O=1, p_g=0)
        with pytest.raises(ValueError):
            inv.SurfaceData(betti=(1, 0, 1, 0, 1), chi_top=99, chi_O=1, p_g=0)
        with pytest.raises(ValueError):
            # b1 = 0 forces chi_O = 1 + p_g
            inv.SurfaceData(betti=(1, 0, 1, 0, 1), chi_top=3, chi_O=5, p_g=0)


class TestHilbEuler(object):
    def test_p2(self):
        s = inv.hilb_euler_series(inv.SurfaceData.projective_plane(), 6)
        assert s.coefficients() == (1, 3, 9, 22, 51, 108, 221)

    def test_k3(self):
        s = inv.hilb_euler_series(inv.SurfaceData.k3(), 5)
        assert s.coefficients() == (1, 24, 324, 3200, 25650, 176256)

    def test_half_k3(self):
        s = inv.hilb_euler_series(inv.SurfaceData.half_k3(), 4)
        assert s.coefficients() == (1, 12, 90, 520, 2535)

    def test_chi_zero_is_trivial(self):
        flat = inv.SurfaceData(betti=(1, 2, 2, 2, 1), chi_top=0,
                               chi_O=0, p_g=1, b1_zero=False)
        assert inv.hilb_euler_series(flat, 8) == QSeries.one(8)


class TestBiSeries(object):
    def test_one_is_multiplicative_identity(self):
        g = inv.goettsche_series(inv.SurfaceData.projective_plane(), 3)
        h = g * inv.BiSeries.one(3)
        assert h == g

    def test_degree_cap_enforced(self):
        with pytest.raises(ValueError):
            inv.BiSeries([(1,), (0, 0, 0, 0, 0, 1)], order=1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            inv.BiSeries([], order=-1)
        with pytest.raises(ValueError):
            inv.BiSeries.from_json_dict(
                {"coeffs": [], "order": -1, "var_q": "q", "var_t": "t"})

    def test_mul_against_hand_product(self):
        a = inv.BiSeries([(1,), (1, 1)], order=2)   # 1 + (1+t) q
        b = inv.BiSeries([(2,), (0, 3)], order=2)   # 2 + 3t q
        c = a * b
        assert c.coefficient(0) == (2,)
        assert c.coefficient(1) == (2, 5)           # 2(1+t) + 3t
        assert c.coefficient(2) == (0, 3, 3)        # (1+t) 3t

    def test_mul_matches_schoolbook(self):
        rng = random.Random(61)
        for trial in range(420):
            bits = rng.choice((1, 8, 40, 70, 90))
            f = rand_biseries(rng, rng.randint(0, 7), bits)
            g = rand_biseries(rng, rng.randint(0, 7), bits)
            if trial % 10 == 0:
                f = inv.BiSeries([(0,)], order=f.order)
            elif trial % 10 == 1:
                g = inv.BiSeries([(0,)], order=g.order)
            for x, y in ((f, g), (g, f)):
                want = biseries_schoolbook(x, y)
                got = x * y
                assert got.order == want.order
                assert got.coeffs == want.coeffs

    @pytest.mark.parametrize("left", ["p2", "k3", "b9", "abelian"])
    def test_mul_of_goettsche_series_matches_schoolbook(self, left):
        # every pair of surfaces at orders 0-15, also of different orders
        for order in range(16):
            f = inv.goettsche_series(GOETTSCHE_SURFACES[left], order)
            for right in ("p2", "k3", "b9", "abelian"):
                other = GOETTSCHE_SURFACES[right]
                for n in (order, (order * 7) % 16):
                    g = inv.goettsche_series(other, n)
                    want = biseries_schoolbook(f, g)
                    assert (f * g).coeffs == want.coeffs, (right, order, n)

    @pytest.mark.parametrize("shape", ["sparse", "dense", "negative",
                                       "extreme", "all-zero"])
    def test_mul_shapes_match_schoolbook(self, shape):
        # the two orders are drawn independently, so most pairs differ
        rng = random.Random(shape)

        def poly(k):
            if shape == "sparse":      # one monomial, most q-orders empty
                if rng.random() < 0.6:
                    return (0,)
                a = rng.randint(0, 4 * k)
                return (0,) * a + (rng.choice((-1, 1)) * rng.randint(1, 9),)
            if shape == "dense":       # full degree 4k, no zero digit
                return tuple(rng.choice((-1, 1)) * rng.randint(1, 2 ** 64)
                             for _ in range(4 * k + 1))
            if shape == "negative":
                return tuple(-rng.randint(1, 2 ** 20)
                             for _ in range(rng.randint(1, 4 * k + 1)))
            if shape == "extreme":     # digits at the edge of a byte width
                return tuple(rng.choice((-1, 1)) * (2 ** rng.choice(
                    (7, 8, 15, 16, 63, 64)) - rng.randint(0, 1))
                    for _ in range(rng.randint(1, 4 * k + 1)))
            return (0,)

        for _ in range(30):
            f, g = (inv.BiSeries([poly(k) for k in range(n + 1)], order=n)
                    for n in (rng.randint(0, 12), rng.randint(0, 12)))
            for x, y in ((f, g), (g, f), (f, f)):
                want = biseries_schoolbook(x, y)
                got = x * y
                assert got.order == want.order
                assert got.coeffs == want.coeffs

    def test_mul_at_the_digit_bound(self):
        # with every coefficient +-c, a middle t-digit of the product sums
        # many products c*c; as c grows its size passes every bit position
        # of a packed digit, so some c puts it at the top of its width
        for bits in range(1, 65):
            c = 2 ** bits - 1
            f = inv.BiSeries([(c,) * (4 * k + 1) for k in range(9)], order=8)
            g = inv.BiSeries([(c, -c) * 2 * k + (c,) for k in range(9)],
                             order=8)
            for x, y in ((f, f), (f, g), (g, g)):
                assert (x * y).coeffs == biseries_schoolbook(x, y).coeffs

    def test_str(self):
        g = inv.BiSeries([(1,), (-1, 1, 0, -1), (0,), (2, 0, -3, 1)],
                         order=3)
        assert str(g) == ("q^0: 1\nq^1: -1 + t - t^3\nq^2: 0\n"
                          "q^3: 2 - 3*t^2 + t^3")
        zero = inv.BiSeries([(0,)], var_q="x", var_t="y", order=2)
        assert str(zero) == "x^0: 0\nx^1: 0\nx^2: 0"

    def test_json_round_trip(self):
        g = inv.goettsche_series(inv.SurfaceData.half_k3(), 4)
        again = inv.BiSeries.from_json_dict(g.to_json_dict())
        assert again == g

    def test_coefficient_bounds(self):
        g = inv.BiSeries.one(2)
        with pytest.raises(IndexError):
            g.coefficient(3)


class TestGoettsche(object):
    def test_q1_is_signed_betti_tuple(self):
        for surface in (inv.SurfaceData.projective_plane(),
                        inv.SurfaceData.k3(), inv.SurfaceData.half_k3()):
            g = inv.goettsche_series(surface, 1)
            b = surface.betti
            assert g.coefficient(0) == (1,)
            assert g.coefficient(1) == (b[0], -b[1], b[2], -b[3], b[4])

    def test_t_minus_one_recovers_euler_series(self):
        for surface in (inv.SurfaceData.projective_plane(),
                        inv.SurfaceData.k3(), inv.SurfaceData.half_k3()):
            g = inv.goettsche_series(surface, 12)
            assert g.eval_t(-1) == inv.hilb_euler_series(surface, 12)

    @pytest.mark.parametrize("value", [-1, 0, 2, Fraction(1, 3),
                                       Fraction(-7, 2)],
                             ids=["-1", "0", "2", "1/3", "-7/2"])
    def test_eval_t_matches_fraction_horner(self, value):
        # reference: Horner's rule over Fraction, coefficient by coefficient
        def horner(poly):
            acc = Fraction(0)
            for c in reversed(poly):
                acc = acc * value + c
            return acc

        rng = random.Random(5)
        series = [inv.goettsche_series(s, 10)
                  for s in GOETTSCHE_SURFACES.values()]
        series.append(inv.BiSeries(
            [[rng.randint(-9, 9) for _ in range(4 * k + 1)]
             for k in range(8)]))
        for g in series:
            expected = [horner(poly) for poly in g.coeffs]
            got = g.eval_t(value)
            assert got.order == g.order
            assert list(got.coeffs) == expected

    def test_polynomials_are_palindromic(self):
        # Poincare duality of the punctual Hilbert scheme: the degree-4k
        # polynomial at q^k reads the same in both directions
        g = inv.goettsche_series(inv.SurfaceData.half_k3(), 6)
        for k in range(1, 7):
            poly = list(g.coefficient(k))
            poly += [0] * (4 * k + 1 - len(poly))
            assert poly == poly[::-1]

    def test_p2_length_two(self):
        g = inv.goettsche_series(inv.SurfaceData.projective_plane(), 2)
        assert g.coefficient(2) == (1, 0, 2, 0, 3, 0, 2, 0, 1)

    @pytest.mark.parametrize("name", sorted(GOETTSCHE_SURFACES))
    @pytest.mark.parametrize("order", [0, 1, 5, 20])
    def test_matches_biseries_factor_product(self, name, order):
        surface = GOETTSCHE_SURFACES[name]
        g = inv.goettsche_series(surface, order)
        assert g.order == order
        assert g.coeffs == goettsche_by_factors(surface, order).coeffs


class TestBryanLeung(object):
    def test_genus_zero(self):
        s = inv.bryan_leung_series(0, 5)
        assert s.coefficients() == (1, 12, 90, 520, 2535, 10908)

    def test_genus_one_digits(self):
        s = inv.bryan_leung_series(1, 3)
        assert s.coefficients() == (1, 18, 174, 1232)

    def test_cauchy_oracle_to_order_15(self):
        # plain-loop recomputation, no series machinery
        order = 15
        eta12 = [Fraction(0)] * (order + 1)
        eta12[0] = Fraction(1)
        for m in range(1, order + 1):
            # multiply by (1-q^m)^-12 one factor at a time
            factor = [Fraction(1)]
            top = order // m
            coeff = Fraction(1)
            for j in range(1, top + 1):
                coeff = coeff * (12 + j - 1) / j
                factor.append(coeff)
            new = [Fraction(0)] * (order + 1)
            for i, c in enumerate(eta12):
                for j, f in enumerate(factor):
                    if i + j * m <= order:
                        new[i + j * m] += c * f
            eta12 = new
        for genus in (0, 1, 2, 3):
            pre = [Fraction((k + 1) * brute_sigma1(k + 1))
                   for k in range(order + 1)]
            acc = [Fraction(1)] + [Fraction(0)] * order
            for _ in range(genus):
                nxt = [Fraction(0)] * (order + 1)
                for i in range(order + 1):
                    for j in range(order + 1 - i):
                        nxt[i + j] += acc[i] * pre[j]
                acc = nxt
            expect = [Fraction(0)] * (order + 1)
            for i in range(order + 1):
                for j in range(order + 1 - i):
                    expect[i + j] += acc[i] * eta12[j]
            got = inv.bryan_leung_series(genus, order)
            assert list(got.coefficients()) == expect

    def test_negative_genus(self):
        with pytest.raises(ValueError):
            inv.bryan_leung_series(-1, 4)


class TestEllipticGenusOne(object):
    def test_sigma_over_k(self):
        coeffs = inv.elliptic_genus1_coeffs(24)
        for k, c in enumerate(coeffs, start=1):
            assert c == Fraction(brute_sigma1(k), k)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            inv.elliptic_genus1_coeffs(0)


class TestDTTrivialElliptic(object):
    def test_zero_sector(self):
        # the degree-zero-fiber series prod(1 - v**m)**(-chi_top)
        chi = inv.SurfaceData.half_k3().chi_top
        s = product_family(lambda m: -chi, 4, var="v")
        assert s.var == "v"
        assert s.coefficients() == (1, 12, 90, 520, 2535)


class TestHalfK3Z1(object):
    def test_digits(self):
        s = inv.half_k3_z1(5)
        assert s.shift == 0
        assert s.coefficients() == (1, 252, 5130, 54760, 419895, 2587788)


class TestGromov(object):
    def test_section_plus_fibers(self):
        # B + dF: beta^2 = 2d - 1, K.beta = -1, genus d, d points
        for d in range(6):
            chk = inv.gromov_conditions(2 * d - 1, -1)
            assert chk.genus == d
            assert chk.n_points == d
            assert chk.admissible and not chk.toroidal

    def test_fiber_class_is_toroidal(self):
        chk = inv.gromov_conditions(0, 0)
        assert chk.toroidal and not chk.admissible
        assert chk.genus == 1

    def test_point_count_identity(self):
        for beta_sq in range(-3, 6):
            for k_beta in range(-4, 4):
                if (beta_sq + k_beta) % 2:
                    continue
                chk = inv.gromov_conditions(beta_sq, k_beta)
                assert chk.n_points - chk.genus == -k_beta - 1

    def test_parity_enforced(self):
        with pytest.raises(inv.ParityViolation):
            inv.gromov_conditions(1, 0)


class TestChernVector(object):
    def test_chi_and_dimension(self):
        v = inv.ChernVector(r=2, a_h=1, a_K=0, a_sq=1, n=1)
        assert inv.chi_v(v, 1) == 3
        assert inv.virtual_dim(v, 1) == 1 - 4 - 3

    def test_non_integer_dimension_rejected(self):
        v = inv.ChernVector(r=2, a_h=1, a_K=0, a_sq=1, n=Fraction(1, 3))
        with pytest.raises(ValueError):
            inv.virtual_dim(v, 1)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            inv.ChernVector(r=-1, a_h=1, a_K=0, a_sq=1, n=0)


class TestSWInvariants(object):
    def test_dimension_zero_cases(self):
        # plane, c = 3h: (9 - 6 - 3)/4 = 0
        assert inv.sw_dimension(9, 3, 1) == 0
        # K3, c = 0: (0 - 48 + 48)/4 = 0
        assert inv.sw_dimension(0, 24, -16) == 0
        assert inv.sw_dimension(1, 3, 1) == Fraction(-2)

    def test_plane_table(self):
        plus = {c: inv.sw_p2(c, "+") for c in range(-9, 10, 2)}
        minus = {c: inv.sw_p2(c, "-") for c in range(-9, 10, 2)}
        for c in plus:
            assert plus[c] == (1 if c >= 3 else 0)
            assert minus[c] == (-1 if c <= -3 else 0)

    def test_plane_wall_crossing(self):
        for c in (-9, -7, -5, -3, 3, 5, 7, 9):
            assert inv.sw_p2(c, "+") - inv.sw_p2(c, "-") == 1
        for c in (-1, 1):
            assert inv.sw_p2(c, "+") - inv.sw_p2(c, "-") == 0

    def test_even_class_rejected(self):
        with pytest.raises(inv.EvenClass):
            inv.sw_p2(2, "+")
        with pytest.raises(ValueError):
            inv.sw_p2(3, "plus")

    def test_closed_form(self):
        assert [inv.sw_closed_form(d, 1) for d in range(3)] == [1, 0, 0]
        assert [inv.sw_closed_form(d, 3) for d in range(4)] == [1, -2, 1, 0]
        assert [inv.sw_closed_form(d, 5) for d in range(5)] == \
            [1, -4, 6, -4, 1]

    def test_closed_form_sums_to_zero(self):
        # binomial theorem at -1: total over all dimensions vanishes
        for p_g in range(2, 9):
            assert sum(inv.sw_closed_form(d, p_g) for d in range(p_g)) == 0

    def test_closed_form_validation(self):
        with pytest.raises(inv.NonpositivePg):
            inv.sw_closed_form(0, 0)
        with pytest.raises(ValueError):
            inv.sw_closed_form(-1, 2)


class TestMochizuki(object):
    def make_v(self, a_h=5, r=2):
        return inv.ChernVector(r=r, a_h=a_h, a_K=0, a_sq=1, n=1)

    def test_hand_summed_oracle(self):
        decomps = [
            inv.SWDecomposition(a1_h=1, a2_h=4, sw_a1=1,
                                a_value=Fraction(3, 2)),
            inv.SWDecomposition(a1_h=2, a2_h=3, sw_a1=-1,
                                a_value=Fraction(7)),
        ]
        # -(1 * 2^-3 * 3/2 + (-1) * 2^-3 * 7) = -3/16 + 7/8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            total = inv.mochizuki_sum(self.make_v(), 4, decomps)
        assert total == Fraction(-3, 16) + Fraction(7, 8)

    def test_empty_sum_is_zero(self):
        assert inv.mochizuki_sum(self.make_v(), 2, []) == 0

    def test_non_integer_chi(self):
        with pytest.raises(inv.NonIntegerChiV):
            inv.mochizuki_sum(self.make_v(), Fraction(3, 2), [])

    def test_splitting_must_match(self):
        bad = [inv.SWDecomposition(a1_h=1, a2_h=3, sw_a1=1, a_value=1)]
        with pytest.raises(ValueError):
            inv.mochizuki_sum(self.make_v(a_h=5), 2, bad)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            inv.SWDecomposition(a1_h=3, a2_h=1, sw_a1=1, a_value=1)

    def test_hypothesis_warnings(self):
        with pytest.warns(inv.HypothesisWarning, match="chi"):
            inv.mochizuki_sum(self.make_v(), 0, [])
        with pytest.warns(inv.HypothesisWarning, match="rank"):
            inv.mochizuki_sum(self.make_v(r=3), 2, [])
        with pytest.warns(inv.HypothesisWarning, match="even"):
            inv.mochizuki_sum(self.make_v(a_h=4), 2, [])
        with pytest.warns(inv.HypothesisWarning, match="2\\*K.h"):
            inv.mochizuki_sum(self.make_v(a_h=5), 2, [], k_dot_h=3)

    def test_no_warning_when_hypotheses_hold(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv.mochizuki_sum(self.make_v(a_h=7), 2, [], k_dot_h=3)

    def test_assemble(self):
        # the invariant is the wall-crossing part plus the residual term
        part = inv.mochizuki_sum(self.make_v(a_h=7), 2, [
            inv.SWDecomposition(a1_h=1, a2_h=6, sw_a1=1,
                                a_value=Fraction(3, 2))])
        assert part == Fraction(-3, 4)
        assert part + Fraction(1, 4) == Fraction(-1, 2)


_V = inv.ChernVector(r=2, a_h=5, a_K=0, a_sq=1, n=1)


class TestExactInputs(object):
    @pytest.mark.parametrize("call", [
        lambda: inv.goettsche_series(inv.SurfaceData.projective_plane(),
                                     2).eval_t(0.1),
        lambda: inv.ChernVector(r=2, a_h=5, a_K=0, a_sq=1, n=0.1),
        lambda: inv.chi_v(_V, 0.5),
        lambda: inv.virtual_dim(_V, 1.0),
        lambda: inv.SWDecomposition(a1_h=1, a2_h=4, sw_a1=1, a_value=0.5),
        lambda: inv.mochizuki_sum(_V, 2.0, []),
        lambda: mf.solve_exact([[1, 0.5]], [1]),
        lambda: mf.solve_exact([[1, 2]], [0.5]),
        lambda: mf.fit_quasi_homogeneous(4, 0, [(0, 1.0)]),
    ], ids=["eval_t", "ChernVector.n", "chi_v", "virtual_dim",
            "SWDecomposition.a_value", "mochizuki_sum", "solve_exact.rows",
            "solve_exact.rhs", "fit_quasi_homogeneous.targets"])
    def test_float_rejected(self, call):
        # a float would enter as its binary expansion, not the rational meant
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: lat.SurfaceLattice(rank=1, gram=((2.9,),),
                                   basis_labels=("x",)),
        lambda: lat.make_gamma19().adjunction_genus((3.7,) + (-1,) * 9),
        lambda: inv.SurfaceData(betti=(1, 0, 22.5, 0, 1), chi_top=24,
                                chi_O=2, p_g=1),
        lambda: inv.SurfaceData(betti=(1, 0, 22, 0, 1), chi_top=24.0,
                                chi_O=2, p_g=1),
        lambda: inv.SurfaceData(betti=(1, 0, 22, 0, 1), chi_top=24,
                                chi_O=2.0, p_g=1),
        lambda: inv.SurfaceData(betti=(1, 0, 22, 0, 1), chi_top=24,
                                chi_O=2, p_g=Fraction(1)),
        lambda: inv.BiSeries([[1], [1.7]]),
        lambda: inv.gromov_conditions(1.0, 1),
        lambda: inv.ChernVector(2.5, 1, 0, 1, 1),
        lambda: inv.ChernVector(2, 1, Fraction(0), 1, 1),
        lambda: inv.SWDecomposition(a1_h=1, a2_h=4, sw_a1=1.5, a_value=1),
        lambda: mf.fit_quasi_homogeneous(4, 0, [(0.9, 1)]),
        # at order 0 no eta factor is built, so only the entry check sees it
        lambda: mf.fit_quasi_homogeneous(4, 1.5, [(0, 1)]),
        lambda: QSeries.from_json_dict(
            {"var": "q", "shift": ["0", "1"], "order": 0,
             "coeffs": [[1.5, 1]]}),
        lambda: QSeries.from_json_dict(
            {"var": "q", "shift": [0.5, 1], "order": 0,
             "coeffs": [["1", "1"]]}),
        lambda: inv.BiSeries.from_json_dict(
            {"coeffs": [[1.7]], "var_q": "q", "var_t": "t", "order": 0}),
        lambda: inv.sw_p2(3.5, "+"),
        lambda: inv.sw_p2(3.0, "+"),
        lambda: mf.divisor_sigma(6, 1.5),
        lambda: mf.divisor_sigma(6.0, 1),
        # the first call warms the cache that 2.0 would otherwise hit
        lambda: (lat.exceptional_classes(2, 6),
                 lat.exceptional_classes(2.0, 6)),
        lambda: (lat.exceptional_classes(2, 6),
                 lat.exceptional_classes(2, 6.0)),
        lambda: inv.bryan_leung_series(0.0, 3),
        # 4.0 == 4, so a table lookup alone would build E4
        lambda: mf.eisenstein(4.0, 5),
        lambda: QSeries([1, 2], order=2.0),
    ], ids=["SurfaceLattice.gram", "adjunction_genus", "SurfaceData.betti",
            "SurfaceData.chi_top", "SurfaceData.chi_O", "SurfaceData.p_g",
            "BiSeries", "gromov_conditions", "ChernVector.r",
            "ChernVector.a_K", "SWDecomposition.sw_a1",
            "fit_quasi_homogeneous.exponent",
            "fit_quasi_homogeneous.eta_exponent", "QSeries.from_json_dict.coeffs",
            "QSeries.from_json_dict.shift", "BiSeries.from_json_dict",
            "sw_p2.half", "sw_p2.float", "divisor_sigma.k", "divisor_sigma.n",
            "exceptional_classes.k", "exceptional_classes.degree_bound",
            "bryan_leung_series.genus", "eisenstein.weight", "QSeries.order"])
    def test_non_integer_rejected(self, call):
        # int() would truncate 2.9 to 2; an integer field takes only ints
        with pytest.raises(TypeError):
            call()
