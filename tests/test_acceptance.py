"""Acceptance gate: one test per shipped guarantee, each printing a
pass line with its measured runtime.  Run with -v (or -s) for the
per-criterion lines."""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from conftest import geobench
from enumgeo import cli, invariants as inv, lattice as lat, modforms as mf
from enumgeo.series import QSeries, product_family

oracles = geobench("oracles")


@contextmanager
def timed(name, bound_s):
    t0 = perf_counter()
    yield
    dt = perf_counter() - t0
    print(f"{name}: pass ({dt:.3f}s, bound {bound_s}s)")
    assert dt < bound_s, f"{name} took {dt:.3f}s, bound {bound_s}s"


def test_criterion_01_twelfth_power_digits(capsys):
    with timed("criterion-01 eta^-12 digits", 0.1):
        rc = cli.main(["expand", "eta-quotient", "--exponent", "-12",
                       "--order", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[1] == "1, 12, 90, 520, 2535, 10908"


def test_criterion_02_goettsche_euler_specialization():
    with timed("criterion-02 t=-1 specialization, order 20", 2.0):
        for surface in (inv.SurfaceData.projective_plane(),
                        inv.SurfaceData.k3(), inv.SurfaceData.half_k3()):
            g = inv.goettsche_series(surface, 20)
            euler = product_family(lambda m: -surface.chi_top, 20)
            assert g.eval_t(-1) == euler


def test_criterion_03_theta_e8_cross_check():
    with timed("criterion-03 E8 counts vs E4, k <= 10", 10.0):
        counts = lat.enumerate_vectors(lat.e8_lattice(), 20)
        e4 = mf.eisenstein(4, 10)
        theta = oracles.theta_e8(10)
        for k in range(11):
            assert counts.get(2 * k, 0) == e4.coefficient(k)
            assert e4.coefficient(k) == theta[k]
        for n in range(1, 20, 2):
            assert counts[n] == 0


def test_criterion_04_lattice_golden_facts():
    with timed("criterion-04 lattice golden facts", 0.1):
        g19 = lat.make_gamma19()
        v = lat.gamma19_named_vectors()
        assert g19.pair(v["F"], v["B"]) == 1
        assert g19.norm(v["B"]) == -1
        assert g19.norm(v["F"]) == 0
        assert g19.signature() == (1, 9)
        basis = lat.e8_minus_basis()
        cartan = lat.e8_cartan_matrix()
        for i in range(8):
            for j in range(8):
                assert g19.pair(basis[i], basis[j]) == -cartan[i][j]
        # Euler number of the nine-point blowup, both ways
        b9 = inv.SurfaceData.half_k3()
        assert 3 - 9 + 18 == 12
        b = b9.betti
        assert b[0] - b[1] + b[2] - b[3] + b[4] == 12
        assert b9.chi_top == 12


def test_criterion_05_exceptional_class_counts():
    with timed("criterion-05 del Pezzo exceptional counts", 30.0):
        classical = (1, 3, 6, 10, 16, 27, 56, 240)
        for k, expected in enumerate(classical, start=1):
            assert len(lat.exceptional_classes(k)) == expected


def test_criterion_06_sw_plane_table_and_wall_crossing():
    with timed("criterion-06 plane chamber table", 0.1):
        # four cases: each chamber, each side of its wall
        assert inv.sw_p2(3, "+") == 1
        assert inv.sw_p2(1, "+") == 0
        assert inv.sw_p2(-3, "-") == -1
        assert inv.sw_p2(-1, "-") == 0
        for c in (3, 5):
            assert inv.sw_p2(c, "+") - inv.sw_p2(c, "-") == 1


def test_criterion_07_sw_closed_form_hand_values():
    with timed("criterion-07 closed-form values", 0.1):
        for p_g in (1, 2, 3, 7):
            assert inv.sw_closed_form(0, p_g) == 1
        assert inv.sw_closed_form(1, 3) == -2
        assert inv.sw_closed_form(5, 3) == 0


def test_criterion_08_section_fiber_series():
    with timed("criterion-08 genus 0 and 1 series", 5.0):
        assert inv.bryan_leung_series(0, 30).coefficients() == \
            mf.eta_quotient(-12, 30).coefficients()
        # genus 1 to order 15 against the independent integer oracle
        got = inv.bryan_leung_series(1, 15)
        assert list(got.coefficients()) == oracles.bryan_leung(1, 15)


def test_criterion_09_property_suites():
    with timed("criterion-09 ring axioms and identities", 30.0):
        rng = random.Random(40824)
        failures = 0
        for _ in range(1000):
            order = rng.randint(1, 16)
            def rand():
                return QSeries(
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(order + 1)], order=order)
            a, b, c = rand(), rand(), rand()
            if (a + b) * c != a * c + b * c:
                failures += 1
            if a * (b * c) != (a * b) * c:
                failures += 1
            if a * b != b * a or a + b != b + a:
                failures += 1
        assert failures == 0
        for _ in range(200):
            order = rng.randint(1, 12)
            f = QSeries(
                [Fraction(0)] + [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                                 for _ in range(order)], order=order)
            assert f.exp().log() == f
            g = QSeries.one(order) + f
            assert g.log().exp() == g
        e2, e4, e6 = (mf.eisenstein(w, 30) for w in (2, 4, 6))
        assert e2.q_d_dq() == (e2 * e2 - e4) / 12
        assert e4.q_d_dq() == (e2 * e4 - e6) / 3
        assert e6.q_d_dq() == (e2 * e6 - e4 * e4) / 2
        delta = (mf.eisenstein(4, 31) ** 3 - mf.eisenstein(6, 31) ** 2) / 1728
        assert mf.eta_quotient(24, 30).absorb_shift() == delta.truncate(30)


def test_criterion_10_weight10_fit():
    with timed("criterion-10 weight-10 fit", 1.0):
        targets = [(0, Fraction(-1, 8)), (1, Fraction(18441, 2)),
                   (2, Fraction(673760)), (3, Fraction(82133595, 4))]
        fit = mf.fit_quasi_homogeneous(10, -24, targets)
        assert fit.consistent
        assert fit.nullity == 1
        eta = product_family(lambda m: -24, 3)
        rep = None
        for c, mono in zip(fit.particular, fit.basis.monomials):
            term = mf.monomial_series(mono, 3) * eta * c
            rep = term if rep is None else rep + term
        for e, value in targets:
            assert rep.coefficient(e) == value


def test_criterion_11_printed_digit_discrepancy_flagged(capsys):
    rc = cli.main(["verify", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    flagged = [l for l in out.splitlines() if l.startswith("FLAGGED")]
    assert len(flagged) == 1
    line = flagged[0]
    assert "rank1" in line or "printed" in line
    # both digit strings must be presented, with a citation of the clash
    assert "330" in out and "5130" in out
    assert "inconsistent" in out.lower() or "disagree" in out.lower()
    # flagged is its own state: that check is neither passed nor failed
    summary = out.splitlines()[-1]
    assert "1 flagged" in summary and "0 failed" in summary
    print("criterion-11 discrepancy flagged: pass")
