"""Modular-forms tests: divisor-sum oracles, classical identities,
theta cross-checks, monomial bases, exact fitting."""

import importlib
import pkgutil
import random
from fractions import Fraction

import pytest

import enumgeo
from conftest import geobench
from enumgeo import modforms as mf
from enumgeo.series import QSeries, SeriesError, product_family

oracles = geobench("oracles")


def solve_fraction(rows, rhs):
    """Reference: Gauss-Jordan elimination over Fraction to reduced row
    echelon form.  The particular solution sets the free variables to 0;
    each free column, set to 1, gives one nullspace vector, in column
    order.  Every vector is re-checked against the rows as given."""
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(a) for a in [*row, b]] for row, b in zip(rows, rhs)]
    pivots = []  # pivots[r] is the pivot column of row r
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        piv = aug[r][c]
        aug[r] = [a / piv for a in aug[r]]
        for i, row in enumerate(aug):
            head = row[c]
            if i != r and head:
                aug[i] = [a - head * b if b else a
                          for a, b in zip(row, aug[r])]
        pivots.append(c)
    consistent = not any(row[n] for row in aug[len(pivots):])
    particular = [Fraction(0)] * n
    for row, c in zip(aug, pivots):
        particular[c] = row[n]
    nullspace = []
    for f in (c for c in range(n) if c not in pivots):
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for row, c in zip(aug, pivots):
            x[c] = -row[f]
        nullspace.append(tuple(x))
    for row, b in zip(rows, rhs):
        if consistent:
            assert sum(a * v for a, v in zip(row, particular)) == b
        for x in nullspace:
            assert sum(a * v for a, v in zip(row, x)) == 0
    return (consistent, tuple(particular) if consistent else None,
            tuple(nullspace))


_DENOMINATORS = (1, 1, 1, 2, 3, 7, 12, 10 ** 12 + 39)


def random_systems(seed, count):
    """Systems of 0-8 rows and 1-9 columns with zero rows, rows dependent
    on earlier ones, right-hand sides that break that dependence, and
    columns that are zero or a multiple of an earlier column, placed
    before columns that take a pivot."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randint(-9, 9), rng.choice(_DENOMINATORS))

    for _ in range(count):
        m, n = rng.randint(0, 8), rng.randint(1, 8)
        rows, rhs = [], []
        for _ in range(m):
            kind = rng.random()
            if kind < 0.1:
                row, b = [0] * n, rng.choice((0, entry()))
            elif kind < 0.45 and rows:
                coefs = [entry() for _ in rows]
                row = [sum(c * r[j] for c, r in zip(coefs, rows))
                       for j in range(n)]
                b = sum(c * x for c, x in zip(coefs, rhs))
                if rng.random() < 0.3:
                    b += Fraction(1, rng.choice(_DENOMINATORS))
            else:
                row, b = [entry() for _ in range(n)], entry()
            rows.append(row)
            rhs.append(b)
        if rng.random() < 0.4:
            # elimination finds no pivot in the new column and skips it
            at = rng.randrange(n)
            if at and rng.random() < 0.5:
                j, factor = rng.randrange(at), entry()
                for row in rows:
                    row.insert(at, factor * row[j])
            else:
                for row in rows:
                    row.insert(at, 0)
        yield rows, rhs


def fit_targets(weight, variant):
    """One target per monomial: (k, (k+1)^2), or (k, (-1)^k (2k+1)/(k+2))."""
    count = len(mf.weight_monomials(weight))
    if variant == 0:
        return [(k, Fraction((k + 1) ** 2)) for k in range(count)]
    return [(k, Fraction((-1) ** k * (2 * k + 1), k + 2)) for k in range(count)]


def monomials(weight):
    """The exponents (i, j, k) with 2i + 4j + 6k = weight, in lex order."""
    return sorted((i, j, k) for i in range(weight + 1)
                  for j in range(weight + 1) for k in range(weight + 1)
                  if 2 * i + 4 * j + 6 * k == weight)


def oracle_columns(weight, eta_exponent, order):
    """The fit's columns as integer lists: E2^i E4^j E6^k for each of
    ``monomials(weight)``, times the eta product, multiplied out by the
    independent oracles."""
    eis = {w: oracles.eisenstein(w, order) for w in (2, 4, 6)}
    columns = []
    for mono in monomials(weight):
        col = oracles.euler_product(eta_exponent, order)
        for w, e in zip((2, 4, 6), mono):
            for _ in range(e):
                col = oracles.mul(col, eis[w])
        columns.append(col)
    return columns


def fit_system(columns, targets):
    """The rows and right-hand sides fit_quasi_homogeneous solves, read
    off the columns."""
    rows = [[col[e] for col in columns] for e, _ in targets]
    return rows, [v for _, v in targets]


def fit_oracle(weight, eta_exponent, targets):
    """(consistent, particular, nullspace) of the fit, from the oracle
    columns and the Fraction solver."""
    columns = oracle_columns(weight, eta_exponent, max(e for e, _ in targets))
    return solve_fraction(*fit_system(columns, targets))


def fit_triple(weight, eta_exponent, targets):
    fit = mf.fit_quasi_homogeneous(weight, eta_exponent, targets)
    return fit.consistent, fit.particular, fit.nullspace


class TestEisenstein:
    def test_divisor_sigma_oracle(self):
        sigma = {k: oracles.sigma(k, 199) for k in (1, 3, 5)}
        for n in range(1, 200):
            for k in (1, 3, 5):
                assert mf.divisor_sigma(n, k) == sigma[k][n]

    def test_divisor_sigma_negative_power_rejected(self):
        # d**k is a float for k < 0, and no float may reach a result
        assert mf.divisor_sigma(6, 0) == 4
        for k in (-1, -3):
            with pytest.raises(ValueError):
                mf.divisor_sigma(6, k)

    def test_leading_coefficients(self):
        assert [int(c) for c in mf.eisenstein(2, 3).coefficients()] == \
            [1, -24, -72, -96]
        assert [int(c) for c in mf.eisenstein(4, 3).coefficients()] == \
            [1, 240, 2160, 6720]
        assert [int(c) for c in mf.eisenstein(6, 3).coefficients()] == \
            [1, -504, -16632, -122976]

    def test_only_three_weights(self):
        for bad in (0, 1, 3, 8, -2):
            with pytest.raises(mf.OddOrNonpositiveWeight):
                mf.eisenstein(bad, 5)

    def test_ramanujan_identities_order_30(self):
        e2, e4, e6 = (mf.eisenstein(w, 30) for w in (2, 4, 6))
        assert e2.q_d_dq() == (e2 * e2 - e4) / 12
        assert e4.q_d_dq() == (e2 * e4 - e6) / 3
        assert e6.q_d_dq() == (e2 * e6 - e4 * e4) / 2


class TestEtaQuotient:
    def test_shift_is_exponent_over_24(self):
        for e in (-24, -12, -1, 1, 12, 24, 36):
            f = mf.eta_quotient(e, 4)
            assert f.shift == Fraction(e, 24)

    def test_neg12_digits(self):
        f = mf.eta_quotient(-12, 5)
        assert f.coefficients() == (1, 12, 90, 520, 2535, 10908)
        assert f.shift == Fraction(-1, 2)

    def test_discriminant_identity_order_30(self):
        e4, e6 = mf.eisenstein(4, 31), mf.eisenstein(6, 31)
        delta = (e4 ** 3 - e6 ** 2) / 1728
        eta24 = mf.eta_quotient(24, 30)
        assert eta24.absorb_shift() == delta.truncate(30)

    def test_inverse_pair(self):
        f = mf.eta_quotient(12, 10)
        g = mf.eta_quotient(-12, 10)
        prod = f * g
        assert prod.shift == 0 and prod == QSeries.one(10)


class TestThetaE8:
    def test_cross_method_order_10(self):
        assert mf.theta_e8(10, "lattice") == mf.theta_e8(10, "eisenstein")

    def test_sigma3_oracle(self):
        t = mf.theta_e8(10, "lattice")
        assert list(t.coefficients()) == oracles.theta_e8(10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            mf.theta_e8(4, "guess")

    @pytest.mark.parametrize("method", ["eisenstein", "lattice"])
    def test_negative_order_before_any_scan(self, method, monkeypatch):
        def no_scan(order):
            raise AssertionError("the E8 scan ran")
        monkeypatch.setattr(mf, "_theta_counts", no_scan)
        with pytest.raises(SeriesError, match=r"^order must be >= 0, got -1$"):
            mf.theta_e8(-1, method)

    def test_each_order_scanned_once(self, monkeypatch):
        scans = []
        scan = mf._lattice.enumerate_vectors
        monkeypatch.setattr(mf._lattice, "enumerate_vectors",
                            lambda *args: scans.append(args) or scan(*args))
        mf._theta_counts.cache_clear()
        for _ in range(2):
            for order in range(1, 10):
                got = mf.theta_e8(order, "lattice").coefficients()
                assert list(got) == oracles.theta_e8(order)
        info = mf._theta_counts.cache_info()
        assert (info.misses, info.hits, len(scans)) == (9, 9, 9)
        mf._theta_counts.cache_clear()
        mf.theta_e8(3, "lattice")
        assert len(scans) == 10

    def test_no_cache_survives_clear_caches(self):
        # the benchmark's cli-fresh requests model fresh processes, so
        # jobs.clear_caches must empty every module-level cache
        jobs = geobench("jobs")
        caches = set()
        for info in pkgutil.iter_modules(enumgeo.__path__):
            module = importlib.import_module(f"enumgeo.{info.name}")
            caches |= {value for value in vars(module).values()
                       if hasattr(value, "cache_clear")}
        mf.theta_e8(2, "lattice")
        jobs.clear_caches()
        assert caches == {mf._theta_counts}
        assert all(c.cache_info().currsize == 0 for c in caches)


class TestMonomialBasis:
    def test_brute_force_enumeration(self):
        for w in (2, 4, 6, 8, 10, 12, 14):
            assert list(mf.weight_monomials(w).monomials) == monomials(w)

    def test_weight_10_has_five(self):
        basis = mf.weight_monomials(10)
        assert len(basis) == 5
        assert basis.monomials == (
            (0, 1, 1), (1, 2, 0), (2, 0, 1), (3, 1, 0), (5, 0, 0))

    def test_weight_4(self):
        assert mf.weight_monomials(4).monomials == ((0, 1, 0), (2, 0, 0))

    def test_bad_weights(self):
        for w in (0, -2, 3, 7):
            with pytest.raises(mf.OddOrNonpositiveWeight):
                mf.weight_monomials(w)

    def test_labels(self):
        assert mf.weight_monomials(4).labels() == ("E4", "E2^2")

    @pytest.mark.parametrize("order", [0, 5, 30])
    def test_monomial_series_is_product_of_powers(self, order):
        monomials = {(0, 0, 0)} | {m for w in range(2, 17, 2)
                                   for m in mf.weight_monomials(w).monomials}
        for m in sorted(monomials):
            want = QSeries.one(order)
            for w, e in zip((2, 4, 6), m):
                want = want * mf.eisenstein(w, order) ** e
            got = mf.monomial_series(m, order)
            assert got.order == order and got == want


class TestSolveExact:
    def test_against_random_known_solutions(self):
        rng = random.Random(123)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = rng.randint(1, 6)
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(m)]
            x = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
            consistent, particular, nullspace = mf.solve_exact(rows, rhs)
            assert consistent
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, particular)) == b
                for vec in nullspace:
                    assert sum(a * v for a, v in zip(row, vec)) == 0
            # rank-nullity on the coefficient matrix
            pivots = n - len(nullspace)
            assert 0 <= pivots <= min(m, n)

    def test_inconsistent_detected(self):
        consistent, particular, nullspace = mf.solve_exact(
            [[1, 1], [2, 2]], [1, 3])
        assert not consistent and particular is None
        assert len(nullspace) == 1

    def test_underdetermined(self):
        consistent, particular, nullspace = mf.solve_exact(
            [[1, 1, 1]], [6])
        assert consistent and len(nullspace) == 2
        assert sum(particular) == 6

    def test_matches_fraction_oracle(self):
        kinds = set()
        for rows, rhs in random_systems(808, 2400):
            got = mf.solve_exact(rows, rhs)
            assert got == solve_fraction(rows, rhs)
            assert all(type(v) is Fraction
                       for vec in (got[1] or (),) + got[2] for v in vec)
            kinds.add((len(rows) == 0, got[0], len(got[2]) > 0))
        # systems without rows (so without columns), and consistent and
        # inconsistent systems with and without a nullspace, all occur
        assert kinds == {(True, True, False), (False, True, False),
                         (False, True, True), (False, False, True),
                         (False, False, False)}

    @pytest.mark.parametrize("eta_exponent", [-24, -12, 0])
    def test_fit_systems_match_fraction_oracle(self, eta_exponent):
        for weight in range(12, 31, 2):
            for variant in (0, 1):
                targets = fit_targets(weight, variant)
                rows, rhs = fit_system(
                    oracle_columns(weight, eta_exponent, len(targets) - 1),
                    targets)
                assert mf.solve_exact(rows, rhs) == solve_fraction(rows, rhs)

    def test_oracle_imports_nothing_from_enumgeo(self, enumgeo_reads):
        assert enumgeo_reads(solve_fraction) == set()

    def test_zero_row(self):
        basis = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert mf.solve_exact([[0, 0]], [0]) == (True, (0, 0), basis)
        assert mf.solve_exact([[0, 0]], [1]) == (False, None, basis)

    def test_no_rows(self):
        assert mf.solve_exact([], []) == (True, (), ())


class TestFit:
    @pytest.mark.parametrize("eta_exponent", [-24, -12, -1, 0, 8, 24])
    def test_matches_qseries_oracle(self, eta_exponent):
        for weight in range(2, 31, 2):
            for variant in (0, 1):
                targets = fit_targets(weight, variant)
                assert fit_triple(weight, eta_exponent, targets) == \
                    fit_oracle(weight, eta_exponent, targets)

    def test_matches_qseries_oracle_on_random_targets(self):
        # unsorted, repeated and gapped exponents; half of the sets take
        # their values from a combination of the columns, so that long
        # sets are consistent too
        rng = random.Random(1010)
        kinds = set()
        for _ in range(60):
            weight = rng.randrange(2, 31, 2)
            eta = rng.choice((-24, -12, -1, 0, 8, 24))
            exps = [rng.randint(0, 30) for _ in range(rng.randint(1, 14))]
            columns = oracle_columns(weight, eta, max(exps))
            if rng.random() < 0.5:
                coefs = [rng.randint(-3, 3) for _ in columns]
                values = [sum(c * col[e] for c, col in zip(coefs, columns))
                          for e in exps]
            else:
                values = [Fraction(rng.randint(-50, 50), rng.randint(1, 6))
                          for _ in exps]
            targets = list(zip(exps, values))
            got = fit_triple(weight, eta, targets)
            assert got == solve_fraction(*fit_system(columns, targets))
            kinds.add((got[0], len(got[2]) > 0,
                       len(set(exps)) < len(exps)))
        # consistent and inconsistent sets, with and without a nullspace,
        # occur, and repeated exponents occur in both kinds of set
        assert {kind[:2] for kind in kinds} == {
            (True, True), (True, False), (False, True), (False, False)}
        assert {kind[0] for kind in kinds if kind[2]} == {True, False}

    def test_single_target_at_exponent_0(self):
        for weight in range(2, 31, 2):
            for eta in (-24, 0, 8):
                targets = [(0, Fraction(-7, 3))]
                assert fit_triple(weight, eta, targets) == \
                    fit_oracle(weight, eta, targets)

    def test_e4_is_a_weight4_monomial(self):
        e4 = mf.eisenstein(4, 6)
        fit = mf.fit_quasi_homogeneous(
            4, 0, [(k, e4.coefficient(k)) for k in range(7)])
        assert fit.consistent and fit.nullity == 0
        assert fit.particular == (1, 0)  # (E4, E2^2) in lex order

    def test_e2_squared(self):
        sq = mf.eisenstein(2, 6) ** 2
        fit = mf.fit_quasi_homogeneous(
            4, 0, [(k, sq.coefficient(k)) for k in range(7)])
        assert fit.consistent and fit.particular == (0, 1)

    def test_inconsistent_is_a_state_not_an_error(self):
        fit = mf.fit_quasi_homogeneous(2, 0, [(0, 1), (1, 0)])
        assert not fit.consistent and fit.particular is None

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            mf.fit_quasi_homogeneous(4, 0, [])

    def test_rank2_coefficients(self):
        # frozen after cross-checking with an independent solver:
        # rank 4, nullspace dimension 1
        targets = [(0, Fraction(-1, 8)), (1, Fraction(18441, 2)),
                   (2, Fraction(673760)), (3, Fraction(82133595, 4))]
        fit = mf.fit_quasi_homogeneous(10, -24, targets)
        assert fit.consistent
        assert fit.nullity == 1
        null = fit.nullspace[0]
        scaled = tuple(c / null[4] for c in null)
        assert scaled == (Fraction(-1, 20), Fraction(-33, 140),
                          Fraction(-13, 28), Fraction(-1, 4), Fraction(1))
        # representative (and representative + nullspace) reproduce targets
        eta = product_family(lambda m: -24, 3)
        for solution in (fit.particular,
                         tuple(p + q for p, q in zip(fit.particular, null))):
            rep = None
            for c, mono in zip(solution, fit.basis.monomials):
                term = mf.monomial_series(mono, 3) * eta * c
                rep = term if rep is None else rep + term
            for e, v in targets:
                assert rep.coefficient(e) == v

    def test_json_round_trip_keys(self):
        fit = mf.fit_quasi_homogeneous(4, 0, [(0, 1), (1, 240)])
        d = fit.to_json_dict()
        assert d["consistent"] is True
        assert set(d["particular"]) == {"0,1,0", "2,0,0"}


class TestErrorPaths:
    @pytest.mark.parametrize("call, cls, message", [
        (lambda: mf.divisor_sigma(0, 1), ValueError, "n must be >= 1"),
        (lambda: mf.eta_quotient(2.5, 5),
         TypeError, "eta exponent must be an integer"),
        (lambda: mf.solve_exact([[1, 0], [0, 1]], [1]),
         ValueError, "one right-hand side per row required"),
        (lambda: mf.solve_exact([[1, 0], [1]], [1, 2]),
         ValueError, "ragged coefficient matrix"),
        (lambda: mf.fit_quasi_homogeneous(4, 0, [(0, 1), (-1, 2)]),
         ValueError, "target exponents must be >= 0"),
        (lambda: mf.theta_e8(2.0, method="lattice"),
         TypeError, "'float' object cannot be interpreted as an integer"),
        (lambda: mf.theta_e8(2.0),
         TypeError, "'float' object cannot be interpreted as an integer"),
    ], ids=["divisor-sigma-n-0", "eta-float-exponent", "too-few-rhs",
            "ragged-rows", "negative-target-exponent",
            "theta-lattice-float-order", "theta-eisenstein-float-order"])
    def test_raises(self, call, cls, message):
        with pytest.raises(cls) as exc:
            call()
        assert type(exc.value) is cls and exc.value.args == (message,)

    def test_bool_order_is_an_int(self):
        # operator.index keeps bools, as theta_e8 always did
        for method in ("lattice", "eisenstein"):
            assert mf.theta_e8(True, method=method) == mf.theta_e8(1)
