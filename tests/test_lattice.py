"""Lattice tests: pairing golden facts, signatures, vector enumeration,
exceptional-class counts."""

import itertools
import json
import random
from math import isqrt

import pytest

from conftest import geobench
from enumgeo import lattice as lat

oracles = geobench("oracles")


def format_vector_loop(labels, v):
    """Oracle: the signed sum of labelled coordinates, signs written one
    term at a time, as ``format_vector`` printed it before it called the
    series printer."""
    parts = []
    for c, name in zip(v, labels):
        if not c:
            continue
        if c == 1:
            parts.append(f"+ {name}")
        elif c == -1:
            parts.append(f"- {name}")
        elif c > 0:
            parts.append(f"+ {c}*{name}")
        else:
            parts.append(f"- {-c}*{name}")
    if not parts:
        return "0"
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def random_symmetric(seed, count, max_rank=7):
    """Seeded symmetric integer forms of rank 0..max_rank; each entry on or
    above the diagonal is 0 with probability 0.6, else in -2..2, so zero
    pivots and degenerate forms are common."""
    rng = random.Random(seed)
    forms = []
    for k in range(count):
        n = k % (max_rank + 1)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.4:
                    a[i][j] = a[j][i] = rng.randint(-2, 2)
        forms.append(tuple(tuple(row) for row in a))
    return forms


def form(gram):
    labels = tuple(f"b{i}" for i in range(len(gram)))
    return lat.SurfaceLattice(rank=len(gram), gram=gram, basis_labels=labels)


@pytest.fixture(scope="module")
def g19():
    return lat.make_gamma19()


class TestGamma19(object):
    def test_shape(self, g19):
        assert g19.rank == 10
        assert g19.gram[0][0] == 1
        for i in range(1, 10):
            assert g19.gram[i][i] == -1
        for i in range(10):
            for j in range(10):
                if i != j:
                    assert g19.gram[i][j] == 0

    def test_named_vector_relations(self, g19):
        v = lat.gamma19_named_vectors()
        f, b, k = v["F"], v["B"], v["K"]
        assert g19.norm(f) == 0
        assert g19.norm(b) == -1
        assert g19.pair(f, b) == 1
        assert g19.pair(k, f) == 0          # K = -F
        assert g19.norm(k) == 0
        assert k == tuple(-x for x in f)

    def test_adjunction_genus(self, g19):
        v = lat.gamma19_named_vectors()
        assert g19.adjunction_genus(v["F"]) == 1
        assert g19.adjunction_genus(v["B"]) == 0
        # the class B + dF has arithmetic genus d
        for d in range(5):
            vec = tuple(b + d * f for b, f in zip(v["B"], v["F"]))
            assert g19.adjunction_genus(vec) == d

    def test_signature(self, g19):
        assert g19.signature() == (1, 9)

    def test_sublattice_signatures(self, g19):
        v = lat.gamma19_named_vectors()
        fs = g19.sublattice([v["F"], v["B"]])
        assert fs.signature() == (1, 1)
        e8 = g19.sublattice(lat.e8_minus_basis())
        assert e8.signature() == (0, 8)

    def test_dimension_checks(self, g19):
        with pytest.raises(lat.DimensionMismatch):
            g19.pair((1, 0), (0, 1))
        with pytest.raises(lat.DimensionMismatch):
            g19.norm([1] * 9)

    def test_adjunction_parity_random(self, g19):
        # v.v + v.K is even for every integer vector: genus is an integer
        rng = random.Random(99)
        for _ in range(300):
            v = tuple(rng.randint(-8, 8) for _ in range(10))
            g = g19.adjunction_genus(v)
            assert g == int(g)


class TestSignature(object):
    """``signature`` on the fraction-free pivots against the Fraction
    diagonalization of the independent oracle, which raises
    ArithmeticError on a degenerate form."""

    def test_matches_fraction_oracle(self):
        outcomes = set()
        for gram in random_symmetric(11, 2400):
            try:
                expected = oracles.inertia(gram)
            except ArithmeticError:
                with pytest.raises(lat.DegenerateForm):
                    form(gram).signature()
                outcomes.add("degenerate")
                continue
            assert form(gram).signature() == expected, gram
            outcomes.add("nondegenerate")
        assert outcomes == {"degenerate", "nondegenerate"}

    @pytest.mark.parametrize("gram, expected", [
        (((0, 1), (1, 0)), (1, 1)),             # no nonzero diagonal: combine
        (((0, 1), (1, -1)), (1, 1)),            # a later nonzero diagonal: swap
        (((0, 1, 0, 0), (1, 0, 0, 0),
          (0, 0, 0, 1), (0, 0, 1, 0)), (2, 2)),  # U + U
        ((), (0, 0)),
    ], ids=["hyperbolic-plane", "swap", "U+U", "rank-0"])
    def test_pinned(self, gram, expected):
        assert form(gram).signature() == expected

    @pytest.mark.parametrize("gram", [
        ((0,),), ((0, 0), (0, 0)), ((1, 1), (1, 1)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 0)),
    ], ids=["[0]", "zero-2x2", "rank-1", "U+[0]"])
    def test_degenerate(self, gram):
        with pytest.raises(lat.DegenerateForm):
            form(gram).signature()


class TestE8Block(object):
    def test_gram_is_negated_cartan(self, g19):
        basis = lat.e8_minus_basis()
        cartan = lat.e8_cartan_matrix()
        for i in range(8):
            for j in range(8):
                assert g19.pair(basis[i], basis[j]) == -cartan[i][j]

    def test_basis_orthogonal_to_section_and_fiber(self, g19):
        v = lat.gamma19_named_vectors()
        for gen in lat.e8_minus_basis():
            assert g19.pair(gen, v["F"]) == 0
            assert g19.pair(gen, v["B"]) == 0

    def test_cartan_shape(self):
        c = lat.e8_cartan_matrix()
        assert all(c[i][i] == 2 for i in range(8))
        off = sum(c[i][j] for i in range(8) for j in range(8) if i != j)
        assert off == -14  # 7 edges, each counted twice

    def test_root_count(self):
        e8 = lat.e8_lattice()
        counts = lat.enumerate_vectors(e8, 2)
        assert counts[2] == 240


class TestEnumeration(object):
    def test_e8_theta_counts(self):
        e8 = lat.e8_lattice()
        counts = lat.enumerate_vectors(e8, 16)
        theta = oracles.theta_e8(8)
        for n in (0, 2, 4, 6, 8, 10, 12, 14, 16):
            assert counts[n] == theta[n // 2]
        for n in (1, 3, 5, 7):
            assert counts.get(n, 0) == 0

    def test_unimodular_change_of_basis_invariance(self):
        e8 = lat.e8_lattice()
        rng = random.Random(7)
        gram = [list(row) for row in e8.gram]
        # random integer row operations preserve the lattice
        for _ in range(12):
            i, j = rng.sample(range(8), 2)
            c = rng.choice((-1, 1))
            for k in range(8):
                gram[i][k] += c * gram[j][k]
            for k in range(8):
                gram[k][i] += c * gram[k][j]
        conjugated = lat.SurfaceLattice(
            rank=8, gram=tuple(tuple(x) for x in gram),
            basis_labels=tuple("v%d" % i for i in range(8)),
            canonical=(0,) * 8)
        a = lat.enumerate_vectors(e8, 12)
        b = lat.enumerate_vectors(conjugated, 12)
        assert a == b

    def test_rank1_and_rank2(self):
        one = lat.SurfaceLattice(
            rank=1, gram=((2,),), basis_labels=("a",), canonical=(0,))
        counts = lat.enumerate_vectors(one, 18)
        nonzero = {n: c for n, c in counts.items() if c}
        assert nonzero == {0: 1, 2: 2, 8: 2, 18: 2}
        sq = lat.SurfaceLattice(
            rank=2, gram=((1, 0), (0, 1)), basis_labels=("x", "y"),
            canonical=(1, 1))
        c2 = lat.enumerate_vectors(sq, 25)
        # sums of two squares: r2(n) via divisors 1 mod 4 minus 3 mod 4
        for n in range(26):
            r2 = 4 * sum(1 if d % 4 == 1 else -1 if d % 4 == 3 else 0
                         for d in range(1, n + 1) if n % d == 0) if n else 1
            assert c2.get(n, 0) == r2

    def test_indefinite_rejected(self):
        g19 = lat.make_gamma19()
        with pytest.raises(lat.NotPositiveDefinite):
            lat.enumerate_vectors(g19, 4)


class TestExceptional(object):
    def test_counts(self):
        expected = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
        for k, n in expected.items():
            assert len(lat.exceptional_classes(k)) == n

    def test_k2_explicit(self):
        classes = lat.exceptional_classes(2)
        assert set(classes) == {
            (0, 1, 0), (0, 0, 1), (1, -1, -1)}

    def test_all_have_genus_zero_and_norm_minus_one(self):
        for k in range(1, 8):
            dp = lat.make_del_pezzo(k)
            for cls in lat.exceptional_classes(k):
                assert dp.norm(cls) == -1
                assert dp.adjunction_genus(cls) == 0
                assert dp.pair(cls, dp.canonical) == -1

    def test_bound_matters(self):
        # degree-6 classes on the 8-point surface vanish if the cap is 5
        full = lat.exceptional_classes(8, degree_bound=6)
        capped = lat.exceptional_classes(8, degree_bound=5)
        assert len(full) == 240
        assert len(capped) == 232

    def test_matches_unpruned_box(self):
        # every class with |d| <= 7 has |c_i| <= isqrt(d^2 + 1); the box is
        # filtered by the lattice's own pairing, not the search's targets
        for k in range(4):
            dp = lat.make_del_pezzo(k)
            box = ((d, *cs) for d in range(-7, 8)
                   for cs in itertools.product(
                       range(-isqrt(d * d + 1), isqrt(d * d + 1) + 1),
                       repeat=k))
            oracle = sorted(beta for beta in box if dp.norm(beta) == -1
                            and dp.pair(dp.canonical, beta) == -1)
            for bound in range(8):
                want = [beta for beta in oracle if abs(beta[0]) <= bound]
                assert lat.exceptional_classes(k, bound) == want, (k, bound)

    def test_sorted_and_distinct(self):
        for k in range(9):
            for bound in range(10):
                classes = lat.exceptional_classes(k, bound)
                assert classes == sorted(set(classes)), (k, bound)

    def test_k_range(self):
        assert lat.exceptional_classes(0) == []
        with pytest.raises(ValueError):
            lat.exceptional_classes(9)
        with pytest.raises(ValueError):
            lat.exceptional_classes(-1)


class TestErrorPaths(object):
    @pytest.mark.parametrize("call, cls, message", [
        (lambda: lat.SurfaceLattice(rank=2, gram=((1, 0),),
                                    basis_labels=("a", "b")),
         lat.DimensionMismatch, "gram must be 2x2"),
        (lambda: lat.SurfaceLattice(rank=1, gram=((1,),), basis_labels=()),
         lat.DimensionMismatch, "one label per basis vector required"),
        (lambda: lat.e8_lattice().adjunction_genus((1,) + (0,) * 7),
         lat.NoCanonicalClass, "lattice has no canonical class"),
        (lambda: lat.make_del_pezzo(9),
         ValueError, "del Pezzo blowup count must be 0..8, got 9"),
        (lambda: lat.enumerate_vectors(lat.e8_lattice(), -1),
         ValueError, "norm_max must be >= 0"),
        (lambda: lat.exceptional_classes(2, -1),
         ValueError, "degree bound must be >= 0"),
        (lambda: lat.enumerate_vectors(lat.e8_lattice(), 2.0),
         TypeError, "'float' object cannot be interpreted as an integer"),
        (lambda: lat.SurfaceLattice(rank=2, gram=((1, 0), (0, 1)),
                                    basis_labels="xy"),
         TypeError, "basis_labels must be a sequence of labels, not a str"),
        (lambda: lat.SurfaceLattice(rank=2, gram=((1, 0), (0, 1)),
                                    basis_labels=(1, 2)),
         TypeError, "basis labels must be str, got int"),
        (lambda: lat.SurfaceLattice(rank=2, gram=((1, 0), (0, 1)),
                                    basis_labels=("", "b")),
         ValueError, "basis labels must not be empty"),
        (lambda: lat.SurfaceLattice(rank=2, gram=((1, 0), (0, 1)),
                                    basis_labels=("a", "a")),
         ValueError, "basis labels must be distinct"),
        (lambda: lat.SurfaceLattice(rank=1, gram=((1,),),
                                    basis_labels=[["x"]]),
         TypeError, "basis labels must be str, got list"),
        (lambda: lat.SurfaceLattice(rank=2, gram=((1, 0), (0, 1)),
                                    basis_labels=("a", "2*b")),
         ValueError, "basis labels must be identifiers, got '2*b'"),
    ], ids=["gram-shape", "label-count", "no-canonical", "del-pezzo-9",
            "negative-norm-max", "negative-degree-bound", "float-norm-max",
            "str-labels", "int-labels", "empty-label", "repeated-label",
            "list-label", "operator-label"])
    def test_raises(self, call, cls, message):
        with pytest.raises(cls) as exc:
            call()
        assert type(exc.value) is cls and exc.value.args == (message,)

    def test_bool_bounds_are_ints(self):
        # operator.index keeps bools, as the scan always did
        e8 = lat.e8_lattice()
        assert lat.enumerate_vectors(e8, True) == {0: 1, 1: 0}
        assert lat.enumerate_vectors(e8, False) == {0: 1}


class TestValidation(object):
    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ValueError):
            lat.SurfaceLattice(
                rank=2, gram=((0, 1), (0, 0)),
                basis_labels=("a", "b"), canonical=(0, 0))

    def test_characteristic_parity_enforced(self):
        # canonical class must satisfy v.v = v.K mod 2 for basis vectors
        with pytest.raises(lat.ParityViolation):
            lat.SurfaceLattice(
                rank=1, gram=((1,),), basis_labels=("h",), canonical=(0,))

    def test_format_vector(self, g19=None):
        g = lat.make_gamma19()
        v = lat.gamma19_named_vectors()
        s = g.format_vector(v["B"])
        assert "e9" in s

    def test_format_vector_matches_loop_on_exceptional_classes(self):
        for k in range(9):
            dp = lat.make_del_pezzo(k)
            for c in lat.exceptional_classes(k, 7):
                want = format_vector_loop(dp.basis_labels, c)
                assert dp.format_vector(c) == want

    def test_format_vector_matches_loop_on_random_vectors(self, g19):
        rng = random.Random(23)
        for _ in range(2000):
            v = [rng.randint(-3, 3) for _ in range(10)]
            assert g19.format_vector(v) == format_vector_loop(
                g19.basis_labels, v)
        assert g19.format_vector([0] * 10) == "0"
        assert g19.format_vector([0] * 9 + [-2]) == "-2*e9"
        assert g19.format_vector([3] + [0] * 8 + [-1]) == "3*e0 - e9"

    def test_format_vector_keeps_caller_labels(self):
        # labels are caller identifiers, printed as given; a label with
        # printer syntax in it would misstate the sum, so it is refused
        def square(labels):
            return lat.SurfaceLattice(
                rank=4, gram=tuple(tuple(int(i == j) for j in range(4))
                                   for i in range(4)),
                basis_labels=labels)

        labels = ("a_b", "x1", "_", "Z")
        lattice, rng = square(labels), random.Random(29)
        for _ in range(300):
            v = [rng.randint(-3, 3) for _ in range(4)]
            assert lattice.format_vector(v) == format_vector_loop(labels, v)
        assert lattice.format_vector((1, -1, 0, 0)) == "a_b - x1"
        for label in ("a + -b", "-x", "- y", "2*z"):
            with pytest.raises(ValueError, match="identifiers"):
                square((label,) + labels[1:])

    def test_json_dict(self):
        g = lat.make_gamma19()
        d = g.to_json_dict()
        assert d["rank"] == 10
        assert d["canonical"] == [-3] + [1] * 9
        assert len(d["gram"]) == 10 and d["basis"][0] == "e0"

    def test_labels_are_stored_as_a_tuple(self):
        # equal by value and hashable whatever sequence held the labels
        listed = lat.SurfaceLattice(rank=1, gram=[[2]], basis_labels=["x"])
        tupled = lat.SurfaceLattice(rank=1, gram=((2,),), basis_labels=("x",))
        assert listed.basis_labels == ("x",) and listed == tupled
        assert hash(listed) == hash(tupled)

    def test_json_rank_is_int(self):
        one = lat.SurfaceLattice(rank=True, gram=((2,),), basis_labels=("x",))
        assert type(one.rank) is int
        assert json.dumps(one.to_json_dict()).startswith('{"rank": 1,')


class TestDelPezzo(object):
    def test_gram_and_canonical(self):
        dp = lat.make_del_pezzo(3)
        assert dp.rank == 4
        assert dp.norm(dp.canonical) == 9 - 3
        assert dp.signature() == (1, 3)
