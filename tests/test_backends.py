"""Backend-selection tests: the compiled short-vector kernel and the
pure-Python scan must agree, and overflow-prone inputs must stay pure."""

import importlib
import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from math import isqrt
from pathlib import Path

import pytest

from enumgeo import _shortvec as pure
from enumgeo import lattice as lat
from enumgeo.modforms import divisor_sigma

try:
    compiled = importlib.import_module("enumgeo._shortvec_c")
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled kernel not built in the source tree")


@pytest.fixture(scope="session")
def compiled_ext(tmp_path_factory):
    """The shipped _shortvec_c.c compiled into a temporary directory.

    It is loaded from there, never built under src/: an in-tree build would
    switch every later import of the package to the compiled backend."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        pytest.skip(f"no Python headers (Python.h) in {include}")
    source = Path(pure.__file__).with_name("_shortvec_c.c")
    target = (tmp_path_factory.mktemp("shortvec_c")
              / ("_shortvec_c" + sysconfig.get_config_var("EXT_SUFFIX")))
    proc = subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", f"-I{include}", str(source),
         "-o", str(target)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("enumgeo._shortvec_c",
                                                  target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def random_forms(seed, count, max_rank=6):
    """Seeded positive-definite Gram matrices B^T B + D of rank 0..max_rank:
    B is upper triangular with diagonal 1 or 2 and entries -1..1 above it,
    D is diagonal with entries 0..1, so most forms are not unimodular."""
    rng = random.Random(seed)
    forms = []
    for k in range(count):
        n = k % (max_rank + 1)
        b = [[rng.randint(1, 2) if i == j else rng.randint(-1, 1) * (i < j)
              for j in range(n)] for i in range(n)]
        gram = tuple(tuple(sum(b[r][i] * b[r][j] for r in range(n))
                           + (rng.randint(0, 1) if i == j else 0)
                           for j in range(n)) for i in range(n))
        forms.append((gram, pure.prepare(gram)))
    return forms


def kernel_counts(kernel, data, norm_max):
    return kernel.count_by_norm(data["lm"], data["m"], data["ehat"],
                                data["lam"], norm_max, data["rank"])


class TestPureKernel(object):
    def test_prepare_rejects_indefinite(self):
        with pytest.raises(pure.NotPositiveDefinite):
            pure.prepare(((1, 0), (0, -1)))
        with pytest.raises(pure.NotPositiveDefinite):
            pure.prepare(((0,),))

    def test_identity_rank3(self):
        data = pure.prepare(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        counts = pure.count_by_norm(data, 9)
        # sums of three squares, norms 0..9
        assert counts == [1, 6, 12, 8, 6, 24, 24, 0, 12, 30]

    def test_huge_entries_stay_exact(self):
        big = 10 ** 18
        data = pure.prepare(((2 * big,),))
        counts = pure.count_by_norm(data, 10)
        assert counts == [1] + [0] * 10


class TestHalfSpaceScan(object):
    """The half-space scan against the full scan it replaced."""

    def test_matches_full_scan_on_random_forms(self):
        forms = random_forms(1, 420)
        assert any(max(data["m"], default=1) > 1 for _, data in forms)
        for k, (gram, data) in enumerate(forms):
            norm_max = k % 12 - 1
            assert pure.count_by_norm(data, norm_max) == \
                count_full(data, norm_max), (gram, norm_max)

    def test_e8_theta_coefficients(self):
        data = pure.prepare(lat.e8_lattice().gram)
        expected = [1] + [0 if n % 2 else 240 * divisor_sigma(n // 2, 3)
                          for n in range(1, 23)]
        for norm_max in (0, 1, 2, 9, 22):
            assert pure.count_by_norm(data, norm_max) == \
                expected[:norm_max + 1]


class TestCompiledKernel(object):
    def agree(self, kernel, gram, norm_max):
        data = pure.prepare(gram)
        assert pure.count_by_norm(data, norm_max) == \
            kernel_counts(kernel, data, norm_max)

    def test_e8_agreement(self, compiled_ext):
        self.agree(compiled_ext, lat.e8_lattice().gram, 14)

    def test_assorted_small_forms(self, compiled_ext):
        self.agree(compiled_ext, ((2, 1), (1, 2)), 20)       # hexagonal
        self.agree(compiled_ext, ((1, 0), (0, 3)), 20)
        self.agree(compiled_ext, ((4,),), 30)
        self.agree(compiled_ext, ((2, 0, 1), (0, 3, 0), (1, 0, 4)), 15)

    def test_random_forms_agreement(self, compiled_ext):
        for k, (gram, data) in enumerate(random_forms(2, 420)):
            norm_max = k % 12 - 1
            assert pure.count_by_norm(data, norm_max) == \
                kernel_counts(compiled_ext, data, norm_max), (gram, norm_max)

    @needs_compiled
    def test_dispatch_prefers_compiled(self):
        assert lat.enumeration_backend() == "compiled"


class TestDispatch(object):
    def test_overflow_preflight_falls_back(self):
        # entries near 2^63 must not reach the int64 kernel
        big = 2 * 10 ** 18
        lattice = lat.SurfaceLattice(
            rank=1, gram=((big,),), basis_labels=("x",), canonical=(0,))
        counts = lat.enumerate_vectors(lattice, 10)
        assert counts[0] == 1 and sum(counts.values()) == 1

    def test_huge_level_weight_falls_back(self, compiled_ext, monkeypatch):
        # 2*10^19 does not fit in int64 although the budget at norm 10 does
        monkeypatch.setattr(lat, "_COMPILED", compiled_ext)
        lattice = lat.SurfaceLattice(
            rank=1, gram=((2 * 10 ** 19,),), basis_labels=("x",),
            canonical=(0,))
        assert lat.enumerate_vectors(lattice, 10) == \
            {n: int(n == 0) for n in range(11)}

    def test_preflight_limit_bounds_kernel_inputs(self):
        forms = random_forms(3, 60) + [(g, pure.prepare(g)) for g in (
            ((2 * 10 ** 19,),), ((2 * 10 ** 18,),), ((3, 1), (1, 10 ** 20)))]
        for gram, data in forms:
            for norm_max in (0, 1, 10):
                inputs = [data["lam"], data["lam"] * norm_max, *data["ehat"],
                          *data["m"], *(abs(v) for row in data["lm"]
                                        for v in row)]
                assert pure.preflight_limit(data, norm_max) >= max(inputs), \
                    (gram, norm_max)

    def test_preflight_limit_monotone(self):
        data = pure.prepare(lat.e8_lattice().gram)
        assert pure.preflight_limit(data, 4) <= pure.preflight_limit(data, 40)

    def test_forced_pure_subprocess(self):
        env = dict(os.environ, ENUMGEO_PURE="1")
        code = ("from enumgeo import lattice as lat; "
                "print(lat.enumeration_backend()); "
                "print(lat.enumerate_vectors(lat.e8_lattice(), 6)[6])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        backend, count = proc.stdout.split()
        assert backend == "pure"
        assert int(count) == 6720

    def test_no_ext_install_flag_subprocess(self):
        # ENUMGEO_PURE only affects selection, never results
        env = dict(os.environ, ENUMGEO_PURE="1")
        code = ("from enumgeo import lattice as lat; "
                "print(sorted(lat.enumerate_vectors("
                "lat.e8_lattice(), 10).items()))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        here = sorted(lat.enumerate_vectors(lat.e8_lattice(), 10).items())
        assert proc.stdout.strip() == repr(here)
