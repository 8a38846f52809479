"""Seeded job streams for the three workloads.

A workload is a deck of slots.  A slot fixes what a job does and how much
work it is (the kind of call and its order, norm or weight class); the seed
only picks the variant inside each slot (an exponent, a surface, an operand,
an output format) and shuffles the deck.  Every deck therefore costs about
the same whatever the seed, which keeps the spread between runs low, while
the inputs still differ from seed to seed.  The union of the variants of all
slots is a finite parameter grid, and ``goldens.json`` holds the digest of
the correct output for every point of it.

Importing this module needs ``enumgeo`` on ``sys.path``; ``run.py`` and
``make_goldens.py`` put the checkout's ``src`` there first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from enumgeo import cli, invariants as inv, lattice as lat, modforms as mf

WORKLOADS = ("highorder", "cli-fresh", "lattice-lib")

#: golden value of a request whose only correct outcome is exit 2 with a
#: single ``error:`` line on stderr and nothing on stdout
EXIT2 = "exit2"

#: requests that raise out of ``cli.main`` at the commit that defined the
#: benchmark; they count in ``failed`` but do not make a run incorrect
KNOWN_DEFECTS = {
    "cli sw mochizuki --file @bad-v-int":
        "'v' is an int: TypeError instead of exit 2",
    "cli sw mochizuki --file @bad-n-zero-den":
        "'n' = [1, 0]: ZeroDivisionError instead of exit 2",
    "cli sw mochizuki --file @bad-top-list":
        "top-level JSON list: TypeError instead of exit 2",
}


@dataclass(frozen=True)
class Job:
    key: str                                   # golden key: kind and parameters
    build: Callable[[], Callable[[], object]]  # untimed input preparation
    canon: Callable[[object], object]          # result -> canonical JSON value


@dataclass(frozen=True)
class CliOutcome:
    rc: object          # exit code, or None when cli.main raised
    stdout: str
    stderr: str
    error: str | None   # repr of an exception that escaped cli.main


def digest(value) -> str:
    """sha256 of the canonical JSON of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _to_json(result):
    return result.to_json_dict()


# -- highorder ---------------------------------------------------------------

_SURFACES = {"p2": inv.SurfaceData.projective_plane,
             "k3": inv.SurfaceData.k3,
             "b9": inv.SurfaceData.half_k3}
_ETA_EXPONENTS = (-24, -12, -1, 8, 24)
_WEIGHTS = (2, 4, 6)
_PAIRS = tuple(itertools.combinations_with_replacement(_WEIGHTS, 2))
#: E_w = 1 + c1 * sum sigma(n) q^n; (E_w - 1) / c1 has zero constant term
_EIS_C1 = {2: -24, 4: 240, 6: -504}
_FIT_ETA = (-24, -12, 0)


def fit_monomial_count(weight: int) -> int:
    """Number of E2^i E4^j E6^k with 2i + 4j + 6k = weight."""
    return sum(1 for i in range(weight // 2 + 1)
               for j in range((weight - 2 * i) // 4 + 1)
               if (weight - 2 * i - 4 * j) % 6 == 0)


def fit_targets(weight: int, variant: int) -> list:
    """As many target coefficients as there are monomials."""
    count = fit_monomial_count(weight)
    if variant == 0:
        return [(k, Fraction((k + 1) ** 2)) for k in range(count)]
    return [(k, Fraction((-1) ** k * (2 * k + 1), k + 2)) for k in range(count)]


def _slot(kind, *axes):
    return (kind, tuple(tuple(axis) for axis in axes))


HIGHORDER = (
    [_slot("eta_quotient", _ETA_EXPONENTS, [n]) for n in (150, 175, 200)]
    # a block of equal-cost jobs around the median keeps job_p50_s steady
    # (exponent 8 is left out: its zero binomials make it cheaper)
    + [_slot("eta_quotient", (-24, -12, -1, 24), [150])] * 3
    + [_slot("hilb_euler_series", _SURFACES, [n]) for n in (150, 175)]
    + [_slot("bryan_leung_series", (1, 2, 3), [150]),
       _slot("half_k3_z1", [150, 160])]
    + [_slot("QSeries.mul", _PAIRS, [n]) for n in (150, 300, 450, 520, 600)]
    + [_slot(op, _WEIGHTS, [n])
       for op, orders in (("QSeries.invert", (150, 300)),
                          ("QSeries.log", (150, 300)),
                          ("QSeries.exp", (150, 200)))
       for n in orders]
    + [_slot("QSeries.pow", _WEIGHTS, (2, 3), [n]) for n in (150, 300)]
    + [_slot("goettsche_series", _SURFACES, [n]) for n in (20, 30, 40, 50)]
    + [_slot("fit_quasi_homogeneous", weights, _FIT_ETA, (0, 1))
       for weights in ((12, 14, 16), (18, 20, 22), (24, 26), (28, 30))]
)


def _highorder_build(kind, params):
    if kind == "eta_quotient":
        e, n = params
        return lambda: lambda: mf.eta_quotient(e, n)
    if kind == "hilb_euler_series":
        s, n = params
        def build():
            surface = _SURFACES[s]()
            return lambda: inv.hilb_euler_series(surface, n)
        return build
    if kind == "goettsche_series":
        s, n = params
        def build():
            surface = _SURFACES[s]()
            return lambda: inv.goettsche_series(surface, n)
        return build
    if kind == "bryan_leung_series":
        g, n = params
        return lambda: lambda: inv.bryan_leung_series(g, n)
    if kind == "half_k3_z1":
        (n,) = params
        return lambda: lambda: inv.half_k3_z1(n)
    if kind == "QSeries.mul":
        (a, b), n = params
        def build():
            x, y = mf.eisenstein(a, n), mf.eisenstein(b, n)
            return lambda: x * y
        return build
    if kind in ("QSeries.invert", "QSeries.log"):
        w, n = params
        method = kind.split(".")[1]
        def build():
            x = mf.eisenstein(w, n)
            return getattr(x, method)
        return build
    if kind == "QSeries.exp":
        w, n = params
        def build():
            x = (mf.eisenstein(w, n) - 1) / _EIS_C1[w]
            return x.exp
        return build
    if kind == "QSeries.pow":
        w, k, n = params
        def build():
            x = mf.eisenstein(w, n)
            return lambda: x ** k
        return build
    if kind == "fit_quasi_homogeneous":
        w, eta, variant = params
        def build():
            targets = fit_targets(w, variant)
            return lambda: mf.fit_quasi_homogeneous(w, eta, targets)
        return build
    raise KeyError(kind)


# -- lattice-lib -------------------------------------------------------------

def _signature_specs() -> dict:
    """Named lattices whose signature a job computes (via sublattice when
    the lattice is spanned by vectors of the rank-10 blowup lattice)."""
    names = lat.gamma19_named_vectors()
    specs = {
        "gamma19": None,
        "e8": None,
        "e8-minus": lat.e8_minus_basis(),
        "fiber-section": (names["F"], names["B"]),
        "e8-minus+section": lat.e8_minus_basis() + (names["B"],),
        "e0-e9-K": (names["e0"], names["e9"], names["K"]),
    }
    for k in range(9):
        specs[f"del-pezzo-{k}"] = None
    return specs


_SIGNATURES = tuple(_signature_specs())

LATTICE_LIB = (
    [_slot("enumerate_vectors", [n]) for n in range(10, 23)]
    # blocks of equal scans around the median and the 90th percentile keep
    # job_p50_s and job_p90_s from jumping between neighbouring norms as
    # the theta hit count varies
    + [_slot("enumerate_vectors", [14])] * 10
    + [_slot("enumerate_vectors", [20])] * 2
    # nine theta orders, one more than the eight _theta_counts keeps
    + [_slot("theta_e8", [k]) for k in range(1, 10)]
    + [_slot("exceptional_classes", range(1, 9), (6, 7))] * 4
    + [_slot("signature", _SIGNATURES)] * 2
)


def _signature_build(spec):
    def build():
        vectors = _signature_specs()[spec]
        if vectors is not None:
            g = lat.make_gamma19()
            return lambda: _signature_of(g.sublattice(vectors))
        if spec == "gamma19":
            g = lat.make_gamma19()
        elif spec == "e8":
            g = lat.e8_lattice()
        else:
            g = lat.make_del_pezzo(int(spec.rsplit("-", 1)[1]))
        return lambda: _signature_of(g)
    return build


def _signature_of(g):
    return {"gram": [list(r) for r in g.gram], "signature": list(g.signature())}


def _lattice_build(kind, params):
    if kind == "enumerate_vectors":
        (n,) = params
        return lambda: lambda: lat.enumerate_vectors(lat.e8_lattice(), n)
    if kind == "theta_e8":
        (k,) = params
        return lambda: lambda: mf.theta_e8(k, method="lattice")
    if kind == "exceptional_classes":
        k, bound = params
        return lambda: lambda: lat.exceptional_classes(k, bound)
    if kind == "signature":
        (spec,) = params
        return _signature_build(spec)
    raise KeyError(kind)


def _lattice_canon(kind):
    if kind == "enumerate_vectors":
        return lambda counts: {str(n): c for n, c in counts.items()}
    if kind == "theta_e8":
        return _to_json
    if kind == "exceptional_classes":
        return lambda classes: [list(c) for c in classes]
    return lambda value: value


# -- cli-fresh ---------------------------------------------------------------

_WALL_OK = {"r": 2, "a_h": 5, "a_K": 0, "a_sq": 1, "n": [1, 1]}
_DECOMPS = [{"a1_h": 1, "a2_h": 4, "sw": 1, "A": [3, 2]},
            {"a1_h": 2, "a2_h": 3, "sw": -1, "A": [7, 1]}]

#: JSON files for ``sw mochizuki --file``, written before the run starts
WALL_FILES = {
    "@wall-0": {"v": _WALL_OK, "chi_v": [4, 1], "decomps": _DECOMPS},
    "@wall-1": {"v": _WALL_OK, "chi_v": [1, 1], "decomps": _DECOMPS,
                "k_dot_h": 3},
    "@wall-2": {"v": dict(_WALL_OK, r=3, a_h=4, n=[-1, 2]), "chi_v": [2, 1],
                "decomps": [{"a1_h": 0, "a2_h": 4, "sw": 2, "A": [5, 3]}]},
    "@bad-v-int": {"v": 3, "chi_v": [4, 1], "decomps": _DECOMPS},
    "@bad-n-zero-den": {"v": dict(_WALL_OK, n=[1, 0]), "chi_v": [4, 1],
                        "decomps": _DECOMPS},
    "@bad-top-list": [_WALL_OK, [4, 1], _DECOMPS],
}

#: mostly the default order 20, sometimes an explicit one in 0..30
_ORD = [()] * 6 + [("--order", o) for o in ("0", "5", "12", "25", "30")]
_FMT = [(), (), ("--format", "json")]
_NAMES = ("F", "B", "K", "e0", "e1", "e5", "e9")
_CHEAP_SUITES = ("del-pezzo-counts", "discriminant", "half-k3-euler",
                 "lattice-relations", "ramanujan", "rank1-printed-digits",
                 "rank2-fit", "section-fiber-digits", "sw-closed-form",
                 "sw-plane")
_FIT_ARGS = {
    "rank2": ("--weight", "10", "--eta-exponent", "-24",
              "--target", "0=-1/8", "--target", "1=18441/2",
              "--target", "2=673760", "--target", "3=82133595/4"),
    "w4": ("--weight", "4", "--eta-exponent", "0",
           "--target", "0=1", "--target", "1=240"),
    "w6": ("--weight", "6", "--eta-exponent", "-12",
           "--target", "0=1", "--target", "1=-492", "--target", "2=5/3"),
    "w8": ("--weight", "8", "--eta-exponent", "-24",
           "--target", "0=2", "--target", "1=0", "--target", "2=-7/2",
           "--target", "3=11"),
}


def _opts(flag, values):
    return [(flag, str(v)) for v in values]


def _cmd(*words):
    return [tuple(words)]


_LIGHT = [
    _slot("expand", _cmd("expand", "eta-quotient"),
          _opts("--exponent", _ETA_EXPONENTS), _ORD, _FMT),
    _slot("expand", _cmd("expand", "eisenstein"),
          _opts("--weight", _WEIGHTS), _ORD, _FMT),
    _slot("expand", _cmd("expand", "theta-e8"),
          [(), ("--method", "eisenstein")], _ORD, _FMT),
    _slot("expand", _cmd("expand", "hilb-euler"),
          _opts("--surface", _SURFACES), _ORD, _FMT),
    _slot("expand", _cmd("expand", "bryan-leung"),
          _opts("--genus", range(4)), _ORD, _FMT),
    _slot("expand", _cmd("expand", "half-k3-z1"), _ORD, _FMT),
    _slot("expand", _cmd("expand", "goettsche"), _opts("--surface", _SURFACES),
          [(), ("--order", "10"), ("--order", "15")], _FMT),
    _slot("verify", _cmd("verify"), [(s,) for s in _CHEAP_SUITES], _ORD, _FMT),
    _slot("lattice", _cmd("lattice", "pair"), _opts("--u", _NAMES),
          _opts("--v", _NAMES)),
    _slot("lattice", _cmd("lattice", "genus"),
          _opts("--beta", _NAMES + ("1,0,0,0,0,0,0,0,0,1",
                                    "2,-1,-1,0,0,0,0,0,0,0"))),
    _slot("lattice", _cmd("lattice", "signature"),
          _opts("--sublattice", ("full", "fiber-section", "e8")), _FMT),
    _slot("lattice", _cmd("lattice", "exceptional"), _opts("--k", range(1, 9)),
          [(), ("--bound", "7")], _FMT),
    _slot("lattice", _cmd("lattice", "enumerate"),
          _opts("--norm-max", range(9)), _FMT),
    _slot("sw", _cmd("sw", "p2"), _opts("--c", (-5, -3, -1, 1, 3, 5)),
          _opts("--chamber", ("+", "-", "plus", "minus"))),
    _slot("sw", _cmd("sw", "closed-form"), _opts("--d", range(5)),
          _opts("--pg", range(1, 5))),
    _slot("sw", _cmd("sw", "dimension"),
          [("--c-sq", "9", "--chi-top", "3", "--sigma", "1"),
           ("--c-sq", "1", "--chi-top", "12", "--sigma", "-8"),
           ("--c-sq", "-3", "--chi-top", "24", "--sigma", "-16")]),
    _slot("sw", _cmd("sw", "mochizuki"),
          _opts("--file", ("@wall-0", "@wall-1", "@wall-2")), _FMT),
    _slot("fit", _cmd("fit"), _FIT_ARGS.values(), _FMT),
]

CLI_FRESH = (
    _LIGHT * 2
    + _LIGHT[:5]
    # medium: Göttsche products at orders 20-30 and mid-size scans
    + [_slot("verify", _cmd("verify", "goettsche-specialization"),
             [(), ("--order", "25")], _FMT)] * 2
    + [_slot("expand", _cmd("expand", "goettsche"),
             _opts("--surface", _SURFACES), [("--order", "25")], _FMT)]
    + [_slot("lattice", _cmd("lattice", "enumerate"),
             _opts("--norm-max", range(10, 15)), _FMT)] * 2
    # heavy: every one runs the E8 scan of norm 20 on empty caches
    + [_slot("verify", _cmd("verify", "all"), [(), ("--order", "20")],
             _FMT)] * 3
    + [_slot("verify", _cmd("verify", "theta-cross-method"),
             [(), ("--order", "10"), ("--order", "30")], _FMT)] * 2
    + [_slot("expand", _cmd("expand", "theta-e8", "--method", "lattice",
                            "--order", "10"), _FMT)] * 2
    + [_slot("lattice", _cmd("lattice", "enumerate", "--norm-max", "20"),
             _FMT)] * 2
    # malformed: the correct outcome is exit 2 with one error line
    + [_slot("malformed", _cmd("sw", "mochizuki", "--file", name))
       for name in ("@bad-v-int", "@bad-n-zero-den", "@bad-top-list")]
    + [_slot("malformed", [
        ("expand", "eta-quotient", "--order", "-3"),
        ("expand", "eisenstein", "--order", "x"),
        ("sw", "p2", "--c", "2", "--chamber", "+"),
        ("sw", "closed-form", "--d", "1", "--pg", "0"),
        ("lattice", "pair", "--u", "1,2", "--v", "F"),
        ("lattice", "exceptional", "--k", "9"),
        ("fit", "--weight", "10", "--eta-exponent", "-24", "--target", "3"),
        ("sw", "mochizuki", "--file", "@missing"),
    ])] * 2
)


def write_wall_files(workdir: Path) -> dict:
    """Write the ``--file`` inputs; returns token -> path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for token, payload in WALL_FILES.items():
        path = workdir / (token[1:] + ".json")
        path.write_text(json.dumps(payload))
        paths[token] = str(path)
    paths["@missing"] = str(workdir / "missing.json")
    return paths


def clear_caches():
    """Empty the program's lru caches (and their hit counts)."""
    for cached in (getattr(mf, "_theta_counts", None),
                   getattr(lat, "_exceptional_cached", None)):
        if cached is not None and hasattr(cached, "cache_clear"):
            cached.cache_clear()


def _cli_build(argv, files):
    argv = [files.get(word, word) for word in argv]

    def build():
        clear_caches()      # a real CLI invocation is a fresh process
        return lambda: run_cli(argv)
    return build


def run_cli(argv) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:   # argparse usage errors
            rc = exc.code
        except Exception as exc:    # a crash is a failed request, not a stop
            error = repr(exc)
    return CliOutcome(rc, out.getvalue(), err.getvalue(), error)


def _cli_canon(outcome: CliOutcome):
    return {"rc": outcome.rc, "stdout": outcome.stdout,
            "stderr": outcome.stderr}


def exit2_ok(outcome: CliOutcome) -> bool:
    err_lines = [line for line in outcome.stderr.splitlines() if line]
    return (outcome.error is None and outcome.rc == 2 and not outcome.stdout
            and sum("error:" in line for line in err_lines) == 1
            and "Traceback" not in outcome.stderr)


# -- streams -----------------------------------------------------------------

SLOTS = {"highorder": HIGHORDER, "cli-fresh": CLI_FRESH,
         "lattice-lib": LATTICE_LIB}


def job_key(workload: str, kind: str, params: tuple) -> str:
    if workload == "cli-fresh":
        return "cli " + " ".join(itertools.chain.from_iterable(params))
    return f"{kind}({', '.join(map(repr, params))})"


def make_job(workload: str, kind: str, params: tuple, files=None) -> Job:
    key = job_key(workload, kind, params)
    if workload == "highorder":
        return Job(key, _highorder_build(kind, params), _to_json)
    if workload == "lattice-lib":
        return Job(key, _lattice_build(kind, params), _lattice_canon(kind))
    argv = list(itertools.chain.from_iterable(params))
    return Job(key, _cli_build(argv, files or {}), _cli_canon)


def stream(workload: str, seed: int, files=None):
    """Endless job stream: one shuffled deck after another."""
    rng = random.Random(f"{workload}:{seed}")
    slots = SLOTS[workload]
    while True:
        deck = [(kind, tuple(rng.choice(axis) for axis in axes))
                for kind, axes in slots]
        rng.shuffle(deck)
        for kind, params in deck:
            yield make_job(workload, kind, params, files)


def grid(workload: str):
    """Every (kind, params) any seed can draw, without repeats."""
    seen = set()
    for kind, axes in SLOTS[workload]:
        for params in itertools.product(*(dict.fromkeys(a) for a in axes)):
            key = job_key(workload, kind, params)
            if key not in seen:
                seen.add(key)
                yield kind, params


def deck_size(workload: str) -> int:
    return len(SLOTS[workload])
