"""Regenerate goldens.json: the digest of the correct output of every job
any seed can draw, cross-checked against the oracles in oracles.py.

    python3 geobench/make_goldens.py

Run it only when the job grid in jobs.py changes.  The goldens record what
the program printed when the benchmark was defined; a later change whose
output differs fails the benchmark's correctness check.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import oracles as orc  # noqa: E402

_CHI = {"p2": 3, "k3": 24, "b9": 12}
_DEL_PEZZO = (1, 3, 6, 10, 16, 27, 56, 240)
_SIGNATURES = {"gamma19": (1, 9), "e8": (8, 0), "e8-minus": (0, 8),
               "fiber-section": (1, 1), "e8-minus+section": (0, 9),
               **{f"del-pezzo-{k}": (1, k) for k in range(9)}}


class OracleMismatch(AssertionError):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMismatch(what)


def log_oracle(f: list) -> list:
    """log f = integral of f'/f, with f^-1 by the plain recurrence."""
    inv = [Fraction(1) / f[0]]
    for k in range(1, len(f)):
        inv.append(-inv[0] * sum(f[i] * inv[k - i] for i in range(1, k + 1)))
    deriv = [k * c for k, c in enumerate(f)]
    quot = orc.mul(deriv, inv)
    return [Fraction(0)] + [quot[m] / m for m in range(1, len(f))]


def check_highorder(kind, params, out) -> str:
    if kind == "goettsche_series":
        s, n = params
        expect(orc.biseries_at_minus_one(out) == orc.euler_product(-_CHI[s], n),
               "Göttsche at t = -1 is not the Euler series")
        return "goettsche(t=-1) = euler"
    if kind == "fit_quasi_homogeneous":
        return check_fit(params, out)
    got = orc.series_coeffs(out)
    n = len(got) - 1
    if kind == "eta_quotient":
        e, _ = params
        expect(orc.series_shift(out) == Fraction(e, 24), "eta shift")
        expect(got == orc.euler_product(e, n), "eta product")
        if e == -12:
            expect(got[:6] == [1, 12, 90, 520, 2535, 10908], "eta^-12 digits")
        if e == 24:
            expect(got == orc.discriminant(n + 1)[1:], "Delta = eta^24")
        return "euler product"
    if kind == "hilb_euler_series":
        expect(got == orc.euler_product(-_CHI[params[0]], n), "hilb euler")
        return "euler product"
    if kind == "bryan_leung_series":
        expect(got == orc.bryan_leung(params[0], n), "bryan-leung")
        return "convolution"
    if kind == "half_k3_z1":
        expect(got == orc.mul(orc.eisenstein(4, n), orc.euler_product(-12, n)),
               "half-k3 z1")
        return "convolution"
    w = params[0]
    if kind == "QSeries.mul":
        a, b = w
        expect(got == orc.mul(orc.eisenstein(a, n), orc.eisenstein(b, n)),
               "product")
        return "convolution"
    base = orc.eisenstein(w, n)
    if kind == "QSeries.pow":
        want = base
        for _ in range(params[1] - 1):
            want = orc.mul(want, base)
        expect(got == want, "power")
        return "convolution"
    if kind == "QSeries.invert":
        expect(got == orc.invert(base), "inverse")
        return "inverse"
    if kind == "QSeries.log":
        expect(got == log_oracle(base), "log")
        return "f'/f"
    if kind == "QSeries.exp":
        x = [Fraction(c, jobs._EIS_C1[w]) for c in base]
        x[0] = Fraction(0)
        expect(got[0] == 1 and log_oracle(got) == x, "log(exp x) = x")
        return "log(exp x) = x"
    raise KeyError(kind)


def check_fit(params, out) -> str:
    weight, eta, variant = params
    if not out["consistent"]:
        return "inconsistent (not checked)"
    targets = jobs.fit_targets(weight, variant)
    order = max(e for e, _ in targets)
    eta_part = orc.euler_product(eta, order)
    columns = []
    for i, j, k in out["monomials"]:
        col = eta_part
        for w, power in ((2, i), (4, j), (6, k)):
            for _ in range(power):
                col = orc.mul(col, orc.eisenstein(w, order))
        columns.append(col)

    def combine(vec):
        cs = [Fraction(int(vec[",".join(map(str, m))][0]),
                       int(vec[",".join(map(str, m))][1]))
              for m in out["monomials"]]
        return [sum(c * col[e] for c, col in zip(cs, columns))
                for e, _ in targets]

    expect(combine(out["particular"]) == [v for _, v in targets],
           "fit particular solution")
    for vec in out["nullspace"]:
        expect(not any(combine(vec)), "fit nullspace vector")
    return "solution reproduces targets"


def check_lattice(kind, params, out) -> str:
    if kind == "enumerate_vectors":
        theta = orc.theta_e8(params[0] // 2)
        want = {str(n): (theta[n // 2] if n % 2 == 0 else 0)
                for n in range(params[0] + 1)}
        expect(out == want, "E8 counts = 240 sigma_3")
        return "240 sigma_3"
    if kind == "theta_e8":
        expect(orc.series_coeffs(out) == orc.theta_e8(params[0]),
               "E8 theta = 240 sigma_3")
        return "240 sigma_3"
    if kind == "exceptional_classes":
        k, bound = params
        for d, *c in out:
            expect(abs(d) <= bound and -3 * d - sum(c) == -1
                   and d * d - sum(x * x for x in c) == -1,
                   "exceptional class pairing")
        expect(out == sorted(out) and len(set(map(tuple, out))) == len(out),
               "exceptional classes sorted and distinct")
        if bound >= 6:
            expect(len(out) == _DEL_PEZZO[k - 1], "del Pezzo count")
            return "K.b = b.b = -1 and classical count"
        return "K.b = b.b = -1"
    if kind == "signature":
        sig = tuple(out["signature"])
        expect(sig == orc.inertia(out["gram"]), "inertia")
        if params[0] in _SIGNATURES:
            expect(sig == _SIGNATURES[params[0]], "known signature")
        return "inertia"
    raise KeyError(kind)


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def check_cli(argv, outcome) -> str:
    expect(outcome.error is None and outcome.rc == 0,
           f"well-formed request failed: rc={outcome.rc} {outcome.error}")
    if argv[0] == "verify":
        if "--format" in argv:
            expect(json.loads(outcome.stdout)["failed"] == 0, "verify failed")
        else:
            expect(", 0 failed," in outcome.stdout, "verify failed")
        return "no failed check"
    if "--format" not in argv:
        return "exit 0"
    if argv[:2] == ["lattice", "enumerate"]:
        n = int(_flag(argv, "--norm-max", 0))
        counts = json.loads(outcome.stdout)["counts"]
        return check_lattice("enumerate_vectors", (n,), counts)
    if argv[:2] == ["lattice", "exceptional"]:
        k, b = int(_flag(argv, "--k", 0)), int(_flag(argv, "--bound", 6))
        classes = json.loads(outcome.stdout)["classes"]
        return check_lattice("exceptional_classes", (k, b), classes)
    if argv[0] != "expand" or argv[1] == "goettsche":
        return "exit 0"
    target = argv[1]
    got = orc.series_coeffs(json.loads(outcome.stdout))
    n = len(got) - 1
    if target == "eta-quotient":
        want = orc.euler_product(int(_flag(argv, "--exponent", -12)), n)
    elif target == "eisenstein":
        want = orc.eisenstein(int(_flag(argv, "--weight", 4)), n)
    elif target == "theta-e8":
        want = orc.theta_e8(n)
    elif target == "hilb-euler":
        want = orc.euler_product(-_CHI[_flag(argv, "--surface", "b9")], n)
    elif target == "bryan-leung":
        want = orc.bryan_leung(int(_flag(argv, "--genus", 0)), n)
    else:
        want = orc.mul(orc.eisenstein(4, n), orc.euler_product(-12, n))
    expect(got == want, f"expand {target}")
    return "oracle series"


def main() -> int:
    files = jobs.write_wall_files(BENCH / ".work")
    out = {}
    for workload in jobs.WORKLOADS:
        goldens = {}
        tally = {}
        t0 = time.perf_counter()
        for kind, params in jobs.grid(workload):
            job = jobs.make_job(workload, kind, params, files)
            result = job.build()()
            if workload == "cli-fresh":
                argv = [w for part in params for w in part]
                if kind == "malformed":
                    known = job.key in jobs.KNOWN_DEFECTS
                    expect(jobs.exit2_ok(result) or
                           (known and result.error is not None),
                           f"{job.key}: {result}")
                    goldens[job.key] = jobs.EXIT2
                    note = "exit 2 (crashes today)" if result.error else "exit 2"
                else:
                    note = check_cli(argv, result)
                    goldens[job.key] = jobs.digest(job.canon(result))
            else:
                canon = job.canon(result)
                check = check_highorder if workload == "highorder" \
                    else check_lattice
                note = check(kind, params, canon)
                goldens[job.key] = jobs.digest(canon)
            tally[note] = tally.get(note, 0) + 1
        out[workload] = dict(sorted(goldens.items()))
        print(f"{workload}: {len(goldens)} goldens in "
              f"{time.perf_counter() - t0:.1f} s; oracle checks: "
              + ", ".join(f"{k} x{v}" for k, v in sorted(tally.items())))
    (BENCH / "goldens.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
