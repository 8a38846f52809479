"""Spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps the public functions of each enumgeo layer in every
namespace that binds them (module globals, the tuples and dicts held there,
and class attributes), so each call records one span: name, start, end,
parent span, job id.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the time its child spans
cover; the wrappers' own bookkeeping is charged to ``bench.trace_s``, so

    bench.job_s = sum of layer self times + bench.self_s + bench.trace_s

holds exactly, where bench.self_s is the benchmark's own code inside a job.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

#: (span name, module, attribute path) of every wrapped function
TARGETS = (
    ("cli.main", "enumgeo.cli", "main"),
    ("verify.run_suite", "enumgeo.verify", "run_suite"),
    ("verify.check_goettsche_specialization", "enumgeo.verify",
     "check_goettsche_specialization"),
    ("verify.check_theta_cross_method", "enumgeo.verify",
     "check_theta_cross_method"),
    ("invariants.goettsche_series", "enumgeo.invariants", "goettsche_series"),
    ("invariants.BiSeries.mul", "enumgeo.invariants", "BiSeries.__mul__"),
    ("invariants.hilb_euler_series", "enumgeo.invariants",
     "hilb_euler_series"),
    ("invariants.bryan_leung_series", "enumgeo.invariants",
     "bryan_leung_series"),
    ("invariants.half_k3_z1", "enumgeo.invariants", "half_k3_z1"),
    ("modforms.eisenstein", "enumgeo.modforms", "eisenstein"),
    ("modforms.eta_quotient", "enumgeo.modforms", "eta_quotient"),
    ("modforms.theta_e8", "enumgeo.modforms", "theta_e8"),
    ("modforms.monomial_series", "enumgeo.modforms", "monomial_series"),
    ("modforms.solve_exact", "enumgeo.modforms", "solve_exact"),
    ("modforms.fit_quasi_homogeneous", "enumgeo.modforms",
     "fit_quasi_homogeneous"),
    ("series.product_family", "enumgeo.series", "product_family"),
    ("series.QSeries.mul", "enumgeo.series", "QSeries.__mul__"),
    ("series.QSeries.invert", "enumgeo.series", "QSeries.invert"),
    ("series.QSeries.exp", "enumgeo.series", "QSeries.exp"),
    ("series.QSeries.log", "enumgeo.series", "QSeries.log"),
    ("series.QSeries.pow", "enumgeo.series", "QSeries.__pow__"),
    ("lattice.enumerate_vectors", "enumgeo.lattice", "enumerate_vectors"),
    ("lattice.exceptional_classes", "enumgeo.lattice", "exceptional_classes"),
    ("lattice.signature", "enumgeo.lattice", "SurfaceLattice.signature"),
    ("shortvec.prepare", "enumgeo._shortvec", "prepare"),
    ("shortvec.count_by_norm", "enumgeo._shortvec", "count_by_norm"),
    ("shortvec.compiled_scan", "enumgeo._shortvec_c", "count_by_norm"),
)

#: layer -> (end-to-end metrics it should move, its per-layer metrics)
LAYERS = {
    "cli": ("job_p50_s on cli-fresh", (
        "cli.main.calls", "cli.main.self_s", "cli.stdout_bytes",
        "cli.exit2.count", "cli.uncaught.count")),
    "verify": ("job_p90_s on cli-fresh", (
        "verify.run_suite.calls", "verify.run_suite.self_s",
        "verify.check_goettsche_specialization.s",
        "verify.check_theta_cross_method.s")),
    "invariants": ("jobs_per_s, job_p90_s on highorder; job_p50_s on "
                   "cli-fresh", (
        "invariants.goettsche_series.calls",
        "invariants.goettsche_series.self_s",
        "invariants.BiSeries.mul.calls", "invariants.BiSeries.mul.self_s",
        "invariants.hilb_euler_series.self_s",
        "invariants.bryan_leung_series.self_s",
        "invariants.half_k3_z1.self_s")),
    "modforms": ("jobs_per_s on highorder; hit ratio on lattice-lib", (
        "modforms.eisenstein.calls", "modforms.eisenstein.self_s",
        "modforms.eta_quotient.self_s", "modforms.theta_e8.self_s",
        "modforms.monomial_series.self_s",
        "modforms.solve_exact.calls", "modforms.solve_exact.self_s",
        "modforms.fit_quasi_homogeneous.self_s",
        "modforms.theta_counts.hits", "modforms.theta_counts.misses",
        "modforms.theta_counts.hit_ratio")),
    "series": ("jobs_per_s, job_p90_s on highorder; must not worsen "
               "job_p50_s on cli-fresh; nothing on lattice-lib", (
        "series.product_family.calls", "series.product_family.self_s",
        "series.product_family.coeffs_out",
        "series.QSeries.mul.calls", "series.QSeries.mul.self_s",
        "series.QSeries.mul.coeffs_out", "series.QSeries.mul.karatsuba_calls",
        "series.QSeries.invert.self_s", "series.QSeries.exp.self_s",
        "series.QSeries.log.self_s", "series.QSeries.pow.calls",
        "series.coeff_bits_max")),
    "lattice": ("jobs_per_s on lattice-lib", (
        "lattice.enumerate_vectors.calls", "lattice.enumerate_vectors.self_s",
        "lattice.exceptional_classes.calls",
        "lattice.exceptional_classes.self_s",
        "lattice.exceptional.hits", "lattice.exceptional.misses",
        "lattice.exceptional.hit_ratio", "lattice.signature.self_s",
        "lattice.backend.compiled")),
    "shortvec": ("jobs_per_s, job_p90_s on lattice-lib; job_p90_s on "
                 "cli-fresh; nothing on highorder", (
        "shortvec.prepare.self_s", "shortvec.count_by_norm.calls",
        "shortvec.count_by_norm.self_s", "shortvec.compiled_scan.calls",
        "shortvec.compiled_scan.self_s", "shortvec.vectors_counted",
        "shortvec.vectors_per_s")),
    "bench": ("nothing: the benchmark's own share of traced job time", (
        "bench.job_s", "bench.layers_s", "bench.self_s", "bench.trace_s",
        "bench.trace_overhead_ratio")),
}


def unit_of(metric: str) -> str:
    if metric.endswith("vectors_per_s"):
        return "vectors/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "cli.stdout_bytes":
        return "bytes"
    if metric == "series.coeff_bits_max":
        return "bits"
    return "count"


def _bits(series) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in series.coefficients()), default=0)


def _series_attrs(args, result):
    return {"coeffs": result.order + 1, "bits": _bits(result)}


def _mul_attrs(threshold):
    def attrs(args, result):
        out = _series_attrs(args, result)
        out["karatsuba"] = int(threshold is not None
                               and result.order + 1 > threshold)
        return out
    return attrs


def _scan_attrs(args, result):
    return {"vectors": sum(result)}


def _resolve(module, path):
    """(owner, attribute, function) or None when the target is gone."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return None if fn is None else (owner, attr, fn)


def _swap(value, old, new):
    """``value`` with ``old`` replaced by ``new`` one container level deep,
    or None when it holds no reference to ``old``."""
    if isinstance(value, tuple) and any(v is old for v in value):
        return tuple(new if v is old else v for v in value)
    if isinstance(value, list) and any(v is old for v in value):
        return [new if v is old else v for v in value]
    return None


class Tracer:
    def __init__(self):
        self.spans = []        # (id, parent, job, name, start, end, self)
        self.attrs = {}        # span id -> counts taken from args and result
        self.stack = []        # [span id, time covered by children]
        self.job = None
        self.next_id = 0
        self.trace_s = 0.0
        self.missing = []      # targets absent from this version of enumgeo

    # -- installation ------------------------------------------------------

    def install(self):
        series = sys.modules["enumgeo.series"]
        qseries = series.QSeries
        special = {
            "series.QSeries.mul": (_mul_attrs(
                getattr(series, "KARATSUBA_THRESHOLD", None)),
                lambda args: not isinstance(args[1], qseries)),
        }
        for name in ("series.product_family", "series.QSeries.invert",
                     "series.QSeries.exp", "series.QSeries.log",
                     "series.QSeries.pow"):
            special[name] = (_series_attrs, None)
        for name in ("shortvec.count_by_norm", "shortvec.compiled_scan"):
            special[name] = (_scan_attrs, None)
        for name, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            attrs, skip = special.get(name, (None, None))
            wrapper = self._wrap(name, fn, attrs, skip)
            if isinstance(owner, type):
                for key, value in list(vars(owner).items()):
                    if value is fn:      # also catches __rmul__ = __mul__
                        setattr(owner, key, wrapper)
            else:
                self._rebind(fn, wrapper)

    @staticmethod
    def _rebind(fn, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "enumgeo" and not modname.startswith("enumgeo."):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = wrapper
                        else:
                            swapped = _swap(v, fn, wrapper)
                            if swapped is not None:
                                value[k] = swapped
                else:
                    swapped = _swap(value, fn, wrapper)
                    if swapped is not None:
                        setattr(module, key, swapped)

    def _wrap(self, name, fn, attrs, skip):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None or (skip is not None and skip(args)):
                return fn(*args, **kwargs)
            t_in = perf_counter()
            parent = tracer.stack[-1]
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            tracer.stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                if ok and attrs is not None:
                    tracer.attrs[frame[0]] = attrs(args, result)
                tracer.spans.append((frame[0], parent[0], tracer.job, name,
                                     t0, t1, t1 - t0 - frame[1]))
                t2 = perf_counter()
                parent[1] += t2 - t_in
                tracer.trace_s += (t0 - t_in) + (t2 - t1)
        return wrapper

    # -- jobs ----------------------------------------------------------------

    def run_job(self, job_id, call):
        """Call ``call()`` inside a root span; returns (result, exception
        or None, seconds)."""
        frame = [self.next_id, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        self.job = job_id
        t0 = perf_counter()
        try:
            result, raised = call(), None
        except Exception as exc:
            result, raised = None, exc
        t1 = perf_counter()
        self.job = None
        self.stack.pop()
        self.spans.append((frame[0], None, job_id, "bench.job", t0, t1,
                           t1 - t0 - frame[1]))
        return result, raised, t1 - t0

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, t0, t1, self_s in self.spans:
                record = {"id": sid, "parent": parent, "job": job,
                          "name": name, "start": t0, "end": t1,
                          "self_s": self_s}
                record.update(self.attrs.get(sid, {}))
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    # -- metrics -------------------------------------------------------------

    def metrics(self, outcomes, caches, compiled, overhead_ratio) -> dict:
        """Every per-layer metric, as {name: (value, base)}; ``base`` is the
        count a ratio or rate is taken over, or ''."""
        calls, self_s, total_s, sums = {}, {}, {}, {}
        bits_max = 0
        for sid, _, _, name, t0, t1, own in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
            for key, value in self.attrs.get(sid, {}).items():
                if key == "bits":
                    bits_max = max(bits_max, value)
                else:
                    sums[(name, key)] = sums.get((name, key), 0) + value
        out = {}

        def put(metric, value, base=""):
            out[metric] = (value, base)

        for name, _, _ in TARGETS:
            put(f"{name}.calls", calls.get(name, 0))
            put(f"{name}.self_s", self_s.get(name, 0.0))
        for name in ("verify.check_goettsche_specialization",
                     "verify.check_theta_cross_method"):
            put(f"{name}.s", total_s.get(name, 0.0))
        put("cli.stdout_bytes", sum(len(o.stdout.encode()) for o in outcomes))
        put("cli.exit2.count", sum(o.rc == 2 for o in outcomes))
        put("cli.uncaught.count", sum(o.error is not None for o in outcomes),
            f"of {len(outcomes)} requests")
        for prefix, (hits, misses) in caches.items():
            lookups = hits + misses
            put(f"{prefix}.hits", hits)
            put(f"{prefix}.misses", misses)
            put(f"{prefix}.hit_ratio", hits / lookups if lookups else 0.0,
                f"hits={hits} misses={misses}")
        put("series.product_family.coeffs_out",
            sums.get(("series.product_family", "coeffs"), 0))
        put("series.QSeries.mul.coeffs_out",
            sums.get(("series.QSeries.mul", "coeffs"), 0))
        put("series.QSeries.mul.karatsuba_calls",
            sums.get(("series.QSeries.mul", "karatsuba"), 0),
            f"of {calls.get('series.QSeries.mul', 0)} products")
        put("series.coeff_bits_max", bits_max)
        put("lattice.backend.compiled", int(compiled))
        vectors = (sums.get(("shortvec.count_by_norm", "vectors"), 0)
                   + sums.get(("shortvec.compiled_scan", "vectors"), 0))
        scan_s = (self_s.get("shortvec.count_by_norm", 0.0)
                  + self_s.get("shortvec.compiled_scan", 0.0))
        put("shortvec.vectors_counted", vectors)
        put("shortvec.vectors_per_s", vectors / scan_s if scan_s else 0.0,
            f"over {scan_s:.4f} s of scan self time")
        put("bench.job_s", total_s.get("bench.job", 0.0),
            f"{calls.get('bench.job', 0)} jobs")
        put("bench.layers_s", sum(v for k, v in self_s.items()
                                  if k != "bench.job"))
        put("bench.self_s", self_s.get("bench.job", 0.0))
        put("bench.trace_s", self.trace_s)
        put("bench.trace_overhead_ratio", overhead_ratio,
            "(traced - untraced jobs_per_s) / untraced")
        return out


def per_layer_names():
    return [m for _, (_, metrics) in LAYERS.items() for m in metrics]
