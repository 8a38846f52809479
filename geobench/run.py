"""enumgeo benchmark: one workload, one seed, one run.

    python3 geobench/run.py --workload highorder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in its own fresh
process, fed by one caller in a closed loop: the next job starts only when
the previous one has returned.

--trace 0  times whole decks of the seed's job stream, stopping at the deck
           boundary nearest to --seconds of job time once at least 100 jobs
           have succeeded, then prints the end-to-end metrics.
--trace 1  runs a fixed prefix of the same stream twice, untraced and then
           traced, and prints the per-layer metrics and the tracing overhead.

Every job's output is checked outside the timed region against the golden
digest in goldens.json.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 when the run
finished, whatever it measured, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

from hostspeed import reference_s, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_JOBS = 100          # so that at least 10 samples lie beyond p90
HARD_LIMIT_S = 120.0    # stop timing after this much wall time regardless
SETUP_SAMPLES = 9
#: decks per pass of the traced run (each pass runs the same jobs)
TRACE_DECKS = 2

_SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import enumgeo.cli
from enumgeo import lattice
lattice.enumeration_backend()
t1 = time.perf_counter()
import hostspeed
refs = sorted(hostspeed.reference_s() for _ in range(3))
print(t1 - t0, refs[1])
"""


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENUMGEO_ORDER", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def build_extension() -> str:
    """Build the optional compiled kernel in place, once per checkout, with
    the repository's own setup.py.  A failed build leaves the pure backend."""
    inputs = sorted(p for p in [ROOT / "setup.py", *SRC.glob("enumgeo/*.pyx"),
                                *SRC.glob("enumgeo/*.c")] if p.is_file())
    key = hashlib.sha256(b"".join(p.read_bytes() for p in inputs)).hexdigest()
    stamp = BENCH / ".build" / "stamp"
    if stamp.is_file() and stamp.read_text() == key:
        return "cached"
    stamp.parent.mkdir(exist_ok=True)
    with open(stamp.parent / "build.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, "setup.py", "build_ext", "--inplace"],
                cwd=ROOT, env=child_env(), stdout=log, stderr=log, timeout=800)
            status = f"setup.py build_ext exited {proc.returncode}"
        except subprocess.TimeoutExpired:
            status = "setup.py build_ext timed out"
    stamp.write_text(key)
    return status


def measure_setup() -> list:
    """(scaled, as measured) seconds from just before ``import enumgeo.cli``
    to the first job, in fresh interpreters; the first, unmeasured one
    compiles the bytecode."""
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(BENCH)
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"setup probe failed:\n{proc.stderr}")
        if i:
            wall, ref = map(float, proc.stdout.split())
            samples.append((scale(wall, ref), wall))
    return samples


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "enumgeo").iterdir()):
        if path.suffix in (".py", ".pyx", ".c", ".so") and path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def backend_record(lat) -> dict:
    name = lat.enumeration_backend()
    if name == "compiled":
        reason = ("extension imported; each scan runs compiled while the "
                  "preflight bound stays below 2^60")
    elif os.environ.get("ENUMGEO_PURE"):
        reason = "ENUMGEO_PURE set"
    else:
        try:
            importlib.import_module("enumgeo._shortvec_c")
            reason = "extension importable but not selected"
        except ImportError as exc:
            reason = f"extension failed to import: {exc}"
    return {"backend": name, "reason": reason}


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; 0 when no job succeeded."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def call_timed(call):
    t0 = time.perf_counter()
    try:
        result, raised = call(), None
    except Exception as exc:
        result, raised = None, exc
    return result, raised, time.perf_counter() - t0


class Runner:
    """Runs jobs and checks each output against its golden digest."""

    def __init__(self, jobs, goldens):
        self.jobs = jobs
        self.goldens = goldens
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        self.wall_s = 0.0            # job time as measured
        self.timed_s = 0.0           # job time scaled to the reference speed
        self.latencies = []          # scaled, of the jobs that succeeded
        self.wall_latencies = []
        self.outcomes = []           # CliOutcome of every cli job
        self.ref_prev = None

    def check(self, job, result, raised) -> str:
        """Outside the timed region: grade one job."""
        jobs = self.jobs
        golden = self.goldens.get(job.key)
        if golden is None:
            fail(f"no golden output for {job.key}")
        if isinstance(result, jobs.CliOutcome):
            self.outcomes.append(result)
            if result.error is not None:
                raised = result.error
        if raised is not None:
            raised = repr(raised) if isinstance(raised, Exception) else raised
            status = "raised"
        elif golden == jobs.EXIT2:
            status = "ok" if jobs.exit2_ok(result) else "wrong"
        else:
            status = "ok" if jobs.digest(job.canon(result)) == golden \
                else "wrong"
        self.attempted += 1
        if status == "ok":
            self.ok += 1
            return status
        self.failed += 1
        known = job.key in jobs.KNOWN_DEFECTS
        if not known:
            self.correct = False
        if len(self.problems) < 20:
            self.problems.append(f"{status}{' (known defect)' if known else ''}"
                                 f": {job.key}: {raised if raised else ''}")
        return status

    def run(self, job, timed=None):
        """Build, call and grade one job; the reference kernel runs before
        and after the call, outside the timed region."""
        call = job.build()
        if self.ref_prev is None:
            self.ref_prev = reference_s()
        result, raised, elapsed = (timed or call_timed)(call)
        ref = reference_s()
        scaled = scale(elapsed, self.ref_prev, ref)
        self.ref_prev = ref
        self.wall_s += elapsed
        self.timed_s += scaled
        if self.check(job, result, raised) == "ok":
            self.latencies.append(scaled)
            self.wall_latencies.append(elapsed)

    def rate(self) -> float:
        return self.ok / self.timed_s


def cache_counts(cached):
    if cached is None or not hasattr(cached, "cache_info"):
        return (0, 0)
    info = cached.cache_info()
    return (info.hits, info.misses)


def warm_up(workload, jobs, mf, lat) -> None:
    """One fixed small call, so lazy imports and interpreter caches are
    settled before timing; then the program caches start empty."""
    if workload == "cli-fresh":
        jobs.run_cli(["sw", "p2", "--c", "3", "--chamber", "+"])
    elif workload == "highorder":
        mf.eta_quotient(-24, 10)
    else:
        lat.enumerate_vectors(lat.e8_lattice(), 2)
    jobs.clear_caches()


def timed_run(args, jobs, goldens) -> tuple:
    runner = Runner(jobs, goldens)
    stream = jobs.stream(args.workload, args.seed, args.files)
    deck = jobs.deck_size(args.workload)
    start = time.perf_counter()
    while True:
        # whole decks only, so every run holds the deck's mix exactly and
        # failed / attempted is the same on every run
        deck_start = runner.wall_s
        for _ in range(deck):
            runner.run(next(stream))
        deck_s = runner.wall_s - deck_start
        if runner.ok >= MIN_JOBS and runner.wall_s + deck_s / 2 >= args.seconds:
            break
        if time.perf_counter() - start >= HARD_LIMIT_S:
            break
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup = [s for s, _ in args.setup_samples]
    setup_wall = [w for _, w in args.setup_samples]
    n = len(runner.latencies)
    metrics = {
        "jobs_per_s": (runner.rate(), "1/s"),
        "job_p50_s": (quantile(runner.latencies, 0.5), "s"),
        "job_p90_s": (quantile(runner.latencies, 0.9), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }
    lines = [
        f"jobs attempted {runner.attempted}, succeeded {runner.ok}, "
        f"failed {runner.failed}, over {runner.wall_s:.3f} s of job time",
        f"{'failed_ratio':14s} {runner.failed / runner.attempted:.6f} ratio"
        f"  ({runner.failed} failed / {runner.attempted} attempted)",
        f"latency samples {n} (succeeded jobs); "
        f"{n - ceil(0.9 * n)} lie beyond p90",
        "as measured, before scaling to the reference speed: "
        f"jobs_per_s {runner.ok / runner.wall_s:.6f}, "
        f"job_p50_s {quantile(runner.wall_latencies, 0.5):.6f}, "
        f"job_p90_s {quantile(runner.wall_latencies, 0.9):.6f}, "
        f"setup_s {statistics.median(setup_wall):.6f}",
        "setup samples (scaled) " + ", ".join(f"{v:.4f}" for v in setup),
    ]
    return runner, metrics, lines


def traced_run(args, jobs, goldens, mf, lat) -> tuple:
    from spans import LAYERS, Tracer, per_layer_names, unit_of

    stream = jobs.stream(args.workload, args.seed, args.files)
    prefix = [next(stream)
              for _ in range(TRACE_DECKS * jobs.deck_size(args.workload))]

    untraced = Runner(jobs, goldens)
    for job in prefix:
        untraced.run(job)
    jobs.clear_caches()

    tracer = Tracer()
    tracer.install()
    traced = Runner(jobs, goldens)
    caches = {"modforms.theta_counts": getattr(mf, "_theta_counts", None),
              "lattice.exceptional": getattr(lat, "_exceptional_cached", None)}
    hits = {name: [0, 0] for name in caches}

    def timed(call):
        before = {name: cache_counts(c) for name, c in caches.items()}
        out = tracer.run_job(traced.attempted, call)
        for name, cached in caches.items():
            after = cache_counts(cached)
            hits[name][0] += after[0] - before[name][0]
            hits[name][1] += after[1] - before[name][1]
        return out

    for job in prefix:
        traced.run(job, timed)

    rate_a, rate_b = untraced.rate(), traced.rate()
    layer = tracer.metrics(traced.outcomes, hits,
                           lat.enumeration_backend() == "compiled",
                           (rate_b - rate_a) / rate_a)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)

    lines = [f"traced prefix {len(prefix)} jobs; untraced "
             f"{rate_a:.4f} jobs/s, traced {rate_b:.4f} jobs/s, "
             f"overhead {rate_b - rate_a:+.4f} jobs/s",
             f"spans {len(tracer.spans)} written to "
             f"{spans_path.relative_to(ROOT)}"]
    if tracer.missing:
        lines.append("targets absent in this version: "
                     + ", ".join(tracer.missing))
    for name, (moves, names) in LAYERS.items():
        lines.append(f"[{name}] should move: {moves}")
        for metric in names:
            value, base = layer[metric]
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            lines.append(f"  {metric:44s} {shown:>16s} {unit_of(metric):9s}"
                         f" {base}")
    metrics = {m: (layer[m][0], unit_of(m)) for m in per_layer_names()}
    traced.correct = untraced.correct and traced.correct
    traced.problems = untraced.problems + traced.problems
    return traced, metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("highorder", "cli-fresh", "lattice-lib"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "enumgeo" / "__init__.py").is_file():
        fail(f"no enumgeo sources under {SRC}; run from a checkout")

    os.environ.pop("ENUMGEO_ORDER", None)
    build = build_extension()
    args.setup_samples = measure_setup() if args.trace == 0 else []

    sys.path.insert(0, str(SRC))
    import jobs
    from enumgeo import lattice as lat, modforms as mf
    if Path(jobs.cli.__file__).resolve().parent != SRC / "enumgeo":
        fail(f"enumgeo imported from {jobs.cli.__file__}, not {SRC}")

    goldens = json.loads((BENCH / "goldens.json").read_text())[args.workload]
    args.files = jobs.write_wall_files(BENCH / ".work")
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "commit": commit(), "src_sha256": src_digest(),
           "python": platform.python_version(),
           "cpu_count": os.cpu_count(), "build": build,
           **backend_record(lat)}
    warm_up(args.workload, jobs, mf, lat)

    if args.trace:
        runner, metrics, lines = traced_run(args, jobs, goldens, mf, lat)
    else:
        runner, metrics, lines = timed_run(args, jobs, goldens)

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"backend {env['backend']} ({env['reason']})")
    for line in lines:
        print(f"# {line}")
    if args.trace == 0:
        for name, (value, unit) in metrics.items():
            print(f"# {name:14s} {value:.6f} {unit}")
    for problem in runner.problems:
        print(f"# {problem}")

    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "summary": lines,
                                  "problems": runner.problems, **result},
                                 indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
