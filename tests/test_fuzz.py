"""Differential argv fuzz of the CLI.

Seeded mutations of the benchmark's ``cli-fresh`` requests run through
``cli.main`` in-process, as the benchmark's ``run_cli`` runs it, twice: as
it parses (argv's leaf parser alone, the full tree only where the leaf
refuses), and with the full parser tree forced.  Both runs give the same
exit code, stdout and stderr, and every outcome keeps the exit contract:
0 or 2, or 1 (failed verification) only under ``verify``; no traceback;
an exit 2 leaves stdout empty and writes one ``error:`` line.

A mutation drops, duplicates or swaps a token, or replaces one with a value
from ``POOL``.  Wall files stay as the benchmark writes them, and no value
outside the grid's and the pool's is made: nothing bounds the cost of a
large order or norm yet, so ``fit --target 1000000=1`` would run unbounded.
"""

import itertools
import random

from enumgeo import cli
from test_cli_goldens import load_jobs

SEED = 9
CASES = 300
POOL = ("", "x", "-1", "--", "3.5")


def mutate(rng, argv):
    """``argv`` with one token dropped, duplicated or swapped with another,
    or one value (a token that is not an option) replaced from ``POOL``."""
    argv = list(argv)
    i = rng.randrange(len(argv))
    how = rng.choice(("drop", "duplicate", "swap", "replace"))
    if how == "drop":
        del argv[i]
    elif how == "duplicate":
        argv.insert(i, argv[i])
    elif how == "swap":
        j = rng.randrange(len(argv))
        argv[i], argv[j] = argv[j], argv[i]
    else:
        i = rng.choice([k for k, word in enumerate(argv)
                        if not word.startswith("--")])
        argv[i] = rng.choice(POOL)
    return argv


def cases():
    rng = random.Random(SEED)
    requests = [list(itertools.chain.from_iterable(params))
                for _, params in load_jobs().grid("cli-fresh")]
    return [mutate(rng, rng.choice(requests)) for _ in range(CASES)]


def keeps_contract(argv, outcome):
    """Exit 0, or 1 under ``verify``, without a traceback; or exit 2 as
    the benchmark requires of a refused request."""
    if outcome.rc == 2:
        return load_jobs().exit2_ok(outcome)
    failed_verify = outcome.rc == 1 and argv[:1] == ["verify"]
    return (outcome.error is None and "Traceback" not in outcome.stderr
            and (outcome.rc == 0 or failed_verify))


def test_mutated_argv_matches_full_tree(monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ENUMGEO_ORDER", raising=False)
    jobs = load_jobs()
    files = jobs.write_wall_files(tmp_path)
    build = cli.build_parser
    bad, codes = [], []
    for argv in cases():
        argv = [files.get(word, word) for word in argv]
        got = jobs.run_cli(argv)
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: build())
        want = jobs.run_cli(argv)
        monkeypatch.setattr(cli, "build_parser", build)
        if got != want or not keeps_contract(argv, got):
            bad.append((argv, got, want))
        codes.append(got.rc)
    assert bad == []
    # both sides of the contract are reached, not only refusals
    assert codes.count(0) >= 10 and codes.count(2) >= 100
