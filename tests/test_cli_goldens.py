"""CLI output byte for byte: replay the ``cli-fresh`` requests of the
benchmark's golden file and compare digests of exit code, stdout and stderr.
The ``highorder`` fits are replayed the same way, against the digest of
their ``to_json_dict()``.

``geobench/goldens.json`` maps each request ``"cli <argv>"`` to the sha256
of its canonical JSON outcome, or to ``"exit2"`` for a malformed request.
The file is only read here.  The long E8 scans (``--method lattice``,
``verify all``, ``verify theta-cross-method`` and ``lattice enumerate`` at
norms of 15 and more) are left to the benchmark for time.  The ``@``-tokens
name wall files, which the benchmark's own ``write_wall_files`` writes;
digests are taken with its ``digest``, the function the goldens were made
with.
"""

import json
import re

import pytest

from conftest import GEOBENCH, geobench
from enumgeo import cli
from enumgeo import modforms as mf

GOLDENS = GEOBENCH / "goldens.json"
SKIPPED = ("--method lattice", "verify all", "verify theta-cross-method")
LONG_SCAN = re.compile(r"--norm-max (1[5-9]|[2-9]\d|[1-9]\d\d+)\b")


def load_jobs():
    """``geobench/jobs.py`` as a module."""
    return geobench("jobs")


def goldens(workload):
    with GOLDENS.open(encoding="utf-8") as fh:
        return json.load(fh)[workload]


def replayed():
    return {key: want for key, want in goldens("cli-fresh").items()
            if not any(word in key for word in SKIPPED)
            and not LONG_SCAN.search(key)}


@pytest.fixture
def wall_files(tmp_path):
    return load_jobs().write_wall_files(tmp_path)


def outcome(capsys, argv, files):
    argv = [files.get(word, word) for word in argv]
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    captured = capsys.readouterr()
    return {"rc": rc, "stdout": captured.out, "stderr": captured.err}


@pytest.fixture
def no_env_order(monkeypatch):
    monkeypatch.delenv("ENUMGEO_ORDER", raising=False)


def test_replay_covers_every_kind_of_request():
    keys = replayed()
    assert len(keys) >= 560
    words = {key.split()[1] for key in keys}
    assert words == {"expand", "verify", "lattice", "sw", "fit"}
    assert sum(want == "exit2" for want in keys.values()) >= 5
    for word in ("theta-e8", "--norm-max 14", "@wall-", "@bad-"):
        assert any(word in key for key in keys), word


def test_outputs_match_golden_digests(capsys, no_env_order, wall_files):
    digest = load_jobs().digest
    mismatched = []
    for key, want in replayed().items():
        if want == "exit2":
            continue
        if digest(outcome(capsys, key.split()[1:], wall_files)) != want:
            mismatched.append(key)
    assert mismatched == []


def test_fits_match_golden_digests():
    fits = {}
    for key, want in goldens("highorder").items():
        match = re.fullmatch(r"fit_quasi_homogeneous\((\d+), (-?\d+), (\d)\)",
                             key)
        if match:
            fits[tuple(map(int, match.groups()))] = want
    assert len(fits) == 60
    jobs = load_jobs()
    digest, fit_targets = jobs.digest, jobs.fit_targets
    mismatched = []
    for (weight, eta, variant), want in fits.items():
        fit = mf.fit_quasi_homogeneous(weight, eta,
                                       fit_targets(weight, variant))
        if digest(fit.to_json_dict()) != want:
            mismatched.append((weight, eta, variant))
    assert mismatched == []


def test_malformed_requests_exit_2_with_one_error_line(capsys, no_env_order,
                                                       wall_files):
    for key, want in replayed().items():
        if want != "exit2":
            continue
        got = outcome(capsys, key.split()[1:], wall_files)
        assert got["rc"] == 2, key
        assert got["stdout"] == "", key
        lines = [line for line in got["stderr"].splitlines() if line]
        assert sum("error:" in line for line in lines) == 1, key
        assert "Traceback" not in got["stderr"], key
