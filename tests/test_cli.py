"""Command-line interface tests, run in-process through main(argv)."""

import argparse
import ast
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from enumgeo import cli, invariants as inv, lattice as lat, modforms as mf
from enumgeo import verify as ver
from enumgeo.invariants import BiSeries
from enumgeo.series import QSeries, product_family
from test_cli_goldens import load_jobs


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_python(*args):
    """A fresh interpreter run with ``args``, on the ``PYTHONPATH`` of the
    package under test, installed or not."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


class TestExpandText(object):
    def test_eta_quotient_minus12(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "eta-quotient",
                             "--exponent", "-12", "--order", "5")
        assert rc == 0
        assert "shift=-1/2" in out.splitlines()[0]
        assert out.splitlines()[1] == "1, 12, 90, 520, 2535, 10908"

    def test_goettsche_per_power_lines(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "goettsche",
                             "--surface", "p2", "--order", "2")
        assert rc == 0
        lines = out.splitlines()
        assert lines[1] == "q^0: 1"
        assert lines[2] == "q^1: 1 + t^2 + t^4"
        assert lines[3] == "q^2: 1 + 2*t^2 + 3*t^4 + 2*t^6 + t^8"

    def test_hilb_euler_header_names_chi(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "hilb-euler",
                             "--surface", "k3", "--order", "2")
        assert rc == 0
        assert out.splitlines() == ["# hilb-euler surface=k3 chi=24 order=2 "
                                    "shift=0", "1, 24, 324"]

    def test_half_k3_z1(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "half-k3-z1", "--order", "5")
        assert rc == 0
        assert out.splitlines()[1] == "1, 252, 5130, 54760, 419895, 2587788"


class TestExpandJson(object):
    def decode(self, out):
        return QSeries.from_json_dict(json.loads(out))

    def test_eta_quotient(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "eta-quotient",
                             "--exponent", "24", "--order", "6",
                             "--format", "json")
        assert rc == 0
        assert self.decode(out) == mf.eta_quotient(24, 6)

    def test_eisenstein_all_weights(self, capsys):
        for w in ("2", "4", "6"):
            rc, out, _ = run_cli(capsys, "expand", "eisenstein",
                                 "--weight", w, "--order", "8",
                                 "--format", "json")
            assert rc == 0
            assert self.decode(out) == mf.eisenstein(int(w), 8)

    def test_theta_both_methods(self, capsys):
        for method in ("eisenstein", "lattice"):
            rc, out, _ = run_cli(capsys, "expand", "theta-e8",
                                 "--method", method, "--order", "6",
                                 "--format", "json")
            assert rc == 0
            assert self.decode(out) == mf.theta_e8(6, method)

    def test_hilb_euler_surfaces(self, capsys):
        surfaces = {"p2": inv.SurfaceData.projective_plane(),
                    "k3": inv.SurfaceData.k3(),
                    "b9": inv.SurfaceData.half_k3()}
        for name, surface in surfaces.items():
            rc, out, _ = run_cli(capsys, "expand", "hilb-euler",
                                 "--surface", name, "--order", "7",
                                 "--format", "json")
            assert rc == 0
            assert self.decode(out) == inv.hilb_euler_series(surface, 7)

    def test_goettsche_biseries(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "goettsche",
                             "--surface", "k3", "--order", "4",
                             "--format", "json")
        assert rc == 0
        decoded = BiSeries.from_json_dict(json.loads(out))
        assert decoded == inv.goettsche_series(inv.SurfaceData.k3(), 4)

    def test_bryan_leung(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "bryan-leung",
                             "--genus", "2", "--order", "6",
                             "--format", "json")
        assert rc == 0
        assert self.decode(out) == inv.bryan_leung_series(2, 6)

    def test_half_k3_z1(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "half-k3-z1",
                             "--order", "5", "--format", "json")
        assert rc == 0
        assert self.decode(out) == inv.half_k3_z1(5)


class TestVerify(object):
    def test_all_passes_with_one_flag(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "all", "--order", "12")
        assert rc == 0
        lines = out.splitlines()
        assert any(l.startswith("FLAGGED") for l in lines)
        assert not any(l.startswith("FAIL") for l in lines)
        assert lines[-1].startswith("#") and "0 failed" in lines[-1]

    def test_single_suite(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "lattice-relations")
        assert rc == 0
        assert "0 failed" in out.splitlines()[-1]

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "ramanujan",
                             "--order", "10", "--format", "json")
        assert rc == 0
        reports = json.loads(out)["reports"]
        assert all(r["status"] == "pass" for r in reports)
        assert all("citation" in r for r in reports)

    def test_unknown_suite(self, capsys):
        # the suite argument is choices-constrained, so argparse exits
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "no-such-suite"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_run_suite_unknown_name(self):
        with pytest.raises(KeyError) as exc:
            ver.run_suite("nope")
        assert exc.value.args == (
            "unknown suite 'nope'; have " + ", ".join(sorted(ver.SUITES)),)


class TestLattice(object):
    def test_pair_named(self, capsys):
        rc, out, _ = run_cli(capsys, "lattice", "pair", "--u", "F",
                             "--v", "B")
        assert rc == 0 and out.strip() == "1"

    def test_pair_coordinates(self, capsys):
        rc, out, _ = run_cli(capsys, "lattice", "pair",
                             "--u", "3,-1,-1,-1,-1,-1,-1,-1,-1,-1",
                             "--v", "0,0,0,0,0,0,0,0,0,1")
        assert rc == 0 and out.strip() == "1"

    def test_genus(self, capsys):
        rc, out, _ = run_cli(capsys, "lattice", "genus", "--beta", "F")
        assert rc == 0 and out.strip() == "1"
        rc, out, _ = run_cli(capsys, "lattice", "genus",
                             "--beta", "6,-2,-2,-2,-2,-2,-2,-2,-2,-1")
        assert rc == 0 and out.strip() == "2"

    def test_signatures(self, capsys):
        expected = {"full": "(1, 9)", "fiber-section": "(1, 1)",
                    "e8": "(0, 8)"}
        for name, sig in expected.items():
            rc, out, _ = run_cli(capsys, "lattice", "signature",
                                 "--sublattice", name)
            assert rc == 0 and out.strip() == sig

    def test_enumerate(self, capsys):
        rc, out, _ = run_cli(capsys, "lattice", "enumerate",
                             "--norm-max", "8", "--format", "json")
        assert rc == 0
        counts = json.loads(out)["counts"]
        assert counts["2"] == 240 and counts["4"] == 2160
        assert counts["6"] == 6720 and counts["8"] == 17520

    def test_enumerate_names_pure_backend(self, capsys):
        rc, out, _ = run_cli(capsys, "lattice", "enumerate", "--norm-max", "2")
        assert rc == 0
        assert out == ("# E8 vector counts up to norm 2 (pure backend)\n"
                       "0 1\n1 0\n2 240\n")
        rc, out, _ = run_cli(capsys, "lattice", "enumerate", "--norm-max", "2",
                             "--format", "json")
        assert rc == 0 and json.loads(out)["backend"] == "pure"

    def test_exceptional_count_240(self, capsys):
        rc, out, _ = run_cli(capsys, "lattice", "exceptional", "--k", "8",
                             "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["count"] == 240
        assert len(data["classes"]) == 240

    def test_exceptional_text(self, capsys):
        rc, out, _ = run_cli(capsys, "lattice", "exceptional", "--k", "2")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# 3 exceptional classes")
        assert set(lines[1:]) == {"e2", "e1", "e0 - e1 - e2"}

    def test_bad_vector(self, capsys):
        rc, _, err = run_cli(capsys, "lattice", "pair", "--u", "B+2F",
                             "--v", "F")
        assert rc == 2 and "error" in err


class TestSW(object):
    def test_p2(self, capsys):
        rc, out, _ = run_cli(capsys, "sw", "p2", "--c", "3",
                             "--chamber", "+")
        assert rc == 0 and out.strip() == "1"
        rc, out, _ = run_cli(capsys, "sw", "p2", "--c", "-5",
                             "--chamber", "-")
        assert rc == 0 and out.strip() == "-1"

    def test_p2_even_class(self, capsys):
        rc, _, err = run_cli(capsys, "sw", "p2", "--c", "2",
                             "--chamber", "+")
        assert rc == 2

    def test_closed_form(self, capsys):
        rc, out, _ = run_cli(capsys, "sw", "closed-form", "--d", "1",
                             "--pg", "3")
        assert rc == 0 and out.strip() == "-2"

    def test_dimension(self, capsys):
        rc, out, _ = run_cli(capsys, "sw", "dimension", "--c-sq", "9",
                             "--chi-top", "3", "--sigma", "1")
        assert rc == 0 and out.strip() == "0"

    def mochizuki_payload(self, **extra):
        data = {
            "v": {"r": 2, "a_h": 5, "a_K": 0, "a_sq": 1, "n": [1, 1]},
            "chi_v": [4, 1],
            "decomps": [
                {"a1_h": 1, "a2_h": 4, "sw": 1, "A": [3, 2]},
                {"a1_h": 2, "a2_h": 3, "sw": -1, "A": [7, 1]},
            ],
        }
        data.update(extra)
        return data

    def test_mochizuki_from_file(self, capsys, tmp_path):
        path = tmp_path / "wall.json"
        path.write_text(json.dumps(self.mochizuki_payload()))
        rc, out, err = run_cli(capsys, "sw", "mochizuki", "--file",
                               str(path))
        assert rc == 0
        # -(1 * (1/8) * 3/2 + (-1) * (1/8) * 7) = 11/16
        assert out.strip() == "11/16"
        assert err == ""

    def test_mochizuki_warnings_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "wall.json"
        path.write_text(json.dumps(self.mochizuki_payload(k_dot_h=3)))
        rc, out, err = run_cli(capsys, "sw", "mochizuki", "--file",
                               str(path), "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert Fraction(int(data["result"][0]), int(data["result"][1])) == \
            Fraction(11, 16)
        assert data["hypothesis_warnings"]
        assert "warning" in err

    def test_mochizuki_result_past_digit_limit(self, capsys, tmp_path):
        # the result is formatted after the command returns, inside main's
        # error handling: warnings, then one error line, and no stdout
        path = tmp_path / "wall.json"
        path.write_text(json.dumps(self.mochizuki_payload(chi_v=[-20000, 1])))
        rc, out, err = run_cli(capsys, "sw", "mochizuki", "--file",
                               str(path))
        assert rc == 2 and out == ""
        *warned, last = err.splitlines()
        assert all(line.startswith("warning: ") for line in warned)
        assert last.startswith("error: Exceeds the limit (4300 digits)")

    def test_mochizuki_missing_file(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "sw", "mochizuki", "--file",
                             str(tmp_path / "nope.json"))
        assert rc == 2

    @pytest.mark.parametrize("malformed", [
        "v-int", "n-zero-denominator", "top-level-list", "n-too-short",
        "r-infinite", "decomps-object", "r-float", "n-too-long", "n-string",
        "sw-bool", "decomps-string", "k-dot-h-string"])
    def test_mochizuki_malformed_file(self, capsys, tmp_path, malformed):
        good = self.mochizuki_payload()
        payload = {
            "v-int": dict(good, v=3),
            "n-zero-denominator": dict(good, v=dict(good["v"], n=[1, 0])),
            "top-level-list": [good["v"], good["chi_v"], good["decomps"]],
            "n-too-short": dict(good, v=dict(good["v"], n=[1])),
            "r-infinite": dict(good, v=dict(good["v"], r=float("inf"))),
            "decomps-object": dict(good, decomps=good["decomps"][0]),
            # int() would truncate or parse these and exit 0 with a number
            "r-float": dict(good, v=dict(good["v"], r=2.7)),
            "n-too-long": dict(good, v=dict(good["v"], n=[1, 1, 99])),
            "n-string": dict(good, v=dict(good["v"], n="12")),
            "sw-bool": dict(good, decomps=[dict(good["decomps"][0], sw=True)]),
            "decomps-string": dict(good, decomps=""),
            "k-dot-h-string": dict(good, k_dot_h="3"),
        }[malformed]
        path = tmp_path / "wall.json"
        path.write_text(json.dumps(payload))
        rc, out, err = run_cli(capsys, "sw", "mochizuki", "--file", str(path))
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("opener", ["[", '{"v": '])
    def test_mochizuki_deeply_nested_file(self, capsys, tmp_path, opener):
        # json.load raises RecursionError here, which is not a ValueError
        path = tmp_path / "wall.json"
        path.write_text(opener * 200000)
        rc, out, err = run_cli(capsys, "sw", "mochizuki", "--file", str(path))
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: wall file: ")


class TestFit(object):
    ARGS = ("fit", "--weight", "10", "--eta-exponent", "-24",
            "--target", "0=-1/8", "--target", "1=18441/2",
            "--target", "2=673760", "--target", "3=82133595/4")

    def test_rank2_text(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS)
        assert rc == 0
        head = out.splitlines()[0]
        assert "consistent=True" in head and "nullspace-dimension=1" in head
        assert any(l.startswith("nullspace[0]:") and "E2^5: 1" in l
                   for l in out.splitlines())

    def test_rank2_json(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["consistent"] is True
        assert len(data["nullspace"]) == 1

    def test_inconsistent_targets_still_exit_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "fit", "--weight", "4",
                             "--eta-exponent", "0",
                             "--target", "0=1", "--target", "1=1",
                             "--target", "2=1", "--target", "3=1")
        assert rc == 0
        assert "consistent=False" in out.splitlines()[0]

    def test_malformed_target(self, capsys):
        rc, _, err = run_cli(capsys, "fit", "--weight", "4",
                             "--eta-exponent", "0", "--target", "abc")
        assert rc == 2


class TestErrorLines(object):
    ETA_PAST_DIGIT_LIMIT = ("expand", "eta-quotient", "--exponent",
                            "-1000000", "--order", "1500")

    @pytest.mark.parametrize("argv, line", [
        (("fit", "--weight", "4", "--eta-exponent", "0", "--target", "0=abc"),
         "error: bad rational 'abc': "),
        (("lattice", "enumerate", "--norm-max", "-1"),
         "error: norm_max must be >= 0"),
        # a result past the integer-string limit is refused whole: the
        # text header is not written before the coefficients fail
        (ETA_PAST_DIGIT_LIMIT, "error: Exceeds the limit (4300 digits)"),
        (ETA_PAST_DIGIT_LIMIT + ("--format", "json"),
         "error: Exceeds the limit (4300 digits)"),
    ], ids=["fit-bad-rational", "enumerate-negative-norm-max",
            "eta-past-digit-limit-text", "eta-past-digit-limit-json"])
    def test_exit_2_with_one_error_line(self, capsys, argv, line):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(line)

    def test_failed_stdout_write_exits_2(self, capsys, monkeypatch):
        class BrokenPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        rc = cli.main(["sw", "p2", "--c", "3", "--chamber", "+"])
        assert rc == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    FIT = ("fit", "--weight", "4", "--eta-exponent", "0", "--target")
    WALL_V = {"r": 2, "a_h": 5, "a_K": 0, "a_sq": 1}

    @pytest.mark.parametrize("argv, env, wall", [
        (FIT + ("1=" + "7" * 5000,), None, None),
        (FIT + ("1=" + "x" * 5000,), None, None),
        (("lattice", "genus", "--beta", "x" * 5000), None, None),
        (("expand", "eta-quotient"), "x" * 5000, None),
        (("sw", "mochizuki", "--file"), None, {"v": {"r": "x" * 5000}}),
        (("sw", "mochizuki", "--file"), None,
         {"v": dict(WALL_V, n=[1] * 5000)}),
    ], ids=["fit-5000-digits", "fit-5000-letters", "genus-5000-chars",
            "env-order-5000-chars", "wall-value-5000-chars",
            "wall-pair-5000-items"])
    def test_huge_bad_input_is_quoted_in_part(self, capsys, monkeypatch,
                                              tmp_path, argv, env, wall):
        if env is not None:
            monkeypatch.setenv("ENUMGEO_ORDER", env)
        if wall is not None:
            path = tmp_path / "wall.json"
            path.write_text(json.dumps(wall))
            argv += (str(path),)
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert len(err.encode()) < 450

    @pytest.mark.parametrize("digits, cut", [
        (5000, "... [5040 characters]"), (360, ""),
    ], ids=["5000-digits", "360-digits"])
    def test_argparse_error_is_cut(self, capsys, monkeypatch, digits, cut):
        # argparse quotes a bad value in its own message; the message is
        # cut as main cuts its own, and one under 400 characters is whole
        monkeypatch.setenv("COLUMNS", "80")
        value = "7" * digits + "x"
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "eta-quotient", "--order", value])
        out, err = capsys.readouterr()
        message = f"argument --order: invalid int value: '{value}'"
        line = f"enumgeo expand: error: {message[:400]}{cut}"
        assert exc.value.code == 2 and out == ""
        assert [x for x in err.splitlines() if "error:" in x] == [line]
        assert err.endswith(line + "\n") and len(err.encode()) < 1000

    def test_line_is_cut_only_past_400_characters(self, capsys):
        # the genus error line is 114 characters besides the quoted beta
        for size, cut in ((286, ""), (287, "... [401 characters]")):
            rc, _, err = run_cli(capsys, "lattice", "genus", "--beta",
                                 "x" * size)
            full = ("error: vector must be a name (B, F, K, e0, e1, e2, e3, "
                    "e4, e5, e6, e7, e8, e9) or comma-separated integers, "
                    f"got '{'x' * size}'")
            assert rc == 2 and err == full[:400] + cut + "\n"


def subcommands(parser):
    """Subcommand name -> parser, for a parser that has subcommands."""
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def leaf_parsers(parser, path=()):
    """(subcommand path, parser) for every parser that runs a command."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, path + (name,))


class TestParser(object):
    COMMON = "[--order ORDER] [--format {text,json}]"

    def test_common_options_come_last_in_every_usage(self):
        leaves = dict(leaf_parsers(cli.build_parser()))
        assert len(leaves) == 12
        for path, parser in leaves.items():
            usage = " ".join(parser.format_usage().split())
            assert usage.count(self.COMMON) == 1, path
            after = usage.split(self.COMMON)[1].split()
            options = [w for w in after if w.lstrip("[").startswith("-")]
            assert options == [], path

    SUBCOMMANDS = {
        (): {"expand": "print a series expansion",
             "verify": "run golden self-checks",
             "lattice": "surface-lattice queries",
             "sw": "Seiberg-Witten values",
             "fit": "fit quasi-modular monomials"},
        ("lattice",): {"pair": "pairing of two classes",
                       "genus": "adjunction genus of a class",
                       "signature": "signature of a sublattice",
                       "enumerate": "E8 vector counts by norm",
                       "exceptional": "classes with K.b = b.b = -1"},
        ("sw",): {"p2": "plane invariant by chamber",
                  "closed-form": "binomial closed form for p_g > 0",
                  "dimension": "moduli dimension",
                  "mochizuki": "wall-crossing sum from JSON"},
    }
    # each leaf's own options; None where the option has no help string
    OPTIONS = {
        ("expand",): {"--exponent": "eta-quotient exponent",
                      "--weight": "Eisenstein weight",
                      "--method": "theta-e8 method",
                      "--surface": "surface for hilb-euler / goettsche",
                      "--genus": "bryan-leung genus"},
        ("verify",): {},
        ("lattice", "pair"): {"--u": None, "--v": None},
        ("lattice", "genus"): {"--beta": None},
        ("lattice", "signature"): {"--sublattice": None},
        ("lattice", "enumerate"): {"--norm-max": None},
        ("lattice", "exceptional"): {
            "--k": "number of blown-up points (1..8)",
            "--bound": "search bound on |b . e0|"},
        ("sw", "p2"): {"--c": "coefficient of the line class (odd)",
                       "--chamber": None},
        ("sw", "closed-form"): {"--d": None, "--pg": None},
        ("sw", "dimension"): {"--c-sq": None, "--chi-top": None,
                              "--sigma": None},
        ("sw", "mochizuki"): {
            "--file": "JSON with v, chi_v and the decompositions"},
        ("fit",): {"--weight": None, "--eta-exponent": None,
                   "--target": "coefficient constraint, repeatable"},
    }
    COMMON_OPTIONS = {
        "--order": "truncation order (default 20, or ENUMGEO_ORDER)",
        "--format": None}

    @staticmethod
    def help_text(parser):
        """``format_help()`` with whitespace collapsed, so line breaks and
        column widths do not matter.  The width is still fixed by the
        callers: argparse may also break a line after a hyphen."""
        return " ".join(parser.format_help().split())

    def test_help_lists_every_subcommand_with_its_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        root = cli.build_parser()
        for path, helps in self.SUBCOMMANDS.items():
            parser = root
            for name in path:
                parser = subcommands(parser)[name]
            assert list(subcommands(parser)) == list(helps), path
            text = self.help_text(parser)
            for name, text_help in helps.items():
                assert f" {name} {text_help}" in text, (path, name)

    def test_help_lists_every_option_with_its_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        leaves = dict(leaf_parsers(cli.build_parser()))
        assert list(leaves) == list(self.OPTIONS)
        for path, own in self.OPTIONS.items():
            parser = leaves[path]
            options = {**own, **self.COMMON_OPTIONS}
            declared = {s for a in parser._actions for s in a.option_strings}
            assert declared - {"-h", "--help"} == set(options), path
            text = self.help_text(parser)
            for option, text_help in options.items():
                tail = f" {re.escape(text_help)}" if text_help else "(?= |$)"
                pattern = rf"(?<!\S){re.escape(option)}(?: \S+)?{tail}"
                assert re.search(pattern, text), (path, option)

    def test_expand_targets_in_their_documented_order(self):
        assert tuple(cli._EXPAND) == (
            "eta-quotient", "eisenstein", "theta-e8", "hilb-euler",
            "goettsche", "bryan-leung", "half-k3-z1")

    def test_surface_choices_are_the_named_surfaces(self):
        expand = dict(leaf_parsers(cli.build_parser()))["expand",]
        surface = next(a for a in expand._actions if a.dest == "surface")
        assert surface.choices == ("p2", "k3", "b9") == tuple(inv.SURFACES)


class TestPathTree(object):
    """``cli.main`` parses with only the parsers on argv's command path; the
    full tree, which ``build_parser()`` declares, is the oracle."""

    @staticmethod
    def parse(parser, argv):
        """``vars()`` of the parse, or "error" where argparse refuses argv."""
        try:
            return vars(parser.parse_args(argv))
        except (SystemExit, cli._Fallback):
            return "error"

    def test_grid_parses_as_with_the_full_tree(self, capsys):
        jobs = load_jobs()
        requests = [list(itertools.chain.from_iterable(params))
                    for _, params in jobs.grid("cli-fresh")]
        assert len(requests) >= 550
        full = cli.build_parser()
        refused = 0
        for argv in requests:
            want = self.parse(full, argv)
            assert self.parse(cli.build_parser(argv), argv) == want, argv
            refused += want == "error"
        assert refused >= 1     # expand eisenstein --order x
        capsys.readouterr()

    EDGES = [
        [], ["-h"], ["--help"], ["--"], ["--", "expand", "eta-quotient"],
        ["expan"], ["lattice"], ["lattice", "pai"], ["lattice", "--", "pair"],
        ["sw", "-h", "p2"], ["-h", "expand"], ["expand", "-h"],
        ["lattice", "pair", "-h"],
        ["expand", "--order", "5", "eta-quotient"], ["--ord", "3"],
        ["--order=3"],
        ["sw", "p2", "--c", "3", "--chamber", "+", "--bogus"],   # unknown
        ["expand", "eta-quotient", "extra"],                    # positional
        ["sw", "p2", "--c", "x", "--chamber", "+"],             # type=int
        ["lattice", "signature", "--sublattice", "e9"],         # choice
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("argv", EDGES,
                             ids=[" ".join(a) or "(empty)" for a in EDGES])
    def test_main_matches_full_tree(self, capsys, monkeypatch, argv,
                                    columns):
        monkeypatch.setenv("COLUMNS", columns)
        monkeypatch.delenv("ENUMGEO_ORDER", raising=False)
        got = self.outcome(capsys, argv)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
        assert got == self.outcome(capsys, argv)

    @pytest.fixture
    def formatters(self, monkeypatch):
        """A list that grows by one per ``HelpFormatter`` constructed."""
        made = []
        init = argparse.HelpFormatter.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.HelpFormatter, "__init__", counted)
        return made

    def test_full_tree_builds_67_formatters(self, formatters):
        cli.build_parser()
        assert len(formatters) == 67

    LEAF_REQUESTS = [
        ("expand", "eta-quotient", "--order", "2"),
        ("verify", "ramanujan", "--order", "2"),
        ("lattice", "pair", "--u", "F", "--v", "B"),
        ("lattice", "genus", "--beta", "F"),
        ("lattice", "signature"),
        ("lattice", "enumerate", "--norm-max", "2"),
        ("lattice", "exceptional", "--k", "2"),
        ("sw", "p2", "--c", "3", "--chamber", "+"),
        ("sw", "closed-form", "--d", "1", "--pg", "3"),
        ("sw", "dimension", "--c-sq", "9", "--chi-top", "3", "--sigma", "1"),
        ("sw", "mochizuki", "--file", "@wall"),
        ("fit", "--weight", "4", "--eta-exponent", "0", "--target", "0=1"),
    ]

    @pytest.mark.parametrize("argv", LEAF_REQUESTS,
                             ids=[" ".join(a[:2]) for a in LEAF_REQUESTS])
    def test_leaf_request_builds_at_most_11_formatters(
            self, capsys, tmp_path, formatters, argv):
        wall = tmp_path / "wall.json"
        wall.write_text(json.dumps(TestSW().mochizuki_payload()))
        rc, _, err = run_cli(capsys, *[str(wall) if word == "@wall" else word
                                       for word in argv])
        assert (rc, err) == (0, "")
        assert len(formatters) <= 11


class TestOrderResolution(object):
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ENUMGEO_ORDER", "3")
        rc, out, _ = run_cli(capsys, "expand", "eta-quotient",
                             "--exponent", "-12")
        assert rc == 0
        assert out.splitlines()[1] == "1, 12, 90, 520"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ENUMGEO_ORDER", "3")
        rc, out, _ = run_cli(capsys, "expand", "eta-quotient",
                             "--exponent", "-12", "--order", "2")
        assert rc == 0
        assert out.splitlines()[1] == "1, 12, 90"

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("ENUMGEO_ORDER", "zebra")
        rc, _, err = run_cli(capsys, "expand", "eta-quotient")
        assert rc == 2


class TestDeterminism(object):
    def test_repeat_runs_identical(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "all", "--order", "10",
                              "--format", "json")
        _, second, _ = run_cli(capsys, "verify", "all", "--order", "10",
                               "--format", "json")
        assert first == second


class TestEntryPoints(object):
    @staticmethod
    def run_module(*argv):
        """``python -m enumgeo.cli`` with ``argv``: ``main()`` reads
        ``sys.argv``."""
        return run_python("-m", "enumgeo.cli", *argv)

    def test_module_invocation(self):
        proc = self.run_module("expand", "eta-quotient", "--exponent", "-12",
                               "--order", "3")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "1, 12, 90, 520"

    def test_module_help(self):
        proc = self.run_module("-h")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: enumgeo")

    def test_module_usage_error(self):
        proc = self.run_module("sw", "p2", "--c", "x", "--chamber", "+")
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert sum("error:" in line for line in lines) == 1

    @pytest.mark.skipif(shutil.which("enumgeo") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["enumgeo", "verify", "ramanujan"],
                              capture_output=True, text=True)
        assert proc.returncode == 0


class TestFreshProcess(object):
    """Requests in a fresh interpreter.  ``enumgeo.cli`` imports the modules
    a command runs only on that command's path, and the test files have
    imported every module already, so only a fresh process sees a deferred
    import that is missing."""

    DEFERRED = ("enumgeo.invariants", "enumgeo.modforms", "enumgeo.verify",
                "json")
    # prints, as its last line, the deferred modules loaded after the
    # import and after each of two requests
    PROBE = """\
import sys
before, deferred, loaded = set(sys.modules), set(sys.argv[1:]), []
import enumgeo.cli as cli
loaded.append(sorted(deferred & (set(sys.modules) - before)))
cli.main(["lattice", "pair", "--u", "F", "--v", "B"])
loaded.append(sorted(deferred & (set(sys.modules) - before)))
cli.main(["verify", "discriminant"])
loaded.append(sorted(deferred & (set(sys.modules) - before)))
print(loaded)
"""

    def test_import_loads_no_deferred_module(self):
        proc = run_python("-c", self.PROBE, *self.DEFERRED)
        assert proc.returncode == 0, proc.stderr
        after_import, after_lattice, after_verify = ast.literal_eval(
            proc.stdout.splitlines()[-1])
        assert after_import == after_lattice == []
        assert "enumgeo.verify" in after_verify

    # one request per parser of the full tree: its 12 leaves, the root and
    # the two groups
    REQUESTS = [
        ("expand", "hilb-euler", "--surface", "k3", "--order", "3"),
        ("verify", "discriminant", "--order", "5", "--format", "json"),
        ("lattice", "pair", "--u", "F", "--v", "B"),
        ("lattice", "genus", "--beta", "F"),
        ("lattice", "signature", "--sublattice", "e8"),
        ("lattice", "enumerate", "--norm-max", "4", "--format", "json"),
        ("lattice", "exceptional", "--k", "3", "--format", "json"),
        ("sw", "p2", "--c", "3", "--chamber", "plus"),
        ("sw", "closed-form", "--d", "1", "--pg", "3"),
        ("sw", "dimension", "--c-sq", "9", "--chi-top", "3", "--sigma", "1"),
        ("sw", "mochizuki", "--file", "@wall", "--format", "json"),
        ("fit", "--weight", "4", "--eta-exponent", "0", "--target", "0=1",
         "--format", "json"),
        ("-h",),
        ("lattice", "--help"),
        ("sw",),                                    # usage error
    ]

    @pytest.mark.parametrize("argv", REQUESTS,
                             ids=[" ".join(a[:2]) for a in REQUESTS])
    def test_module_matches_main(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("ENUMGEO_ORDER", raising=False)
        wall = tmp_path / "wall.json"
        wall.write_text(json.dumps(TestSW().mochizuki_payload(k_dot_h=3)))
        argv = [str(wall) if word == "@wall" else word for word in argv]
        proc = run_python("-m", "enumgeo.cli", *argv)
        got = (proc.returncode, proc.stdout, proc.stderr)
        assert got == TestPathTree.outcome(capsys, argv)
