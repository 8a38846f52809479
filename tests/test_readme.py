"""The README's examples, replayed: every ``$ enumgeo ...`` command runs
through ``cli.main`` and must print the lines shown, up to a ``...`` line
if there is one, and the Library block runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from enumgeo import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def examples():
    """(command, expected lines) of each ``$ enumgeo`` command; commands
    are separated by blank lines and may continue over lines ending in a
    backslash."""
    out = []
    for block in blocks("sh"):
        for chunk in re.split(r"\n\s*\n", block.replace("\\\n", " ")):
            command, *expected = chunk.strip("\n").splitlines()
            if command.startswith("$ enumgeo "):
                out.append((" ".join(command[2:].split()), expected))
    return out


EXAMPLES = examples()


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("command, expected", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_command_example(command, expected, capsys, monkeypatch):
    monkeypatch.delenv("ENUMGEO_ORDER", raising=False)
    argv = shlex.split(command)
    assert cli.main(argv[1:]) == 0
    got = capsys.readouterr().out.splitlines()
    if "..." in expected:
        cut = expected.index("...")
        got, expected = got[:cut], expected[:cut]
    assert got == expected


SAME_UNDER_JSON = [
    ("lattice", "pair", "--u", "F", "--v", "B"),
    ("lattice", "genus", "--beta", "K"),
    ("lattice", "signature", "--sublattice", "fiber-section"),
    ("sw", "p2", "--c", "3", "--chamber", "+"),
    ("sw", "closed-form", "--d", "1", "--pg", "3"),
    ("sw", "dimension", "--c-sq", "1", "--chi-top", "3", "--sigma", "-1"),
]


@pytest.mark.parametrize("argv", SAME_UNDER_JSON,
                         ids=[" ".join(argv[:2]) for argv in SAME_UNDER_JSON])
def test_same_text_under_format_json(argv, capsys):
    # the Command line section names these six as printing the same text
    runs = []
    for fmt in ("text", "json"):
        rc = cli.main([*argv, "--format", fmt])
        runs.append((rc, *capsys.readouterr()))
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1]


def test_library_block():
    (block,) = blocks("python")
    exec(compile(block, str(README), "exec"), {})
