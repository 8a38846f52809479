"""Run the mutant deck: every mutant in ``deck.json`` must make each of its
named tests fail.

    python mutants/run.py

A mutant is data: the file it changes, the exact old text, the new text,
and the ids of the tests that must fail.  The runner first refuses the deck
if some mutant's old text does not occur exactly once in its file, so a
refactor cannot retire a mutant without a word; if the mutated file does
not compile, since every test of a file that fails to import fails; or if
a mutant names a test whose file, class or function does not exist.  It
then copies ``src/``, ``tests/``, ``pyproject.toml`` and the files the
tests read (``README.md``, ``geobench/goldens.json``, ``geobench/jobs.py``,
``geobench/oracles.py``) to a temporary directory: pytest's
``pythonpath = ["src"]`` imports the tree it runs in, so a mutant must be
applied to a copy.  The unmutated copy must pass every named test; then
each mutant is applied alone and only its tests run.

Exit status: 0 when every mutant is killed, 1 when a mutant survives or the
unmutated copy fails, 2 when the deck is refused.  Not part of tier-1: it
starts one pytest process per mutant.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECK = Path(__file__).with_name("deck.json")
COPIED = ("src", "tests", "pyproject.toml", "README.md",
          "geobench/goldens.json", "geobench/jobs.py", "geobench/oracles.py")


@functools.cache
def statements(path: Path) -> list:
    """The top-level statements of a test file, parsed once per run."""
    return ast.parse(path.read_text(encoding="utf-8")).body


def names_a_test(test_id: str) -> bool:
    """Whether the file, class and test function that ``test_id`` names
    exist; a ``[param]`` suffix is not checked."""
    path, *names = test_id.split("[", 1)[0].split("::")
    if not (ROOT / path).is_file():
        return False
    body = statements(ROOT / path)
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef,
                     ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def refusals(deck) -> list:
    """One line for each mutant whose old text is not in its file once or
    whose mutated file does not compile, and for each test id that names
    no test."""
    out = []
    for mutant in deck:
        path = ROOT / mutant["file"]
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        count = text.count(mutant["old"])
        if count != 1:
            out.append(f"{mutant['id']}: old text occurs {count} times "
                       f"in {mutant['file']}")
        elif path.suffix == ".py":
            try:
                compile(text.replace(mutant["old"], mutant["new"]),
                        mutant["file"], "exec")
            except (SyntaxError, ValueError) as exc:
                out.append(f"{mutant['id']}: the mutated {mutant['file']} "
                           f"does not compile: {exc}")
        out += [f"{mutant['id']}: no test {test_id}"
                for test_id in mutant["tests"] if not names_a_test(test_id)]
    return out


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src, dst = ROOT / name, dest / name
        if src.is_dir():
            shutil.copytree(src, dst,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)


def run_tests(workdir: Path, ids) -> tuple:
    """(exit code, output, ids pytest reported as failed or in error).
    No bytecode is written: a mutant of the same size as the original text
    could otherwise leave a .pyc that still looks current."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", *ids],
        cwd=workdir, env=env, capture_output=True, text=True)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return proc.returncode, proc.stdout + proc.stderr, failed


def killed(test_id: str, failed) -> bool:
    """Whether ``test_id`` failed: itself, one of its parameter cases, or
    the collection of its file."""
    return any(f == test_id or f.startswith(test_id + "[")
               or test_id.startswith(f + "::") for f in failed)


def main() -> int:
    deck = json.loads(DECK.read_text(encoding="utf-8"))
    refused = refusals(deck)
    if refused:
        print("refused:", *refused, sep="\n  ")
        return 2
    with tempfile.TemporaryDirectory(prefix="enumgeo-mutants-") as tmp:
        work = Path(tmp)
        copy_tree(work)
        named = list(dict.fromkeys(t for m in deck for t in m["tests"]))
        rc, output, _ = run_tests(work, named)
        if rc != 0:
            print(output)
            print("the unmutated copy fails the named tests")
            return 1
        survivors = 0
        for mutant in deck:
            path = work / mutant["file"]
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant["old"], mutant["new"]),
                            encoding="utf-8")
            try:
                _, _, failed = run_tests(work, mutant["tests"])
            finally:
                path.write_text(text, encoding="utf-8")
            alive = [t for t in mutant["tests"] if not killed(t, failed)]
            survivors += bool(alive)
            print(f"{'SURVIVED' if alive else 'killed':8s} {mutant['id']}")
            for test_id in alive:
                print(f"         passes: {test_id}")
    print(f"# {len(deck) - survivors} of {len(deck)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
