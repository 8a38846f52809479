"""The mutant deck still applies to the tree: every mutant's old text
occurs exactly once in its file, the mutated file compiles, and every test
it names exists.  ``mutants/run.py`` refuses the deck otherwise, but it is
not part of tier-1, so a refactor that removes the text a mutant changes,
or a test a mutant names, fails here first."""

import importlib.util
import json
from pathlib import Path

RUNNER = Path(__file__).resolve().parents[1] / "mutants" / "run.py"


def load_runner():
    spec = importlib.util.spec_from_file_location("mutants_run", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def test_deck_is_not_refused():
    runner = load_runner()
    deck = json.loads(runner.DECK.read_text(encoding="utf-8"))
    assert runner.refusals(deck) == []


def test_missing_tests_are_refused():
    here = "tests/test_mutants.py"
    ids = [f"{here}::test_deck_is_not_refused[any-param]",
           f"{here}::test_gone", f"{here}::TestGone::test_deck_is_not_refused",
           "tests/test_gone.py::test_deck_is_not_refused"]
    mutant = {"id": "m", "file": "mutants/run.py",
              "old": "def names_a_test(", "new": "def _names_a_test(",
              "tests": ids}
    assert load_runner().refusals([mutant]) == [
        f"m: no test {test_id}" for test_id in ids[1:]]


def test_non_compiling_mutant_is_refused(tmp_path, capsys):
    # a file that fails to import fails every test of it, so such a
    # mutant would be counted as killed whatever the tests check
    runner = load_runner()
    mutant = {"id": "m", "file": "mutants/run.py",
              "old": "def names_a_test(", "new": "def names_a_test((",
              "tests": ["tests/test_mutants.py::test_deck_is_not_refused"]}
    [line] = runner.refusals([mutant])
    assert line.startswith("m: the mutated mutants/run.py does not compile: ")
    runner.DECK = tmp_path / "deck.json"
    runner.DECK.write_text(json.dumps([mutant]), encoding="utf-8")
    assert runner.main() == 2
    assert capsys.readouterr().out == f"refused:\n  {line}\n"
