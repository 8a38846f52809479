"""The mutant deck still applies to the tree: every mutant's old text
occurs exactly once in its file.  ``mutants/run.py`` refuses the deck
otherwise, but it is not part of tier-1, so a refactor that removes the
text a mutant changes fails here first."""

import importlib.util
import json
from pathlib import Path

RUNNER = Path(__file__).resolve().parents[1] / "mutants" / "run.py"


def test_deck_is_not_refused():
    spec = importlib.util.spec_from_file_location("mutants_run", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    deck = json.loads(runner.DECK.read_text(encoding="utf-8"))
    assert runner.refusals(deck) == []
