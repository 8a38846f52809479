"""Shared by the tests: ``geobench``, the loader of the benchmark's
modules (``geobench("oracles")`` holds tier-1's integer oracles), the
binomial coefficient of the product oracles, and the check that an oracle
shares no code with the package it is compared against."""

import importlib.util
import inspect
import sys
from math import comb
from pathlib import Path

import pytest

GEOBENCH = Path(__file__).resolve().parents[1] / "geobench"


def geobench(name):
    """``geobench/<name>.py`` as a module, loaded once; ``dataclass``
    needs it in ``sys.modules`` while it runs.  The file is only read."""
    key = f"geobench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key,
                                                      GEOBENCH / f"{name}.py")
        module = sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[key]


def binomial(e, j):
    """C(e, j) for any integer e and j >= 0: (-1)**j * C(j - e - 1, j)
    when e < 0."""
    return comb(e, j) if e >= 0 else (-1) ** j * comb(j - e - 1, j)


def _enumgeo_reads(*roots):
    """The globals from enumgeo, modules or objects whose ``__module__``
    starts with "enumgeo", that the functions ``roots`` read, directly or
    through the functions of their own module they call, and the enumgeo
    modules they import themselves.  The names come from every code
    object, nested ones too: inspect.getclosurevars misses what a
    comprehension reads, since before Python 3.12 it is nested code."""
    todo = [(fn.__code__, fn.__globals__) for fn in roots]
    seen, reads = set(), set()
    while todo:
        code, names = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        todo += [(c, names) for c in code.co_consts if inspect.iscode(c)]
        for name in code.co_names:
            value = names.get(name)
            module = (value.__name__ if inspect.ismodule(value)
                      else getattr(value, "__module__", None) or "")
            if (module.startswith("enumgeo")
                    or name.partition(".")[0] == "enumgeo"):
                reads.add(name)
            elif inspect.isfunction(value) and module == names["__name__"]:
                todo.append((value.__code__, value.__globals__))
    return reads


@pytest.fixture
def enumgeo_reads():
    """``_enumgeo_reads``: call it with an oracle's functions."""
    return _enumgeo_reads
