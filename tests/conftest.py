"""Shared by the differential tests: the check that an oracle shares no
code with the package it is compared against."""

import inspect

import pytest


def _enumgeo_reads(*roots):
    """The globals from enumgeo, modules or objects whose ``__module__``
    starts with "enumgeo", that the functions ``roots`` read, directly or
    through the functions of their own module they call.  The names come
    from every code object, nested ones too: inspect.getclosurevars misses
    what a comprehension reads, since before Python 3.12 it is nested
    code."""
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
            if module.startswith("enumgeo"):
                reads.add(name)
            elif inspect.isfunction(value) and module == names["__name__"]:
                todo.append((value.__code__, value.__globals__))
    return reads


@pytest.fixture
def enumgeo_reads():
    """``_enumgeo_reads``: call it with an oracle's functions."""
    return _enumgeo_reads
