"""Exact arithmetic for enumerative-invariant generating functions:
q-series, modular forms, surface lattices and wall-crossing sums.

The names below are imported from their submodule on first use (PEP 562),
so ``import enumgeo`` loads no submodule: ``from enumgeo import QSeries``
loads ``series`` and ``fractions`` but not ``lattice``, and
``import enumgeo.cli`` loads ``lattice`` but neither ``series`` nor
``fractions``.  ``SurfaceLattice.format_vector``, and so the text output of
``enumgeo lattice exceptional``, loads ``series`` for its term printer.
Each name, once read, is kept as a module global and is the submodule's own
object.
"""

__version__ = "0.1.0"

#: exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "QSeries", "SeriesError", "VariableMismatch", "ShiftMismatch",
        "NonUnitConstantTerm", "NonzeroConstantTerm", "ConstantTermNotOne",
        "OrderExceeded", "product_family", "int_binomial"), "series"),
    **dict.fromkeys((
        "SurfaceLattice", "DimensionMismatch", "NoCanonicalClass",
        "ParityViolation", "DegenerateForm", "NotPositiveDefinite",
        "make_gamma19", "make_del_pezzo", "gamma19_named_vectors",
        "e8_minus_basis", "e8_cartan_matrix", "e8_lattice",
        "enumerate_vectors", "enumeration_backend",
        "exceptional_classes"), "lattice"),
}

#: submodules readable as attributes of a bare ``import enumgeo``
_SUBMODULES = ("series", "lattice", "_shortvec")

__all__ = [*_EXPORTS, "series", "lattice"]


def __getattr__(name: str):
    from importlib import import_module
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
