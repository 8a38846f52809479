"""Every oracle that tier-1 compares against reads nothing from enumgeo:
the test-local oracles and each function of ``geobench/oracles.py``."""

import importlib
import inspect

import pytest

from conftest import geobench

LOCAL = {
    "conftest": ("binomial",),
    "test_backends": ("count_full", "prepare_fraction"),
    "test_invariants": ("biseries_schoolbook", "goettsche_by_factors",
                        "euler_product_t_schoolbook"),
    "test_lattice": ("format_vector_loop",),
    "test_modforms": ("solve_fraction", "monomials", "oracle_columns",
                      "fit_system", "fit_oracle"),
    "test_series": ("poly_str_replace", "signed_digits", "binomial_product",
                    "schoolbook", "invert_loop", "exp_loop", "log_loop",
                    "FractionSeries"),
}
BENCH = [f"geobench_oracles.{name}"
         for name, value in vars(geobench("oracles")).items()
         if inspect.isfunction(value)]


@pytest.mark.parametrize("path", [f"{module}.{name}"
                                  for module, names in LOCAL.items()
                                  for name in names] + BENCH)
def test_reads_nothing_from_enumgeo(path, enumgeo_reads):
    module, name = path.split(".")
    oracle = getattr(importlib.import_module(module), name)
    functions = ([f for f in vars(oracle).values() if inspect.isfunction(f)]
                 if inspect.isclass(oracle) else [oracle])
    assert functions and enumgeo_reads(*functions) == set()
