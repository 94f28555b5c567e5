"""The package's re-exports: each is the object of the module that defines
it, whether the package imports that module eagerly or serves the name
through its ``__getattr__``, and ``dir(circlewalk)`` lists them all."""

import importlib

import pytest

import circlewalk

REEXPORTS = {
    "modular": ["NotPrime", "PrimeModulus", "WrongResidueClass",
                "make_modulus", "primes_3_mod_4"],
    "circles": ["AxiomReport", "StructureTensor", "circle_points",
                "structure_constant_bruteforce", "validate_axioms"],
    "walk": ["DEFAULT_EPSILON", "BadEpsilon", "MixingReport", "NotMixed",
             "StochasticKernel", "boost_epsilon", "build_kernel",
             "detailed_balance", "mixing_time", "simulate", "stationary"],
    "bounds": ["BoundReport", "ComparisonBound", "CouplingBound",
               "MinorizationReport", "NoOddCycle", "NotReversible",
               "SpectrumReport", "bound_report", "closed_form_bounds",
               "comparison_bound", "coupling_bound", "default_cycles",
               "default_paths", "minorization_check", "odd_cycle_bound",
               "spectral_tv_bound", "spectrum"],
}


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in REEXPORTS.items() for name in names])
def test_a_reexport_is_the_modules_object(module, name):
    source = importlib.import_module(f"circlewalk.{module}")
    assert getattr(circlewalk, name) is getattr(source, name)
    assert name in dir(circlewalk)


def test_the_package_serves_no_other_name():
    with pytest.raises(AttributeError, match="no attribute 'tau_bound'"):
        circlewalk.tau_bound  # noqa: B018
    assert {"walk", "bounds", "__version__"} <= set(dir(circlewalk))
