"""Random walks on the circles of F_p^2: exact structure, mixing, bounds.

``walk`` and ``bounds`` are lazy: importing the package registers them in
``sys.modules`` and as its attributes, but their bodies run at the first
attribute read, so ``constants`` and ``axioms`` never load them. The names
the package re-exports from them are served by ``__getattr__``.
"""

import importlib.util
import sys

# numpy before the package's modules: allocating modular's body first
# raised every command's peak RSS by about 0.1 MB, by heap layout alone.
import numpy  # noqa: F401

from .modular import (
    NotPrime,
    PrimeModulus,
    WrongResidueClass,
    make_modulus,
    primes_3_mod_4,
)
from .circles import (
    DEFAULT_EPSILON,
    AxiomReport,
    StructureTensor,
    circle_points,
    structure_constant_bruteforce,
    validate_axioms,
)


def _lazy(name: str):
    """The submodule ``name``, registered but not yet run: the recipe of
    ``importlib.util.LazyLoader``'s documentation."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


walk = _lazy("walk")
bounds = _lazy("bounds")

_LAZY_EXPORTS = {
    **dict.fromkeys([
        "BadEpsilon",
        "MixingReport",
        "NotMixed",
        "StochasticKernel",
        "boost_epsilon",
        "build_kernel",
        "detailed_balance",
        "mixing_time",
        "simulate",
        "stationary",
    ], walk),
    **dict.fromkeys([
        "BoundReport",
        "ComparisonBound",
        "CouplingBound",
        "MinorizationReport",
        "NoOddCycle",
        "NotReversible",
        "SpectrumReport",
        "bound_report",
        "closed_form_bounds",
        "comparison_bound",
        "coupling_bound",
        "default_cycles",
        "default_paths",
        "minorization_check",
        "odd_cycle_bound",
        "spectral_tv_bound",
        "spectrum",
    ], bounds),
}


def __getattr__(name):
    """A name re-exported from ``walk`` or ``bounds``, read from the module
    on each access, which loads it the first time (PEP 562)."""
    if name in _LAZY_EXPORTS:
        return getattr(_LAZY_EXPORTS[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY_EXPORTS})


__version__ = "0.1.0"
