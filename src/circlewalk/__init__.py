"""Random walks on the circles of F_p^2: exact structure, mixing, bounds."""

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
    AxiomReport,
    StructureTensor,
    circle_points,
    quadrance,
    structure_constant_bruteforce,
    validate_axioms,
)
from .walk import (
    DEFAULT_EPSILON,
    BadEpsilon,
    MixingReport,
    NotMixed,
    StochasticKernel,
    WalkTrace,
    boost_epsilon,
    build_kernel,
    detailed_balance,
    mixing_time,
    simulate,
    stationary,
)
from .bounds import (
    BoundReport,
    ComparisonBound,
    CouplingBound,
    MinorizationReport,
    NoOddCycle,
    NotReversible,
    SpectrumReport,
    bound_report,
    closed_form_bounds,
    comparison_bound,
    coupling_bound,
    default_cycles,
    default_paths,
    minorization_check,
    odd_cycle_bound,
    spectral_tv_bound,
    spectrum,
)

__version__ = "0.1.0"
