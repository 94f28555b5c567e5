"""Eigenvalue and mixing-time bounds for the circle walk.

The kernel is reversible, so conjugating by the square root of the
invariant law turns it into a symmetric matrix whose spectrum bounds the
speed of convergence:

* canonical paths between every pair of circles (``default_paths``),
  compared against the equilibrium chain whose every row is the invariant
  law, bound the second-largest eigenvalue through the congestion
  constant A (``comparison_bound``; Diaconis and Stroock, "Geometric
  bounds for eigenvalues of Markov chains", 1991);
* an odd closed walk through every circle (``default_cycles``) bounds
  the smallest eigenvalue away from -1 through the constant v
  (``odd_cycle_bound``);
* the spectral radius then converts into a per-step total-variation
  envelope (``spectral_tv_bound``);
* independently, a four-step minorization of the kernel by the invariant
  law gives a geometric coupling bound on the mixing time
  (``coupling_bound``, ``minorization_check``).

Every bound reads the invariant law from the kernel's state count p: the
numerators ``stationary_numerators(p)`` over p^2, exact where a check is
exact and ``stationary_array(p)`` in float64. Closed-form versions of the
congestion and cycle constants are kept as reference lines next to the
computed ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .circles import exact_dtype
from .modular import PrimeModulus
from .walk import (
    DEFAULT_EPSILON,
    BadEpsilon,
    StochasticKernel,
    build_kernel,
    detailed_balance,
    mixing_time,
    stationary_array,
    stationary_numerators,
)

class NotReversible(ValueError):
    """Kernel fails detailed balance for the invariant law."""


class NoOddCycle(RuntimeError):
    """No odd closed walk found through a state (non-ergodic kernel)."""


class PathConstructionFailed(RuntimeError):
    """No intermediate state links a pair (non-ergodic kernel)."""


@dataclass(frozen=True)
class SpectrumReport:
    """Descending spectrum of the symmetrized kernel.

    ``alpha_star`` is the spectral radius away from the top eigenvalue:
    max(lambda_1, |lambda_min|) with 0-based descending indexing, and
    ``gap`` is 1 - lambda_1.
    """

    eigenvalues: np.ndarray
    alpha_star: float
    gap: float

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])


def spectrum(kernel: StochasticKernel) -> SpectrumReport:
    """All eigenvalues of the kernel, via its symmetrization.

    Detailed balance makes sqrt(pi(x)/pi(y)) K(x, y) symmetric; it is
    computed here as sqrt(K(x,y) K(y,x)), which is symmetric in float64 by
    construction and equal to the conjugated kernel under reversibility.
    """
    check = detailed_balance(kernel)
    if not check.ok:
        raise NotReversible(f"detailed balance fails at pair {check.witness}")
    k = kernel.matrix
    sym = np.sqrt(k * k.T)
    # eigh, not eigvalsh: their last bits differ, and scan output pins eigh's
    evals = np.linalg.eigh(sym)[0][::-1]
    if abs(evals[0] - 1.0) > 1e-9:
        raise ValueError(f"top eigenvalue {evals[0]} is not 1")
    if evals[-1] < -1 - 1e-9:
        raise ValueError("eigenvalue outside [-1, 1]")
    alpha_star = float(max(evals[1], abs(evals[-1]))) if len(evals) > 1 else 1.0
    return SpectrumReport(
        eigenvalues=evals,
        alpha_star=alpha_star,
        gap=float(1.0 - evals[1]) if len(evals) > 1 else 0.0,
    )


def _support_pairs(kernel: StochasticKernel) -> np.ndarray:
    return kernel.scaled > 0


@dataclass(frozen=True)
class ComparisonBound:
    """Congestion constant A of the canonical paths against the
    equilibrium chain, and the bound lambda_1 <= 1 - 1/A.

    The equilibrium chain shares the invariant law, and its nontrivial
    eigenvalues are all 0, so comparing Dirichlet forms gives
    lambda_1 <= 1 - (1 - 0) / A for the walk.
    """

    A: float
    alpha1_upper: float


def comparison_bound(kernel: StochasticKernel) -> ComparisonBound:
    """Evaluate the path-congestion constant

        A = max over edges (z, w) of
            sum over the paths of ``default_paths`` through (z, w) of
                |path| pi(x) pi(y),  divided by pi(z) K(z, w),

    where pi is the invariant law and (x, y) runs over the ordered pairs
    x != y, each loaded as the equilibrium chain, pi(x) K'(x, y) =
    pi(x) pi(y). The canonical paths step along support edges and repeat
    none by construction, so they are not checked again here.
    """
    p = kernel.p
    routes = default_paths(kernel).reshape(p * p, -1)
    steps = routes[:, 1:] >= 0
    pi = stationary_array(p)
    # |path| pi(x) pi(y), multiplied left to right; the diagonal loads 0
    load = steps.sum(axis=1).reshape(p, p) * pi[:, None] * pi
    # bin 0 takes the padding; the rest are fed pair-major, edge-minor, as
    # a loop over the pairs adds them, and bincount adds in input order,
    # so each edge's float sum is that loop's
    congestion = np.bincount(
        np.where(steps, routes[:, :-1] * p + routes[:, 1:] + 1, 0).ravel(),
        weights=np.repeat(load.ravel(), steps.shape[1]),
        minlength=p * p + 1)[1:]
    # an edge no path uses adds nothing to the max
    used = np.flatnonzero(congestion > 0)
    z, w = np.divmod(used, p)
    a = float((congestion[used] / (pi[z] * kernel.matrix[z, w])).max())
    return ComparisonBound(A=a, alpha1_upper=1.0 - 1.0 / a)


def default_paths(kernel: StochasticKernel) -> np.ndarray:
    """Canonical paths from every circle to every other along walk edges.

    Returns ``routes``, an int64 array of shape (p, p, 4): ``routes[x, y]``
    is the node sequence of the path from x to y padded with -1, and the
    diagonal is all -1. Circle 0 has the single successor g (the
    generator), so the pair with smaller index first gets: the direct edge
    for (0, g); a three-edge route 0, g, k, y otherwise when leaving 0;
    and a two-edge route x, k, y between nonzero circles. Intermediates
    take the smallest index that keeps both hops on support edges. The
    walk is reversible, so its support is symmetric, and then the smallest
    intermediate of (y, x) is that of (x, y): the swapped pair's route is
    the reverse.
    """
    support = _support_pairs(kernel)
    p = kernel.p
    # mid[r, s]: smallest k with r -> k -> s on support edges, or -1;
    # row r reads both[s, k] = support[r, k] & support[k, s]
    into = np.ascontiguousarray(support.T)
    states = np.arange(p)
    mid = np.empty((p, p), dtype=np.int64)
    for r in range(p):
        both = into & support[r]
        k = both.argmax(axis=1)
        mid[r] = np.where(both[states, k], k, -1)
    succ = np.flatnonzero(support[0, 1:]) + 1
    if succ.size == 0:
        raise PathConstructionFailed("circle 0 has no successor")
    g = int(succ[0])
    # routes out of 0 and into 0 go through g
    via = mid.copy()
    via[0] = via[:, 0] = mid[g]
    lost = via < 0
    lost[states, states] = lost[0, g] = lost[g, 0] = False
    if lost.any():
        r, s = divmod(int(lost.argmax()), p)
        raise PathConstructionFailed(f"no mid-state for ({r}, {s})")
    routes = np.full((p, p, 4), -1, dtype=np.int64)
    routes[..., 0] = states[:, None]
    routes[..., 1] = via
    routes[..., 2] = states
    zero, gen = np.zeros_like(states), np.full_like(states, g)
    routes[0] = np.column_stack([zero, gen, mid[g], states])
    routes[:, 0] = np.column_stack([states, mid[g], gen, zero])
    routes[0, g] = (0, g, -1, -1)
    routes[g, 0] = (g, 0, -1, -1)
    routes[states, states] = -1
    return routes


@dataclass(frozen=True)
class OddCycleBound:
    """Odd-cycle congestion constant v and the bound lambda_min >= -1 + 2/v."""

    v: float
    alpha_min_lower: float


def odd_cycle_bound(kernel: StochasticKernel) -> OddCycleBound:
    """Evaluate v = max over edges of the summed pi(x)-weighted chain
    lengths of the cycles of ``default_cycles`` traversing that edge, and
    the induced lower bound on the smallest eigenvalue.

    The chain length of a cycle is the sum of 1 / (pi(z) K(z, w)) over its
    edges. Each cycle is odd, steps along support edges and repeats no
    edge by construction, so the cycles are not checked again here.
    """
    k = kernel.matrix
    pi = stationary_array(kernel.p)
    congestion: dict[tuple[int, int], float] = {}
    for x, cycle in default_cycles(kernel).items():
        edges = list(zip(cycle, cycle[1:]))
        weight = float(sum(1.0 / (pi[z] * k[z, w]) for z, w in edges)) * pi[x]
        for e in edges:
            congestion[e] = congestion.get(e, 0.0) + weight

    v = float(max(congestion.values()))
    return OddCycleBound(v=v, alpha_min_lower=-1.0 + 2.0 / v)


def default_cycles(kernel: StochasticKernel) -> dict[int, tuple[int, ...]]:
    """A shortest odd closed walk through every circle along walk edges.

    Checks a self-loop first, then triangles, then five-edge walks, taking
    the lexicographically smallest vertex sequence at the first feasible
    length. Lengths beyond 5 are never needed for an ergodic circle walk.
    """
    support = _support_pairs(kernel)
    p = kernel.p
    s = support.astype(np.float32)
    # two-step walk counts are at most p < 2^24, so float32 BLAS is exact
    two = (s @ s) > 0
    # triangles x -> a -> b -> x: the first a, then the first b for that a
    first = support & two.T
    a = first.argmax(axis=1)
    b = (support[a] & support.T).argmax(axis=1)
    cycles: dict[int, tuple[int, ...]] = {}
    for x in range(p):
        if support[x, x]:
            cycles[x] = (x, x)
        elif first[x, a[x]]:
            # without a loop at x, a != x and b != x, so the three edges
            # (x, a), (a, b), (b, x) are distinct
            cycles[x] = (x, int(a[x]), int(b[x]), x)
        else:
            cycles[x] = _five_edge_cycle(support, x)
    return cycles


def _distinct_edges(seq: Sequence[int]) -> bool:
    edges = list(zip(seq, seq[1:]))
    return len(edges) == len(set(edges))


def _five_edge_cycle(support: np.ndarray, x: int) -> tuple[int, ...]:
    # five-edge walks x -> a -> b -> c -> d -> x; only states with neither
    # a loop nor a triangle reach this, so the nesting stays cheap
    for a in np.flatnonzero(support[x]):
        for b in np.flatnonzero(support[int(a)]):
            for c in np.flatnonzero(support[int(b)]):
                for d in np.flatnonzero(support[int(c)] & support[:, x]):
                    cand5 = (x, int(a), int(b), int(c), int(d), x)
                    if _distinct_edges(cand5):
                        return cand5
    raise NoOddCycle(f"no odd closed walk of length <= 5 through state {x}")


@dataclass(frozen=True)
class ClosedFormBounds:
    """Reference constants: congestion A, cycle constant v, and the
    eigenvalue bounds they imply."""

    A: float
    v: float
    alpha1_upper: float
    alpha_min_lower: float


def closed_form_bounds(modulus: PrimeModulus) -> ClosedFormBounds:
    """Worst-case constants 3(p+3)(p+1)^2 / p^2 and 63(p+1) with the
    eigenvalue bounds 1 - 1/A and -1 + 2/v they induce."""
    p = modulus.p
    a_ref = 3 * (p + 3) * (p + 1) ** 2 / p**2
    v_ref = 63 * (p + 1)
    return ClosedFormBounds(
        A=a_ref,
        v=v_ref,
        alpha1_upper=1.0 - 1.0 / a_ref,
        alpha_min_lower=-1.0 + 2.0 / v_ref,
    )


def spectral_tv_bound(report: SpectrumReport, t: int) -> float:
    """Per-step envelope: worst TV after t steps is at most
    alpha_star^t / (2 sqrt(min pi)), where min pi = 1/p^2 is the null
    circle's mass."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    pi_min = 1 / len(report.eigenvalues) ** 2
    return 0.5 * pi_min**-0.5 * report.alpha_star**t


def _minorization(p: int) -> Fraction:
    """p^2 (p-1) / (p+1)^4: K^4 dominates this multiple of the invariant
    law, and one minus it is the coupling's four-step contraction."""
    return Fraction(p * p * (p - 1), (p + 1) ** 4)


def smallest_contraction_power(p: int, epsilon: float = DEFAULT_EPSILON) -> int:
    """Smallest n with (1 - p^2 (p-1) / (1+p)^4)^n < epsilon.

    A float logarithm supplies the candidate; the strict inequality is
    then settled by exact rational powers so boundary rounding cannot
    shift n.
    """
    if not 0 < epsilon < 1:
        raise BadEpsilon(f"epsilon must be in (0, 1), got {epsilon}")
    c = 1 - _minorization(p)
    eps = Fraction(epsilon)
    n = max(1, math.ceil(math.log(epsilon) / math.log(float(c))))
    while c**n >= eps:
        n += 1
    while n > 1 and c ** (n - 1) < eps:
        n -= 1
    return n


@dataclass(frozen=True)
class CouplingBound:
    """Coupling mixing bound tau <= 4n, with the closed-form n for scale.

    ``n`` is the exact smallest power driving the contraction factor below
    the threshold; ``closed_form_n`` is ceil((1 + ln 2)(p+1)^4 / (p^2 (p-1))),
    always at least n.
    """

    p: int
    epsilon: float
    n: int
    tau_bound: int
    closed_form_n: int
    contraction: Fraction


def coupling_bound(
    modulus: PrimeModulus, epsilon: float = DEFAULT_EPSILON
) -> CouplingBound:
    """Mixing-time bound from the four-step minorization: tau <= 4n."""
    p = modulus.p
    n = smallest_contraction_power(p, epsilon)
    n8 = math.ceil((1 + math.log(2)) / _minorization(p))
    return CouplingBound(
        p=p,
        epsilon=epsilon,
        n=n,
        tau_bound=4 * n,
        closed_form_n=n8,
        contraction=1 - _minorization(p),
    )


@dataclass(frozen=True)
class MinorizationReport:
    """Exact entrywise check of K^4(i, j) >= claimed * pi(j).

    ``min_ratio`` is the smallest K^4(i, j) / pi(j) as a Fraction.
    ``all_positive`` records strict positivity of K^4.
    """

    holds: bool
    min_ratio: Fraction
    claimed: Fraction
    witness: tuple[int, int] | None
    all_positive: bool


def minorization_check(kernel: StochasticKernel) -> MinorizationReport:
    """Verify the four-step minorization of the kernel by the invariant law.

    Raises the scaled kernel to the fourth power in exact arithmetic. Every
    term and partial sum is a nonnegative integer at most denominator^4,
    so ``exact_dtype`` picks float BLAS while that is below 2^53 (p up to
    9739 for the circle walk), then int64, then Python integers.
    """
    p = kernel.p
    claimed = _minorization(p)
    den4 = kernel.denominator**4
    s = kernel.scaled.astype(exact_dtype(den4))
    e2 = s @ s
    e4 = e2 @ e2
    # entries of K^4 scale with pi only columnwise, so one exact ratio per
    # column suffices; min takes the first smallest column
    ratios = [Fraction(int(n), den4) / Fraction(int(w), p * p)
              for n, w in zip(e4.min(axis=0), stationary_numerators(p))]
    j = min(range(p), key=ratios.__getitem__)
    holds = ratios[j] >= claimed
    return MinorizationReport(
        holds=holds,
        min_ratio=ratios[j],
        claimed=claimed,
        witness=None if holds else (int(e4[:, j].argmin()), j),
        all_positive=bool((e4 > 0).all()),
    )


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one modulus, measured and closed-form side by side.

    The fields, in order, are the ``bounds`` output columns.
    """

    p: int
    lambda1: float
    lambda_min: float
    alpha_star: float
    comparison_A: float
    v: float
    alpha1_upper_closed: float
    alpha_min_lower_closed: float
    coupling_n: int
    coupling_tau: int
    tau_measured: int


def bound_report(
    modulus: PrimeModulus,
    epsilon: float = DEFAULT_EPSILON,
) -> BoundReport:
    """Full bound pipeline for one modulus.

    Builds the walk kernel, measures the mixing time, computes the
    spectrum, evaluates the path and cycle bounds with the default
    constructions, the closed forms and the coupling bound. Measuring first
    makes a threshold below float64's TV floor fail within a few steps,
    before the other stages, whose exact contraction powers grow with
    ln(1/epsilon).
    """
    kernel = build_kernel(modulus)
    mixing = mixing_time(kernel, epsilon)
    spectral = spectrum(kernel)
    comp = comparison_bound(kernel)
    cyc = odd_cycle_bound(kernel)
    closed = closed_form_bounds(modulus)
    coup = coupling_bound(modulus, epsilon)
    return BoundReport(
        p=modulus.p,
        lambda1=spectral.lambda1,
        lambda_min=spectral.lambda_min,
        alpha_star=spectral.alpha_star,
        comparison_A=comp.A,
        v=cyc.v,
        alpha1_upper_closed=closed.alpha1_upper,
        alpha_min_lower_closed=closed.alpha_min_lower,
        coupling_n=coup.n,
        coupling_tau=coup.tau_bound,
        tau_measured=mixing.tau,
    )
