"""Eigenvalue and mixing-time bounds for the circle walk.

The kernel is reversible, so conjugating by the square root of the
invariant law turns it into a symmetric matrix whose spectrum bounds the
speed of convergence:

* a path assignment between an auxiliary chain and the walk bounds the
  second-largest eigenvalue through the congestion constant A
  (``comparison_bound``);
* a family of odd closed walks bounds the smallest eigenvalue away from
  -1 through the constant v (``odd_cycle_bound``);
* the spectral radius then converts into a per-step total-variation
  envelope (``spectral_tv_bound``);
* independently, a four-step minorization of the kernel by the invariant
  law gives a geometric coupling bound on the mixing time
  (``coupling_bound``, ``minorization_check``).

Closed-form versions of the congestion and cycle constants are kept as
reference lines next to the computed ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .circles import StructureTensor, exact_dtype
from .modular import PrimeModulus
from .walk import (
    DEFAULT_EPSILON,
    Distribution,
    StochasticKernel,
    _contraction,
    build_kernel,
    detailed_balance,
    mixing_time,
    smallest_contraction_power,
    stationary,
    stationary_numerators,
)

CycleCollection = Mapping[int, Sequence[int]]


class NotReversible(ValueError):
    """Kernel fails detailed balance for the supplied distribution."""


class MissingPath(ValueError):
    """A support pair of the auxiliary chain has no assigned path."""


class MissingCycle(ValueError):
    """A state of the chain has no assigned odd cycle."""


class InvalidPathEdge(ValueError):
    """A path step leaves the kernel support or repeats an edge."""


class EvenCycle(ValueError):
    """Cycle collections need an odd number of edges per cycle."""


class InvalidCycleEdge(ValueError):
    """A cycle step leaves the kernel support or repeats an edge."""


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


def spectrum(kernel: StochasticKernel, dist: Distribution) -> SpectrumReport:
    """All eigenvalues of the kernel, via its symmetrization.

    Detailed balance makes sqrt(pi(x)/pi(y)) K(x, y) symmetric; it is
    computed here as sqrt(K(x,y) K(y,x)), which is symmetric in float64 by
    construction and equal to the conjugated kernel under reversibility.
    """
    check = detailed_balance(kernel, dist)
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


def dirichlet_form(
    kernel: StochasticKernel, dist: Distribution, f: np.ndarray
) -> float:
    """Energy of f under the kernel: half the pi-and-K weighted sum of
    squared differences over all ordered pairs."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (kernel.p,):
        raise ValueError(f"f must have shape ({kernel.p},)")
    pi = dist.to_array()
    diff = f[:, None] - f[None, :]
    return float(0.5 * (diff**2 * (pi[:, None] * kernel.matrix)).sum())


def equilibrium_kernel(modulus: PrimeModulus) -> StochasticKernel:
    """The rank-one chain whose every row is the invariant law."""
    p = modulus.p
    return StochasticKernel(np.tile(stationary_numerators(p), (p, 1)), p * p)


def _support_pairs(kernel: StochasticKernel) -> np.ndarray:
    return kernel.scaled > 0


def _walk_edges(
    walk: Sequence[int], start: int, end: int, support: np.ndarray,
    error: type[ValueError],
) -> list[tuple[int, int]]:
    """Edges of a path (start != end) or a cycle (start == end), after
    checking its endpoints, that every step is a support edge, and that no
    edge repeats; a violation raises ``error``."""
    walk = list(walk)
    if len(walk) < 2 or walk[0] != start or walk[-1] != end:
        ends = (f"start and end at {start}" if start == end
                else f"run from {start} to {end}")
        raise error(f"{_walk_name(start, end)} must {ends}")
    edges = list(zip(walk, walk[1:]))
    seen = set()
    for z, w in edges:
        if not support[z, w]:
            raise error(f"{_walk_name(start, end)} uses non-edge ({z}, {w})")
        if (z, w) in seen:
            raise error(f"{_walk_name(start, end)} repeats edge ({z}, {w})")
        seen.add((z, w))
    return edges


def _walk_name(start: int, end: int) -> str:
    return f"cycle for {start}" if start == end else f"path for {(start, end)}"


@dataclass(frozen=True)
class ComparisonBound:
    """Congestion constant A and mass ratio a of a two-chain comparison.

    For eigenvalues it yields alpha_i <= 1 - (a/A)(1 - alpha'_i), where
    the primed values belong to the auxiliary chain.
    """

    A: float
    a: float

    def alpha_upper(self, alpha_prime: float = 0.0) -> float:
        return 1.0 - (self.a / self.A) * (1.0 - alpha_prime)


def comparison_bound(
    kernel: StochasticKernel,
    dist: Distribution,
    other_kernel: StochasticKernel,
    other_dist: Distribution,
    routes: np.ndarray,
) -> ComparisonBound:
    """Evaluate the path-congestion constant

        A = max over edges (z, w) of
            sum over assigned paths through (z, w) of
                |path| pi'(x) K'(x, y),  divided by pi(z) K(z, w),

    where each off-diagonal support pair (x, y) of the auxiliary chain
    must carry a path along support edges of the base chain.

    ``routes[x, y]`` is the node sequence of the path from x to y, padded
    with -1 (see ``default_paths`` and ``route_array``). The first support
    pair in row-major order whose path is missing, has the wrong
    endpoints, steps off the support or repeats an edge is reported.
    """
    p = kernel.p
    if other_kernel.p != p or len(dist) != p or len(other_dist) != p:
        raise ValueError("chains must share one state space")
    routes = np.asarray(routes)
    if (routes.ndim != 3 or routes.shape[:2] != (p, p) or routes.shape[2] < 2
            or not np.issubdtype(routes.dtype, np.integer)):
        raise ValueError(f"routes must be an integer array of shape ({p}, {p}, L >= 2)")
    support = _support_pairs(kernel)
    pi = dist.to_array()
    other_pi = other_dist.to_array()
    other_k = other_kernel.matrix

    # the auxiliary chain's off-diagonal support pairs, row-major
    flat = np.flatnonzero((other_k != 0.0) & ~np.eye(p, dtype=bool))
    xs, ys = np.divmod(flat, p)
    walks = routes.reshape(p * p, -1)[flat].astype(np.int64, copy=False)
    if ((walks < -1) | (walks >= p)).any():
        raise ValueError(f"route entries must lie in [-1, {p})")
    nodes = walks >= 0
    steps = nodes[:, 1:]
    if (steps & ~nodes[:, :-1]).any():
        raise ValueError("route padding (-1) must come after every node")
    edge = np.where(steps, walks[:, :-1] * p + walks[:, 1:], -1)
    width = steps.shape[1]
    # each step against every earlier one: a few column compares, cheaper
    # than sorting every row (padding steps are masked out below)
    repeated = np.zeros_like(steps)
    for j in range(1, width):
        for i in range(j):
            repeated[:, j] |= edge[:, i] == edge[:, j]
    ends = nodes.copy()
    ends[:, :-1] &= ~steps
    # bad[n, j] flags a fault found at node j of pair n's walk, so the
    # first flag in row-major order belongs to the first bad pair
    bad = ends & (walks != ys[:, None])
    bad[:, 0] |= walks[:, 0] != xs
    bad[:, 1] |= ~nodes[:, 1]
    bad[:, 1:] |= steps & (~support.ravel()[edge] | repeated)
    if bad.any():
        n = int(bad.argmax()) // walks.shape[1]
        x, y = int(xs[n]), int(ys[n])
        if walks[n, 0] == -1:
            raise MissingPath(f"no path for support pair ({x}, {y})")
        _walk_edges(walks[n][nodes[n]].tolist(), x, y, support, InvalidPathEdge)

    # bin 0 takes the padding; the rest are fed pair-major, edge-minor, as
    # a loop over the pairs adds them, and bincount adds in input order,
    # so each edge's float sum is that loop's
    load = steps.sum(axis=1) * other_pi[xs] * other_k[xs, ys]
    congestion = np.bincount(
        (edge + 1).ravel(), weights=np.where(steps, load[:, None], 0.0).ravel(),
        minlength=p * p + 1)[1:]
    # an edge no load reached adds nothing to a max that starts at 0
    used = np.flatnonzero(congestion > 0)
    z, w = np.divmod(used, p)
    ratios = congestion[used] / (pi[z] * kernel.matrix[z, w])
    best = float(ratios.max()) if used.size else 0.0
    a = float((other_pi / pi).min())
    return ComparisonBound(A=best, a=a)


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


def route_array(paths: Mapping[tuple[int, int], Sequence[int]], p: int) -> np.ndarray:
    """The ``routes`` array of a mapping from pairs (x, y) to node
    sequences, as wide as the longest route; absent pairs (and empty
    routes) read as missing."""
    width = max([2, *map(len, paths.values())])
    routes = np.full((p, p, width), -1, dtype=np.int64)
    for (x, y), path in paths.items():
        if not (0 <= x < p and 0 <= y < p and all(0 <= z < p for z in path)):
            raise ValueError(f"path for {(x, y)} leaves the states [0, {p})")
        routes[x, y, :len(path)] = path
    return routes


@dataclass(frozen=True)
class OddCycleBound:
    """Odd-cycle congestion constant v and the bound lambda_min >= -1 + 2/v."""

    v: float
    alpha_min_lower: float


def cycle_length_by_chain(
    kernel: StochasticKernel, dist: Distribution, cycle: Sequence[int]
) -> float:
    """Sum of 1 / (pi(z) K(z, w)) over the traversed edges of a cycle."""
    return _chain_length(kernel.matrix, dist.to_array(), zip(cycle, cycle[1:]))


def _chain_length(k: np.ndarray, pi: np.ndarray, edges) -> float:
    return float(sum(1.0 / (pi[z] * k[z, w]) for z, w in edges))


def odd_cycle_bound(
    kernel: StochasticKernel, dist: Distribution, cycles: CycleCollection
) -> OddCycleBound:
    """Evaluate v = max over edges of the summed pi(x)-weighted chain
    lengths of the cycles traversing that edge, and the induced lower
    bound on the smallest eigenvalue.

    Every state must own one odd closed walk through itself along support
    edges, with no edge traversed twice within one walk.
    """
    p = kernel.p
    support = _support_pairs(kernel)
    pi = dist.to_array()

    congestion: dict[tuple[int, int], float] = {}
    for x in range(p):
        if x not in cycles:
            raise MissingCycle(f"no cycle for state {x}")
        edges = _walk_edges(cycles[x], x, x, support, InvalidCycleEdge)
        if len(edges) % 2 == 0:
            raise EvenCycle(f"cycle for {x} has {len(edges)} edges")
        weight = _chain_length(kernel.matrix, pi, edges) * pi[x]
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


def spectral_tv_bound(
    report: SpectrumReport, dist: Distribution, t: int
) -> float:
    """Per-step envelope: worst TV after t steps is at most
    alpha_star^t / (2 sqrt(min pi))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    pi_min = float(min(dist.weights))
    return 0.5 * pi_min**-0.5 * report.alpha_star**t


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
    n8 = math.ceil((1 + math.log(2)) * (p + 1) ** 4 / (p * p * (p - 1)))
    return CouplingBound(
        p=p,
        epsilon=epsilon,
        n=n,
        tau_bound=4 * n,
        closed_form_n=n8,
        contraction=_contraction(p),
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


def minorization_check(
    kernel: StochasticKernel, dist: Distribution
) -> MinorizationReport:
    """Verify the four-step minorization of the kernel by the invariant law.

    Raises the scaled kernel to the fourth power in exact arithmetic. Every
    term and partial sum is a nonnegative integer at most denominator^4,
    so ``exact_dtype`` picks float BLAS while that is below 2^53 (p up to
    9739 for the circle walk), then int64, then Python integers.
    """
    p = kernel.p
    claimed = Fraction(p * p * (p - 1), (1 + p) ** 4)
    den4 = kernel.denominator**4
    s = kernel.scaled.astype(exact_dtype(den4))
    e2 = s @ s
    e4 = e2 @ e2
    # entries of K^4 scale with pi only columnwise, so one exact ratio per
    # column suffices; min takes the first smallest column
    ratios = [Fraction(int(n), den4) / w
              for n, w in zip(e4.min(axis=0), dist.weights)]
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

    Builds the walk kernel, computes its spectrum, evaluates the path and
    cycle bounds with the default constructions, the closed forms, the
    coupling bound, and the measured mixing time.
    """
    kernel = build_kernel(StructureTensor(modulus))
    pi = stationary(modulus)
    spectral = spectrum(kernel, pi)
    comp = comparison_bound(
        kernel, pi, equilibrium_kernel(modulus), pi, default_paths(kernel)
    )
    cyc = odd_cycle_bound(kernel, pi, default_cycles(kernel))
    closed = closed_form_bounds(modulus)
    coup = coupling_bound(modulus, epsilon)
    mixing = mixing_time(kernel, epsilon)
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
