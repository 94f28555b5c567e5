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

Every bound reads the invariant law from the kernel's state count p as
the integer numerators ``stationary_numerators(p)`` over p^2. The
congestion constants A and v are exact rationals of those numerators and
the kernel's, each rounded to float64 once. Closed-form versions of them
are kept as reference lines next to the computed ones.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circles import DEFAULT_EPSILON, exact_dtype
from .modular import PrimeModulus
from .walk import (
    BadEpsilon,
    MixingReport,
    StochasticKernel,
    build_kernel,
    detailed_balance,
    mixing_time,
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
    """Descending spectrum of the symmetrized kernel, with 0-based
    descending indexing: ``eigenvalues[0]`` is 1."""

    eigenvalues: np.ndarray

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def alpha_star(self) -> float:
        """Spectral radius away from the top eigenvalue:
        max(lambda_1, |lambda_min|)."""
        return float(max(self.eigenvalues[1], abs(self.eigenvalues[-1])))

    @property
    def gap(self) -> float:
        """Spectral gap 1 - lambda_1."""
        return float(1.0 - self.eigenvalues[1])


def spectrum(kernel: StochasticKernel) -> SpectrumReport:
    """All eigenvalues of the kernel, via its symmetrization.

    Detailed balance makes sqrt(pi(x)/pi(y)) K(x, y) symmetric; it is
    computed here as sqrt(K(x,y) K(y,x)), which is symmetric in float64 by
    construction and equal to the conjugated kernel under reversibility.

    The eigenvalues are bit for bit those of ``np.linalg.eigh``, without
    its eigenvectors. ``eigh`` is LAPACK's dsyevd('V', 'L'). Unless the
    largest |entry| lies outside [sqrt(safmin/eps), 1/sqrt(safmin/eps)],
    where dsyevd first rescales, it makes three calls:

    1. dsytrd('L') reduces the matrix to a tridiagonal T = Q^T A Q and
       stores T's diagonal in the output W and its off-diagonal in E;
    2. dstedc('I') runs divide and conquer on T: it overwrites W with T's
       eigenvalues and writes T's eigenvectors into a matrix Z. With
       COMPZ = 'I' it sets Z to the identity before it reads it, so Z's
       contents on entry do not matter: ``_eigenvalues`` lets it write Z
       over the reduced matrix, whose Householder vectors nothing reads
       once dsytrd returns;
    3. dormtr multiplies Z by Q. It reads Q and writes only the
       vectors, so W is final after step 2.

    ``_eigenvalues`` makes calls 1 and 2 on the same matrix, reducing
    the array it is given in place, with a workspace that gives dsytrd
    the same block size, so it returns W. ``spectrum`` hands it the one
    array in which it forms sqrt(K(x,y) K(y,x)): the float kernel, with
    roots taken only in circle 0's row and column. That is bit for bit the
    whole-array fl(sqrt(fl(k_xy k_yx))):

    * ``detailed_balance`` passes with the weights 1 on circle 0 and p + 1
      on every other circle, so scaled[x, y] == scaled[y, x] for x, y != 0,
      and k_xy == k_yx there;
    * in radix 2 with round-to-nearest, sqrt(RN(k^2)) = |k| unless k^2
      underflows or overflows (S. Boldo, "Stupid is as stupid does: taking
      the square root of the square of a floating-point number", ENTCS
      317, 2015). An entry n/d with 1 <= n <= d < 2^63 has k^2 >= 2^-126,
      so it never underflows, and a zero entry stays zero.

    So the matrix is exactly symmetric, and its C buffer is also its
    Fortran buffer, the matrix ``eigh`` copies for dsyevd. dsyevd leaves
    a matrix unscaled when its largest entry lies in [2^-485, 2^485], as
    a reversible kernel's does: the entries lie in [0, 1], and the top
    eigenvalue 1 is at most the largest row sum, so the largest entry is
    at least 1/p. ``eigvalsh`` (dsyevd('N')) would not do: it runs dsterf
    in place of dstedc, and its last bits differ.
    """
    witness = detailed_balance(kernel)
    if witness is not None:
        raise NotReversible(f"detailed balance fails at pair {witness}")
    sym = kernel.scaled / kernel.denominator
    edge = np.sqrt(sym[0] * sym[:, 0])
    sym[0] = edge
    sym[:, 0] = edge
    evals = _eigenvalues(sym)[::-1]
    if abs(evals[0] - 1.0) > 1e-9:
        raise ValueError(f"top eigenvalue {evals[0]} is not 1")
    if evals[-1] < -1 - 1e-9:
        raise ValueError("eigenvalue outside [-1, 1]")
    return SpectrumReport(evals)


def _eigenvalues(sym: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the exactly symmetric float64 matrix
    ``sym``, bit for bit ``np.linalg.eigh(sym)[0]``: dsytrd('L') and then
    dstedc('I'), dsyevd without its back-transform (see ``spectrum``).

    dsytrd reduces ``sym`` in place, and dstedc then writes its
    eigenvector matrix Z over the same storage, so the contents are lost:
    a caller that still needs the matrix passes a copy. An array that is
    not a writable C-contiguous float64 one is copied first, and the copy
    is reduced and overwritten instead."""
    if _LAPACK is None:
        return np.linalg.eigh(sym)[0]
    dsytrd, dstedc = _LAPACK
    n = len(sym)
    a = np.require(sym, np.float64, ["C", "W"])
    d, e, tau, query = np.empty(n), np.empty(n), np.empty(n), np.empty(1)
    _lapack_call(dsytrd, b"L", n, a, n, d, e, tau, query, -1)
    # dsyevd hands dsytrd at least the optimal workspace that the query
    # returns, n times the block size, so the two block alike; dstedc('I')
    # needs 1 + 4n + n^2 and reads no more than that
    work = np.empty(max(int(query[0]), 1 + 4 * n + n * n))
    _lapack_call(dsytrd, b"L", n, a, n, d, e, tau, work, work.size)
    iwork = np.empty(3 + 5 * n, dtype=np.int64)
    _lapack_call(dstedc, b"I", n, d, e, a, n, work, work.size,
                 iwork, iwork.size)
    return d


def _lapack():
    """``dsytrd`` and ``dstedc`` of the LAPACK that ``numpy.linalg``
    links, or None; found once, as ``_LAPACK``, when this module is
    imported, so ``scan``'s forked workers inherit them.

    The extension module's handle resolves the symbols through its own
    dependencies. Only the names of numpy's wheels are tried: scipy-openblas
    with 64-bit integers, which the ``64_`` suffix fixes.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        return lib.scipy_dsytrd_64_, lib.scipy_dstedc_64_
    except (ImportError, AttributeError, OSError):
        return None


_LAPACK = _lapack()


def _lapack_call(routine, job: bytes, *args) -> None:
    """Call a LAPACK routine by the Fortran ABI: ``job``, then ``args``
    by reference (ints as 64-bit), then info and ``job``'s hidden length.
    A nonzero info raises as ``eigh`` does."""
    info = ctypes.c_int64()
    refs = [arg.ctypes.data_as(ctypes.c_void_p) if isinstance(arg, np.ndarray)
            else ctypes.byref(ctypes.c_int64(arg)) for arg in args]
    routine(job, *refs, ctypes.pointer(info), ctypes.c_size_t(len(job)))
    if info.value:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")


@dataclass(frozen=True)
class ComparisonBound:
    """Congestion constant A of the canonical paths against the
    equilibrium chain, and the bound lambda_1 <= 1 - 1/A.

    The equilibrium chain shares the invariant law, and its nontrivial
    eigenvalues are all 0, so comparing Dirichlet forms gives
    lambda_1 <= 1 - (1 - 0) / A for the walk.
    """

    A: float

    @property
    def alpha1_upper(self) -> float:
        return 1.0 - 1.0 / self.A


def comparison_bound(kernel: StochasticKernel) -> ComparisonBound:
    """Evaluate the path-congestion constant

        A = max over edges (z, u) of
            sum over the paths of ``default_paths`` through (z, u) of
                |path| pi(x) pi(y),  divided by pi(z) K(z, u),

    where pi is the invariant law and (x, y) runs over the ordered pairs
    x != y, each loaded as the equilibrium chain, pi(x) K'(x, y) =
    pi(x) pi(y). The routes are read a row x at a time, so no (p, p, 4)
    array is built. The canonical paths step along support edges and
    repeat none by construction, so they are not checked again here.

    With pi = w / p^2 and K = scaled / denominator, an edge's ratio is
    denominator / p^2 times load / capacity, for the integer load
    sum |path| w_x w_y and capacity w_z scaled(z, u). A path crosses an edge
    at most once, so a load is below 3 (sum w)^2 = 3 p^4 < 2^63 for p below
    about 41,000, where the int32 kernel alone would take 6.7 GB: the
    loads add exactly, in any order, in int64. A is the exact maximum,
    rounded once; a walk kernel's edges have two capacities, p + 1 and
    2 (p + 1).
    """
    p = kernel.p
    w = stationary_numerators(p)
    congestion = np.zeros(p * p, dtype=np.int64)
    for x, row in enumerate(_route_rows(kernel)):
        steps = row[:, 1:] >= 0
        lengths = steps.sum(axis=1)
        np.add.at(congestion, (row[:, :-1] * p + row[:, 1:])[steps],
                  np.repeat(lengths * w[x] * w, lengths))
    used = np.flatnonzero(congestion)  # the edges some path uses
    capacity, group = np.unique(w[used // p] * kernel.scaled.ravel()[used],
                                return_inverse=True)
    heaviest = np.zeros(capacity.size, dtype=np.int64)
    np.maximum.at(heaviest, group, congestion[used])
    ratio = max(map(Fraction, heaviest.tolist(), capacity.tolist()))
    return ComparisonBound(float(ratio * Fraction(kernel.denominator, p * p)))


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
    the reverse. Row x is ``_route_rows``' x-th array, copied into place.
    """
    p = kernel.p
    return np.fromiter(_route_rows(kernel), np.dtype((np.int64, (p, 4))), p)


def _route_rows(kernel: StochasticKernel) -> Iterator[np.ndarray]:
    """Yield ``default_paths(kernel)[x]``, a (p, 4) int64 array, for
    x = 0, 1, ..., p - 1, computing each row's intermediates when it is
    reached. A route in which a node follows a -1 has no intermediate:
    the first such pair, in row-major order, raises."""
    support = kernel.scaled > 0
    p = kernel.p
    succ = np.flatnonzero(support[0, 1:]) + 1
    if succ.size == 0:
        raise PathConstructionFailed("circle 0 has no successor")
    g = int(succ[0])
    # mid(r)[s]: smallest k with r -> k -> s on support edges, or -1;
    # it reads both[s, k] = support[r, k] & support[k, s]
    into = np.ascontiguousarray(support.T)
    states = np.arange(p)

    def mid(r: int) -> np.ndarray:
        both = into & support[r]
        k = both.argmax(axis=1)
        return np.where(both[states, k], k, -1)

    # routes out of 0 and into 0 go through g
    via_g = mid(g)
    for x in range(p):
        if x:
            row = np.column_stack([np.full(p, x), via_g if x == g else mid(x),
                                   states, np.full(p, -1)])
            row[0] = (g, 0, -1, -1) if x == g else (x, via_g[x], g, 0)
        else:
            row = np.column_stack([np.full(p, 0), np.full(p, g),
                                   via_g, states])
            row[g] = (0, g, -1, -1)
        row[x] = -1
        lost = ((row[:, :-1] < 0) & (row[:, 1:] >= 0)).any(axis=1)
        if lost.any():
            raise PathConstructionFailed(f"no mid-state for ({x}, {lost.argmax()})")
        yield row


@dataclass(frozen=True)
class OddCycleBound:
    """Odd-cycle congestion constant v and the bound lambda_min >= -1 + 2/v."""

    v: float

    @property
    def alpha_min_lower(self) -> float:
        return -1.0 + 2.0 / self.v


def odd_cycle_bound(kernel: StochasticKernel) -> OddCycleBound:
    """Evaluate v = max over edges of the summed pi(x)-weighted chain
    lengths of the cycles of ``default_cycles`` traversing that edge, and
    the induced lower bound on the smallest eigenvalue.

    The chain length of a cycle is the sum of 1 / (pi(z) K(z, u)) over its
    edges. Each cycle is odd, steps along support edges and repeats no
    edge by construction, so the cycles are not checked again here. With
    pi = w / p^2 and K = scaled / denominator, the cycle through x weighs
    denominator w_x sum 1 / (w_z scaled(z, u)), summed as Fractions and
    rounded once, at the maximum.
    """
    w = stationary_numerators(kernel.p).tolist()
    congestion: dict[tuple[int, int], Fraction] = {}
    for x, cycle in default_cycles(kernel).items():
        edges = list(zip(cycle, cycle[1:]))
        weight = w[x] * sum(Fraction(1, w[z] * int(kernel.scaled[z, u])) for z, u in edges)
        for e in edges:
            congestion[e] = congestion.get(e, 0) + weight
    return OddCycleBound(float(kernel.denominator * max(congestion.values())))


def default_cycles(kernel: StochasticKernel) -> dict[int, tuple[int, ...]]:
    """A shortest odd closed walk through every circle along walk edges
    (``_odd_cycle``).

    Every circle of the C_1 walk but 0 has a loop or a triangle, and 0
    needs five edges exactly when p = 7 (mod 12); the tests check both up
    to p = 499. The latter is proved: circle 0's only neighbour is 1, so
    a triangle through 0 is 0, 1, 1, 0. Unit vectors u, v have
    |u + v|^2 = 2 + 2 u . v, which is 1 exactly when, rotating u to
    (1, 0), v = (-1/2, y) with y^2 = 3/4. So the loop at 1 exists exactly
    when 3/4 is a square or 0 mod p; by quadratic reciprocity, for
    p = 3 (mod 4) it fails exactly when p = 7 (mod 12).
    """
    support = kernel.scaled > 0
    return {x: _odd_cycle(support, x) for x in range(kernel.p)}


def _odd_cycle(support: np.ndarray, x: int) -> tuple[int, ...]:
    """The lexicographically smallest closed walk through ``x`` of 1, then
    3, then 5 edges that repeats no edge: the first that a depth-first
    search over successors in increasing order completes, whose last two
    steps go to a predecessor of x and then to x."""
    # ahead[left - 1]: where a step may go with ``left`` edges to walk
    ahead = [np.arange(len(support)) == x, support[:, x]]

    def search(walk: tuple[int, ...], left: int) -> tuple[int, ...] | None:
        z = walk[-1]
        steps = support[z] & ahead[left - 1] if left <= 2 else support[z]
        for w in map(int, np.flatnonzero(steps)):
            if (z, w) in zip(walk, walk[1:]):
                continue
            found = walk + (w,) if left == 1 else search(walk + (w,), left - 1)
            if found:
                return found
        return None

    for length in (1, 3, 5):
        cycle = search((x,), length)
        if cycle:
            return cycle
    raise NoOddCycle(f"no odd closed walk of length <= 5 through state {x}")


def closed_form_bounds(
    modulus: PrimeModulus,
) -> tuple[ComparisonBound, OddCycleBound]:
    """Worst-case constants A = 3(p+3)(p+1)^2 / p^2 and v = 63(p+1), as a
    comparison and an odd-cycle bound, which give the eigenvalue bounds
    1 - 1/A and -1 + 2/v."""
    p = modulus.p
    return (ComparisonBound(3 * (p + 3) * (p + 1) ** 2 / p**2),
            OddCycleBound(63 * (p + 1)))


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

    ``n`` is the exact smallest power with (1 - m)^n < epsilon, for the
    minorization constant m = p^2 (p-1) / (p+1)^4. ``closed_form_n`` is
    N = ceil(ln(1/epsilon) / m), at least n as (1 - m)^N < e^(-mN) <= epsilon;
    the first step's slack, e^(-N m^2 / 2), covers a float ceiling one short.
    """

    n: int
    closed_form_n: int

    @property
    def tau_bound(self) -> int:
        return 4 * self.n


def coupling_bound(
    modulus: PrimeModulus, epsilon: float = DEFAULT_EPSILON
) -> CouplingBound:
    """Mixing-time bound from the four-step minorization: tau <= 4n."""
    n = smallest_contraction_power(modulus.p, epsilon)
    return CouplingBound(n, math.ceil(-math.log(epsilon) / _minorization(modulus.p)))


@dataclass(frozen=True)
class MinorizationReport:
    """Exact entrywise check of K^4(i, j) >= claimed * pi(j).

    ``min_ratio`` is the smallest K^4(i, j) / pi(j) as a Fraction.
    ``all_positive`` records strict positivity of K^4.
    """

    min_ratio: Fraction
    claimed: Fraction
    witness: tuple[int, int] | None
    all_positive: bool

    @property
    def holds(self) -> bool:
        return self.min_ratio >= self.claimed


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
    return MinorizationReport(
        min_ratio=ratios[j],
        claimed=claimed,
        witness=None if ratios[j] >= claimed else (int(e4[:, j].argmin()), j),
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


def walk_stages(
    modulus: PrimeModulus, epsilon: float = DEFAULT_EPSILON
) -> tuple[StochasticKernel, MixingReport, SpectrumReport, CouplingBound]:
    """The stages that ``bound_report`` and ``scan`` share, in order: the
    walk kernel, its measured mixing time, its spectrum and the coupling
    bound. Both run them here, so a scan row's floats are the report's.
    Measuring first makes a threshold below float64's TV floor fail
    within a few steps, before the other stages, whose exact contraction
    powers grow with ln(1/epsilon).
    """
    kernel = build_kernel(modulus)
    mixing = mixing_time(kernel, epsilon)
    return kernel, mixing, spectrum(kernel), coupling_bound(modulus, epsilon)


def bound_report(
    modulus: PrimeModulus,
    epsilon: float = DEFAULT_EPSILON,
) -> BoundReport:
    """Full bound pipeline for one modulus: ``walk_stages``, then the path
    and cycle bounds with the default constructions and their closed
    forms."""
    kernel, mixing, spectral, coup = walk_stages(modulus, epsilon)
    comp_closed, cyc_closed = closed_form_bounds(modulus)
    return BoundReport(
        p=modulus.p,
        lambda1=spectral.lambda1,
        lambda_min=spectral.lambda_min,
        alpha_star=spectral.alpha_star,
        comparison_A=comparison_bound(kernel).A,
        v=odd_cycle_bound(kernel).v,
        alpha1_upper_closed=comp_closed.alpha1_upper,
        alpha_min_lower_closed=cyc_closed.alpha_min_lower,
        coupling_n=coup.n,
        coupling_tau=coup.tau_bound,
        tau_measured=mixing.tau,
    )
