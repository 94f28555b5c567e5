"""The circle-generated random walk as a Markov chain on circle indices.

The kernel of the walk generated by C_m sends circle i to circle j with
probability n_im^j. It is ergodic and reversible with respect to the
measure that weights each circle by its point count, so iterating from any
start converges to that measure. Mixing is measured in total variation
from the null circle 0: the walk is the quadrance image of a plane walk
whose starts are all equally far from uniform, so circle 0 is the worst
start (proof at ``mixing_time``). The TV to the invariant law never
increases along a Markov chain, so the measurement stops, unmixed, at the
first step that fails to lower it: below float64's TV floor (about 1e-15)
no further step can help. A seeded plane simulator provides the Monte
Carlo counterpart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circles import (
    DEFAULT_EPSILON,
    StructureTensor,
    _first_witness,
    circle_points,
    exact_dtype,
)
from .modular import PrimeModulus

TRIAL_BLOCK = 2**16  # trials whose steps ``simulate`` gathers at once


class BadEpsilon(ValueError):
    """Total-variation threshold outside the usable range."""


class NotMixed(RuntimeError):
    """Mixing threshold not reached: the TV stopped falling above it."""

    def __init__(self, message: str, tv_curve: tuple[float, ...]):
        super().__init__(message)
        self.tv_curve = tv_curve

    def __reduce__(self):
        # a scan worker's NotMixed crosses the process pool by pickle
        return NotMixed, (str(self), self.tv_curve)


class StochasticKernel:
    """Row-stochastic matrix stored only as integer numerators over a
    common denominator; a stage that reads floats divides them itself.

    The denominator is the rows' common total, read off row 0; every
    other row is checked to total the same, in int64. A read-only signed
    integer array that owns its data, such as the int16 ``n1`` of
    ``StructureTensor``, is kept as it is (a product of its entries must
    name a dtype that holds it); any other input is copied to int64, so
    no caller can change the numerators.
    """

    __slots__ = ("p", "scaled", "denominator")

    def __init__(self, scaled: np.ndarray):
        scaled = np.asarray(scaled)
        if scaled.ndim != 2 or scaled.shape[0] != scaled.shape[1]:
            raise ValueError("kernel must be square")
        if scaled.size == 0:
            raise ValueError("kernel must have a state")
        if not np.issubdtype(scaled.dtype, np.integer):
            raise ValueError("scaled entries must be integers")
        if (not np.issubdtype(scaled.dtype, np.signedinteger)
                or scaled.flags.writeable or not scaled.flags.owndata):
            scaled = scaled.astype(np.int64)
        if (scaled < 0).any():
            raise ValueError("negative kernel entry")
        totals = scaled.sum(axis=1, dtype=np.int64)
        denominator = int(totals[0])
        if denominator <= 0:
            raise ValueError("row 0 must have a positive total")
        bad = totals != denominator
        if bad.any():
            raise ValueError(f"row {int(np.argmax(bad))} does not sum to 1")
        scaled.setflags(write=False)
        object.__setattr__(self, "p", scaled.shape[0])
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("StochasticKernel is immutable")

    def exact(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.scaled[i, j]), self.denominator)

    def __repr__(self) -> str:
        return f"StochasticKernel(p={self.p})"


def build_kernel(modulus: PrimeModulus) -> StochasticKernel:
    """Kernel of the C_1 walk: entry (i, j) is n_i1^j = n_1i^j, the
    numerators ``StructureTensor(modulus).n1`` over p + 1, held as that
    int16 array up to p = 16363, not a copy of it. The C_m walk, m != 0,
    is this kernel relabelled by k -> k/m (``numerators(m)``), so every
    generator has the same mixing time, spectrum and bounds."""
    return StochasticKernel(StructureTensor(modulus).n1)


def stationary_numerators(p: int) -> np.ndarray:
    """Numerators of the invariant law over p^2, each circle weighted by
    its size: 1 on the null circle and p + 1 on the other p - 1 circles."""
    w = np.full(p, p + 1, dtype=np.int64)
    w[0] = 1
    return w


def stationary_array(p: int) -> np.ndarray:
    """Float projection of the invariant law for state count p."""
    return stationary_numerators(p) / p**2


def stationary(modulus: PrimeModulus) -> tuple[Fraction, ...]:
    """Invariant law of every circle walk, exact: the numerators over p^2
    as Fractions."""
    p = modulus.p
    return tuple(Fraction(int(w), p * p) for w in stationary_numerators(p))


def detailed_balance(kernel: StochasticKernel) -> tuple[int, int] | None:
    """Exact check of pi(x) K(x, y) == pi(y) K(y, x) for all pairs, with
    pi the invariant law of the kernel's state count: the first violating
    (x, y), or None when balance holds.

    This compares the integer fluxes num(x) * scaled(x, y), num =
    ``stationary_numerators(p)`` (the denominator p^2 cancels), with their
    transpose, in the dtype ``exact_dtype`` allows, multiplied straight
    from the int64 numerators with no converted copy; the mismatch mask is
    symmetric with a false diagonal, so its first hit in row-major order
    has x < y.
    """
    num = stationary_numerators(kernel.p)
    dtype = exact_dtype(int(num.max()) * int(kernel.scaled.max()))
    flux = np.multiply(num[:, None], kernel.scaled, dtype=dtype)
    return _first_witness(flux != flux.T)


@dataclass(frozen=True)
class MixingReport:
    """Worst-start mixing measurement: threshold and TV curve, whose last
    step is the crossing time ``tau``.

    ``tv_curve[t]`` is the total variation to the invariant law after t
    steps from circle 0, the worst starting circle.
    """

    epsilon: float
    tv_curve: tuple[float, ...]

    @property
    def tau(self) -> int:
        return len(self.tv_curve) - 1

    def __post_init__(self):
        curve = self.tv_curve
        if not curve:
            raise ValueError("curve must cover step 0")
        for a, b in zip(curve, curve[1:]):
            if b > a + 1e-12:
                raise ValueError("worst-case TV curve must be non-increasing")
        if curve[self.tau] > self.epsilon:
            raise ValueError("curve does not cross the threshold at tau")
        if self.tau > 0 and curve[self.tau - 1] <= self.epsilon:
            raise ValueError("threshold already met before tau")


def mixing_time(
    kernel: StochasticKernel, epsilon: float = DEFAULT_EPSILON
) -> MixingReport:
    """First step at which every start is within ``epsilon`` of the
    invariant law in total variation: the worst-case mixing time.

    Only the row of circle 0 is iterated, since TV_k(t) <= TV_0(t) for
    every circle k and step t. Proof: the C_m walk on circles is the
    quadrance image of the plane walk X_{t+1} = X_t + U, U uniform on C_m.
    From x the plane law is the law from the origin shifted by x, and the
    uniform plane law is shift-invariant, so every start is the same TV
    distance from it. Projecting to circles cannot increase TV. From the
    origin both laws are constant on each circle (the rotations fixing
    x^2 + y^2 fix C_m and act transitively on every circle), so there the
    projection loses nothing. The proof needs the plane walk, so a kernel
    is refused unless row 0 is a point mass on a nonzero circle, as the
    row of every circle walk is (n_0g^k = [k == g]): a necessary
    condition, not a sufficient one.

    The loop stops on what it measures. The TV to the invariant law never
    increases along a Markov chain (Levin, Peres and Wilmer, *Markov
    Chains and Mixing Times*, ch. 4), so a step that does not lower the
    float TV means it has hit float64's floor; ``NotMixed`` is raised
    there, with the curve measured so far.
    """
    row0 = np.flatnonzero(kernel.scaled[0])
    if row0.size != 1 or row0[0] == 0:
        raise ValueError(
            "mixing_time needs a walk kernel: row 0 is not a point mass "
            "on a nonzero circle")
    if not 0 < epsilon < 1:
        raise BadEpsilon(f"epsilon must be in (0, 1), got {epsilon}")

    p = kernel.p
    pi = stationary_array(p)
    step = kernel.scaled / kernel.denominator
    row = np.zeros(p)
    row[0] = 1.0
    curve: list[float] = []
    for t in itertools.count():
        curve.append(float(0.5 * np.abs(row - pi).sum()))
        if curve[-1] <= epsilon:
            return MixingReport(epsilon, tuple(curve))
        if t > 0 and curve[-1] >= curve[-2]:
            msg = f"worst TV stopped falling at {curve[-1]:.3e} > {epsilon}"
            raise NotMixed(f"{msg} after {t} steps", tuple(curve))
        row = row @ step


def boost_epsilon(tau_base: int, epsilon: float) -> int:
    """Upper bound on tau at ``epsilon``, derived from tau at 1/(2e).

    One crossing at 1/(2e) shrinks TV geometrically, so tau multiplies by
    ceil(ln(1/epsilon)). Thresholds at or above 1/(2e) need no boost.
    """
    if not 0 < epsilon < 1:
        raise BadEpsilon(f"epsilon must be in (0, 1), got {epsilon}")
    if tau_base < 0:
        raise ValueError("tau_base must be nonnegative")
    if epsilon >= DEFAULT_EPSILON:
        return tau_base
    return tau_base * math.ceil(math.log(1 / epsilon))


def simulate(
    modulus: PrimeModulus, steps: int, trials: int, seed: int
) -> np.ndarray:
    """Run independent C_1 walks on the plane from the origin and count
    the walks that end on each circle: an int64 array of length p.

    Each step adds a uniformly chosen point of C_1. Draws are consumed
    trial-major then step-minor from one generator keyed by ``seed``, so
    identical arguments reproduce identical counts. Memory is the
    (trials, steps) draws, one block of gathered steps, each walk's end
    point and the p counts.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if trials < 1:
        raise ValueError("trials must be positive")
    p = modulus.p
    pts = np.asarray(circle_points(modulus, 1), dtype=np.int64)

    rng = np.random.default_rng(seed)
    # one call: numpy's bounded draws buffer and reject within a call, so
    # drawing block by block would shift the seeded stream. The gather and
    # the sums go by blocks of trials, so one block of steps is held at once
    idx = rng.integers(0, pts.shape[0], size=(trials, steps))
    fx, fy = (
        np.concatenate([
            coord[idx[lo:lo + TRIAL_BLOCK]].sum(axis=1)
            for lo in range(0, trials, TRIAL_BLOCK)
        ]) % p
        for coord in pts.T
    )
    return np.bincount((fx * fx + fy * fy) % p, minlength=p)
