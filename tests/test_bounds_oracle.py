"""The path and cycle constructions against per-pair and per-state loops.

``default_paths`` and ``comparison_bound`` read the routes a row at a time, and
``default_cycles`` searches depth first. Loops are kept here as oracles:
the routes and cycles must be equal, the congestion constant A must be
the same float (both add each edge's loads in the same order), and A and
v must lie within 1e-12 relative of the exact rational congestions. The bounds do not
check the walks they build, so the walk validator below checks every
canonical path and cycle, for every generator.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewalk.bounds import (
    NoOddCycle,
    PathConstructionFailed,
    comparison_bound,
    default_cycles,
    default_paths,
    odd_cycle_bound,
    spectrum,
)
from circlewalk.circles import StructureTensor
from circlewalk.modular import make_modulus
from circlewalk.walk import build_kernel, stationary, stationary_numerators
from conftest import equilibrium_kernel, walk_kernel

PRIMES = [7, 11, 19, 23, 31, 43]


class BrokenWalk(AssertionError):
    """A path or cycle that the path and cycle bounds cannot use."""


def walk_edges(nodes, start, end, support):
    """Edges of a path (start != end) or a cycle (start == end), after
    checking its endpoints, that every step is a support edge, that no
    edge repeats, and that a cycle has an odd number of edges."""
    name = f"cycle for {start}" if start == end else f"path for {(start, end)}"
    nodes = list(nodes)
    if len(nodes) < 2 or nodes[0] != start or nodes[-1] != end:
        raise BrokenWalk(f"{name} does not run from {start} to {end}")
    edges = list(zip(nodes, nodes[1:]))
    for z, w in edges:
        if not support[z, w]:
            raise BrokenWalk(f"{name} uses non-edge ({z}, {w})")
    if len(set(edges)) < len(edges):
        raise BrokenWalk(f"{name} repeats an edge")
    if start == end and len(edges) % 2 == 0:
        raise BrokenWalk(f"{name} has {len(edges)} edges")
    return edges


def route_array(paths, p):
    """The (p, p, 4) ``routes`` array of a mapping from pairs to paths."""
    routes = np.full((p, p, 4), -1, dtype=np.int64)
    for (x, y), path in paths.items():
        routes[x, y, :len(path)] = path
    return routes


def paths_loop(kernel):
    """Per-pair routes: the direct edge (0, g) or 0, g, k, y out of 0, and
    x, k, y between nonzero circles, k the smallest intermediate; the
    swapped pair takes the route reversed."""
    support = kernel.scaled > 0
    p, g = kernel.p, int(np.flatnonzero(kernel.scaled[0])[0])
    paths = {}
    for r in range(p):
        for s in range(r + 1, p):
            if r == 0:
                if s == g:
                    route = (0, g)
                else:
                    mid = np.flatnonzero(support[g] & support[:, s])
                    if mid.size == 0:
                        raise PathConstructionFailed(f"no mid-state for (0, {s})")
                    route = (0, g, int(mid[0]), s)
            else:
                mid = np.flatnonzero(support[r] & support[:, s])
                if mid.size == 0:
                    raise PathConstructionFailed(f"no mid-state for ({r}, {s})")
                route = (r, int(mid[0]), s)
            paths[(r, s)] = route
            paths[(s, r)] = tuple(reversed(route))
    return paths


def comparison_loop(kernel, dist, paths):
    """A against the equilibrium chain by one float sum per edge, pairs
    row-major and edges in path order."""
    p = kernel.p
    pi = np.array(dist, dtype=float)
    other = equilibrium_kernel(p)
    other_k = other.scaled / other.denominator
    k = kernel.scaled / kernel.denominator
    congestion = {}
    for x in range(p):
        for y in range(p):
            if x == y:
                continue
            path = paths[(x, y)]
            edges = list(zip(path, path[1:]))
            load = len(edges) * pi[x] * other_k[x, y]
            for e in edges:
                congestion[e] = congestion.get(e, 0.0) + load
    best = 0.0
    for (z, w), total in congestion.items():
        best = max(best, total / (pi[z] * k[z, w]))
    return float(best)


def exact_congestion(kernel, paths):
    """A against the equilibrium chain in rationals. With pi = n / p^2 and
    K = s / (p+1), an edge's ratio is
    sum |path| n_x n_y (p+1) / (p^2 n_z s_zw)."""
    p = kernel.p
    n = stationary_numerators(p).tolist()
    totals = {}
    for (x, y), path in paths.items():
        edges = list(zip(path, path[1:]))
        for e in edges:
            totals[e] = totals.get(e, 0) + len(edges) * n[x] * n[y]
    return max(Fraction(t * (p + 1), p * p * n[z] * int(kernel.scaled[z, w]))
               for (z, w), t in totals.items())


def cycles_loop(kernel):
    """Per state: a loop, else the first triangle of the p x p grid in
    (a, b) order with distinct edges, else the first such five-edge walk."""
    support = kernel.scaled > 0
    p = kernel.p

    def distinct(seq):
        edges = list(zip(seq, seq[1:]))
        return len(edges) == len(set(edges))

    cycles = {}
    for x in range(p):
        if support[x, x]:
            cycles[x] = (x, x)
            continue
        grid = support[x][:, None] & support & support[:, x][None, :]
        triangles = ((x, int(a), int(b), x) for a, b in np.argwhere(grid))
        fives = ((x, a, b, c, d, x)
                 for a in range(p) if support[x, a]
                 for b in range(p) if support[a, b]
                 for c in range(p) if support[b, c]
                 for d in range(p) if support[c, d] and support[d, x])
        cycle = next((c for c in triangles if distinct(c)), None)
        cycle = cycle or next((c for c in fives if distinct(c)), None)
        if cycle is None:
            raise NoOddCycle(f"no odd closed walk of length <= 5 through state {x}")
        cycles[x] = cycle
    return cycles


def exact_cycle_congestion(kernel, cycles):
    """v in rationals: each cycle through x adds pi(x) times the sum of
    1 / (pi(z) K(z, w)) over its edges to each of its edges."""
    p = kernel.p
    pi = [Fraction(int(n), p * p) for n in stationary_numerators(p)]
    totals = {}
    for x, cycle in cycles.items():
        edges = list(zip(cycle, cycle[1:]))
        weight = pi[x] * sum(1 / (pi[z] * kernel.exact(z, w)) for z, w in edges)
        for e in edges:
            totals[e] = totals.get(e, 0) + weight
    return max(totals.values())


@functools.lru_cache(maxsize=None)
def walk(p, m):
    """(modulus, kernel of the walk generated by C_m, invariant law)."""
    modulus = make_modulus(p)
    return modulus, walk_kernel(StructureTensor(modulus), m), stationary(modulus)


@pytest.mark.parametrize("p", PRIMES)
def test_arrays_match_the_loops_for_every_generator(p):
    for m in range(1, p):
        _, kernel, pi = walk(p, m)
        paths = paths_loop(kernel)
        routes = default_paths(kernel)
        assert routes.shape == (p, p, 4) and routes.dtype == np.int64
        assert np.array_equal(routes, route_array(paths, p))
        comp = comparison_bound(kernel)
        assert comp.A == comparison_loop(kernel, pi, paths)
        assert comp.alpha1_upper == 1.0 - 1.0 / comp.A
        exact = exact_congestion(kernel, paths)
        assert abs(Fraction(comp.A) - exact) <= Fraction(1, 10**12) * exact
        cycles = default_cycles(kernel)
        assert cycles == cycles_loop(kernel)
        cyc = odd_cycle_bound(kernel)
        exact = exact_cycle_congestion(kernel, cycles)
        assert abs(Fraction(cyc.v) - exact) <= Fraction(1, 10**12) * exact
        assert cyc.alpha_min_lower == -1.0 + 2.0 / cyc.v
        # the bounds hold for the walk generated by C_m, not only C_1
        spectral = spectrum(kernel)
        assert spectral.lambda1 <= comp.alpha1_upper + 1e-9
        assert spectral.lambda_min >= cyc.alpha_min_lower - 1e-9


@pytest.mark.parametrize("p", [103, 211, 467, 499])
def test_cycles_match_the_loop_at_larger_primes(p):
    # 467 = 11 and 499 = 7 (mod 12): circle 0 takes a triangle at one and
    # five edges at the other
    kernel = build_kernel(make_modulus(p))
    assert default_cycles(kernel) == cycles_loop(kernel)


@pytest.mark.parametrize("p", [211, 499])
def test_paths_and_A_match_the_loops_at_larger_primes(p):
    kernel = build_kernel(make_modulus(p))
    paths = paths_loop(kernel)
    assert np.array_equal(default_paths(kernel), route_array(paths, p))
    assert comparison_bound(kernel).A == comparison_loop(
        kernel, stationary(make_modulus(p)), paths)


@pytest.mark.parametrize("p", PRIMES)
def test_canonical_paths_and_cycles_are_walks_for_every_generator(p):
    for m in range(1, p):
        _, kernel, _ = walk(p, m)
        support = kernel.scaled > 0
        routes = default_paths(kernel)
        for x in range(p):
            assert (routes[x, x] == -1).all()
            for y in range(p):
                if x != y:
                    path = routes[x, y]
                    walk_edges(path[path >= 0].tolist(), x, y, support)
        cycles = default_cycles(kernel)
        assert list(cycles) == list(range(p))
        for x, cycle in cycles.items():
            walk_edges(cycle, x, x, support)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_walk_validator_rejects_broken_walks(data):
    # the check above is only as strong as the validator: each break of a
    # canonical path or cycle must be caught
    p = data.draw(st.sampled_from(PRIMES[:4]))
    _, kernel, _ = walk(p, data.draw(st.integers(1, p - 1)))
    support = kernel.scaled > 0
    x, y = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    good = default_cycles(kernel)[x] if x == y else paths_loop(kernel)[(x, y)]
    a = int(np.flatnonzero(support[x] & (np.arange(p) != x))[0])
    off = np.flatnonzero(~support[x]).tolist()
    broken = data.draw(st.sampled_from([
        (x, data.draw(st.sampled_from(off)), y),  # off the support
        # the support is symmetric, so (good[1], x) is an edge
        (x, good[1], x) + good[1:],  # repeats (x, good[1])
        good + ((y + 1) % p,),  # wrong end
        ((x + 1) % p,) + good,  # wrong start
        (x,),  # too short
        *([(x, a, x)] if x == y else []),  # an even cycle
    ]))
    with pytest.raises(BrokenWalk):
        walk_edges(broken, x, y, support)
