"""The array path and cycle constructions against the per-pair loops.

``default_paths``, ``comparison_bound`` and ``default_cycles`` work on
whole arrays. The loops they replaced are kept here as oracles: the routes
and cycles must be equal, the congestion constant A must be the same float
(both add each edge's loads in the same order), and A must lie within
1e-12 relative of the exact rational congestion. Broken routes must raise
the loop's exception with the loop's message.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewalk.bounds import (
    InvalidPathEdge,
    MissingPath,
    NoOddCycle,
    PathConstructionFailed,
    _walk_edges,
    comparison_bound,
    default_cycles,
    default_paths,
    equilibrium_kernel,
    odd_cycle_bound,
    route_array,
    spectrum,
)
from circlewalk.circles import StructureTensor
from circlewalk.modular import make_modulus
from circlewalk.walk import stationary, stationary_numerators
from conftest import walk_kernel

PRIMES = [7, 11, 19, 23, 31, 43]


def paths_loop(kernel):
    """Per-pair routes: the direct edge (0, g) or 0, g, k, y out of 0, and
    x, k, y between nonzero circles, k the smallest intermediate; the
    swapped pair takes the route reversed."""
    support = kernel.scaled > 0
    p, g = kernel.p, kernel.generator
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


def comparison_loop(kernel, dist, other_kernel, other_dist, paths):
    """A by one float sum per edge, pairs row-major and edges in path order."""
    p = kernel.p
    support = kernel.scaled > 0
    pi = np.array(dist, dtype=float)
    other_pi = np.array(other_dist, dtype=float)
    other_k = other_kernel.matrix
    congestion = {}
    for x in range(p):
        for y in range(p):
            if x == y or other_k[x, y] == 0.0:
                continue
            path = paths.get((x, y))
            if path is None:
                raise MissingPath(f"no path for support pair ({x}, {y})")
            edges = _walk_edges(path, x, y, support, InvalidPathEdge)
            load = len(edges) * other_pi[x] * other_k[x, y]
            for e in edges:
                congestion[e] = congestion.get(e, 0.0) + load
    best = 0.0
    for (z, w), total in congestion.items():
        best = max(best, total / (pi[z] * kernel.matrix[z, w]))
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


@functools.lru_cache(maxsize=None)
def walk(p, m):
    """(modulus, kernel of the walk generated by C_m, invariant law)."""
    modulus = make_modulus(p)
    return modulus, walk_kernel(StructureTensor(modulus), m), stationary(modulus)


@pytest.mark.parametrize("p", PRIMES)
def test_arrays_match_the_loops_for_every_generator(p):
    for m in range(1, p):
        modulus, kernel, pi = walk(p, m)
        eq = equilibrium_kernel(modulus)
        paths = paths_loop(kernel)
        routes = default_paths(kernel)
        assert routes.shape == (p, p, 4) and routes.dtype == np.int64
        assert np.array_equal(routes, route_array(paths, p))
        comp = comparison_bound(kernel, eq, routes)
        assert comp.A == comparison_loop(kernel, pi, eq, pi, paths)
        exact = exact_congestion(kernel, paths)
        assert abs(Fraction(comp.A) - exact) <= Fraction(1, 10**12) * exact
        cycles = default_cycles(kernel)
        assert cycles == cycles_loop(kernel)
        # the bounds hold for the walk generated by C_m, not only C_1
        spectral = spectrum(kernel)
        assert spectral.lambda1 <= comp.alpha_upper(0.0) + 1e-9
        cyc = odd_cycle_bound(kernel, cycles)
        assert spectral.lambda_min >= cyc.alpha_min_lower - 1e-9


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (MissingPath, InvalidPathEdge) as exc:
        return type(exc), str(exc)


BREAKS = ["delete", "off_support", "repeat_edge", "wrong_endpoints"]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_broken_routes_raise_what_the_loop_raises(data):
    p = data.draw(st.sampled_from(PRIMES[:4]))
    m = data.draw(st.integers(1, p - 1))
    modulus, kernel, pi = walk(p, m)
    support = kernel.scaled > 0
    paths = paths_loop(kernel)
    # one or two pairs, so the first in row-major order must be reported
    pairs = data.draw(st.lists(st.sampled_from(sorted(paths)), min_size=1,
                               max_size=2, unique=True))
    for x, y in pairs:
        route = paths[(x, y)]
        kind = data.draw(st.sampled_from(BREAKS))
        if kind == "delete":
            del paths[(x, y)]
        elif kind == "off_support":
            w = data.draw(st.sampled_from(np.flatnonzero(~support[x]).tolist()))
            paths[(x, y)] = (x, w, y)
        elif kind == "repeat_edge":
            # the support is symmetric, so (route[1], x) is an edge
            paths[(x, y)] = (x, route[1], x) + route[1:]
        else:
            wrong = [route[::-1], (x,), route + (x,)]  # start, length, end
            paths[(x, y)] = data.draw(st.sampled_from(wrong))
    eq = equilibrium_kernel(modulus)
    expected = outcome(comparison_loop, kernel, pi, eq, pi, paths)
    assert expected[0] != "ok"
    got = outcome(lambda *a: comparison_bound(*a).A,
                  kernel, eq, route_array(paths, p))
    assert got == expected
