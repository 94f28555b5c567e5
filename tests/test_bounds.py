from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest

from circlewalk.bounds import (
    BoundReport,
    EvenCycle,
    InvalidCycleEdge,
    InvalidPathEdge,
    MissingCycle,
    MissingPath,
    NoOddCycle,
    NotReversible,
    _five_edge_cycle,
    bound_report,
    closed_form_bounds,
    comparison_bound,
    coupling_bound,
    cycle_length_by_chain,
    default_cycles,
    default_paths,
    dirichlet_form,
    equilibrium_kernel,
    minorization_check,
    odd_cycle_bound,
    route_array,
    smallest_contraction_power,
    spectral_tv_bound,
    spectrum,
)
from circlewalk.circles import exact_dtype
from circlewalk.modular import make_modulus
from circlewalk.walk import (
    DEFAULT_EPSILON,
    BadEpsilon,
    Distribution,
    StochasticKernel,
    mixing_time,
)


def identity_kernel(p):
    return StochasticKernel(np.eye(p, dtype=np.int64), 1)


def test_spectrum_top_eigenvalue(chain):
    for p in [7, 11, 19]:
        _, _, k, pi = chain(p)
        spectral = spectrum(k, pi)
        assert spectral.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
        assert spectral.eigenvalues[-1] >= -1 - 1e-9
        assert spectral.alpha_star < 1  # ergodic walk
        assert spectral.gap == pytest.approx(1 - spectral.lambda1)


def test_spectrum_identity_kernel_degenerate(chain):
    _, _, _, pi = chain(7)
    spectral = spectrum(identity_kernel(7), pi)
    assert np.allclose(spectral.eigenvalues, 1.0)


def test_spectrum_p7_second_eigenvalue_bound(chain):
    _, _, k, pi = chain(7)
    spectral = spectrum(k, pi)
    assert spectral.lambda1 < 1 - 49 / 1920


def test_spectrum_rejects_non_reversible(chain):
    _, _, k, _ = chain(7)
    uniform = Distribution.exact_weights([Fraction(1, 7)] * 7)
    with pytest.raises(NotReversible):
        spectrum(k, uniform)


def test_dirichlet_form_constant_is_zero(chain):
    _, _, k, pi = chain(7)
    assert dirichlet_form(k, pi, np.ones(7)) == pytest.approx(0.0, abs=1e-15)


def test_dirichlet_form_matches_eigenvalues(chain):
    # eigenvector of the symmetrized kernel, mapped back, has energy 1 - lambda
    for p in [7, 11]:
        _, _, k, pi = chain(p)
        spectral = spectrum(k, pi)
        lam, u = np.linalg.eigh(np.sqrt(k.matrix * k.matrix.T))
        lam, u = lam[::-1], u[:, ::-1]
        assert np.array_equal(lam, spectral.eigenvalues)
        sqrt_pi = np.sqrt(pi.to_array())
        for i in range(p):
            g = u[:, i] / sqrt_pi
            norm = float((g * g * pi.to_array()).sum())
            assert norm == pytest.approx(1.0, abs=1e-10)
            energy = dirichlet_form(k, pi, g)
            assert energy == pytest.approx(1 - spectral.eigenvalues[i], abs=1e-8)


def test_dirichlet_form_indicator_hand_oracle(chain):
    _, _, k, pi = chain(7)
    f = np.zeros(7)
    f[0] = 1.0
    expected = 0.0  # independent double sum
    pif = pi.to_array()
    for x in range(7):
        for y in range(7):
            expected += 0.5 * (f[x] - f[y]) ** 2 * pif[x] * k.matrix[x, y]
    assert dirichlet_form(k, pi, f) == pytest.approx(expected, abs=1e-15)


def eq2_bruteforce(kernel, pi, other, other_pi, paths):
    # direct double-loop evaluation over every base edge
    p = kernel.p
    pif, opif = pi.to_array(), other_pi.to_array()
    best = 0.0
    for z in range(p):
        for w in range(p):
            if kernel.matrix[z, w] == 0:
                continue
            total = 0.0
            for (x, y), path in paths.items():
                if other.matrix[x, y] == 0 or x == y:
                    continue
                edges = list(zip(path, path[1:]))
                if (z, w) in edges:
                    total += len(edges) * opif[x] * other.matrix[x, y]
            best = max(best, total / (pif[z] * kernel.matrix[z, w]))
    return best


def route_mapping(routes):
    p = routes.shape[0]
    return {(x, y): tuple(int(v) for v in routes[x, y] if v >= 0)
            for x in range(p) for y in range(p) if routes[x, y, 0] >= 0}


def test_comparison_self_with_single_edge_paths(chain):
    _, _, k, pi = chain(7)
    paths = {
        (x, y): (x, y)
        for x in range(7)
        for y in range(7)
        if x != y and k.matrix[x, y] > 0
    }
    comp = comparison_bound(k, pi, k, pi, route_array(paths, 7))
    assert comp.A == pytest.approx(1.0)
    assert comp.a == pytest.approx(1.0)
    assert comp.A == pytest.approx(eq2_bruteforce(k, pi, k, pi, paths))


def test_comparison_equilibrium_with_default_paths(chain):
    for p in [7, 11, 19]:
        m, _, k, pi = chain(p)
        routes = default_paths(k)
        comp = comparison_bound(k, pi, equilibrium_kernel(m), pi, routes)
        assert comp.A > 1
        assert comp.a == pytest.approx(1.0)
        spectral = spectrum(k, pi)
        assert spectral.lambda1 <= comp.alpha_upper(0.0) + 1e-9
        if p == 7:
            oracle = eq2_bruteforce(k, pi, equilibrium_kernel(m), pi,
                                    route_mapping(routes))
            assert comp.A == pytest.approx(oracle)


def test_comparison_missing_path(chain):
    m, _, k, pi = chain(7)
    routes = default_paths(k)
    routes[2, 5] = -1
    with pytest.raises(MissingPath,
                       match=r"^no path for support pair \(2, 5\)$"):
        comparison_bound(k, pi, equilibrium_kernel(m), pi, routes)


def test_comparison_invalid_path_edge(chain):
    m, _, k, pi = chain(7)
    paths = route_mapping(default_paths(k))
    paths[(2, 5)] = (2, 5) if k.matrix[2, 5] == 0 else (2, 0, 5)
    with pytest.raises(InvalidPathEdge):
        comparison_bound(k, pi, equilibrium_kernel(m), pi, route_array(paths, 7))
    mid = default_paths(k)[2, 5, 1]
    paths[(2, 5)] = (mid, 5)
    with pytest.raises(InvalidPathEdge,
                       match=r"^path for \(2, 5\) must run from 2 to 5$"):
        comparison_bound(k, pi, equilibrium_kernel(m), pi, route_array(paths, 7))
    paths[(2, 5)] = (2, mid, 2, mid, 5)
    with pytest.raises(InvalidPathEdge,
                       match=rf"^path for \(2, 5\) repeats edge \(2, {mid}\)$"):
        comparison_bound(k, pi, equilibrium_kernel(m), pi, route_array(paths, 7))


def test_comparison_rejects_malformed_routes(chain):
    m, _, k, pi = chain(7)
    eq = equilibrium_kernel(m)
    routes = default_paths(k)
    for bad in (routes[:, :, :1], routes[:6], routes.astype(np.float64)):
        with pytest.raises(ValueError, match="^routes must be"):
            comparison_bound(k, pi, eq, pi, bad)
    gap = routes.copy()
    gap[2, 5] = (2, -1, 5, -1)
    with pytest.raises(ValueError, match=r"^route padding \(-1\) must come"):
        comparison_bound(k, pi, eq, pi, gap)
    for node in (-2, 7):
        out = routes.copy()
        out[2, 5, 1] = node
        with pytest.raises(ValueError, match=r"^route entries must lie in"):
            comparison_bound(k, pi, eq, pi, out)


def test_default_paths_shapes(chain):
    m, _, k, pi = chain(7)
    routes = default_paths(k)
    assert routes.shape == (7, 7, 4)
    assert routes[0, 1].tolist() == [0, 1, -1, -1]
    assert routes[0, 3, :2].tolist() == [0, 1] and routes[0, 3, 3] == 3
    assert routes[2, 5, 3] == -1
    assert routes[5, 2, :3].tolist() == routes[2, 5, 2::-1].tolist()
    assert (routes[np.arange(7), np.arange(7)] == -1).all()
    paths = route_mapping(routes)
    assert len(paths) == 7 * 6
    support = k.matrix > 0
    for (x, y), path in paths.items():
        assert path[0] == x and path[-1] == y
        for z, w in zip(path, path[1:]):
            assert support[z, w]


def test_default_paths_use_smallest_intermediate(chain):
    m, _, k, _ = chain(11)
    routes = default_paths(k)
    support = k.matrix > 0
    for r in range(1, 11):
        for s in range(r + 1, 11):
            mid = routes[r, s, 1]
            for smaller in range(mid):
                assert not (support[r, smaller] and support[smaller, s])


def test_route_array_round_trip(chain):
    _, _, k, _ = chain(11)
    routes = default_paths(k)
    assert np.array_equal(route_array(route_mapping(routes), 11), routes)
    assert (routes[np.arange(11), np.arange(11)] == -1).all()
    # as wide as the longest route; absent pairs are all padding
    wide = route_array({(1, 2): (1, 0, 1, 0, 1, 2), (3, 4): (3, 4)}, 5)
    assert wide.shape == (5, 5, 6)
    assert wide[3, 4].tolist() == [3, 4, -1, -1, -1, -1]
    assert (wide[2, 1] == -1).all()
    for bad in ({(0, 5): (0, 5)}, {(-1, 2): (4, 2)}, {(1, 2): (1, -1, 2)}):
        with pytest.raises(ValueError):
            route_array(bad, 5)


def test_cycle_length_by_chain_self_loop(chain):
    _, _, k, pi = chain(7)
    assert k.matrix[2, 2] > 0
    expected = 1.0 / (float(pi.weights[2]) * k.matrix[2, 2])
    assert cycle_length_by_chain(k, pi, (2, 2)) == pytest.approx(expected)


def test_default_cycles_valid_and_short(chain):
    for p in [7, 11, 19]:
        m, _, k, pi = chain(p)
        cycles = default_cycles(k)
        support = k.matrix > 0
        assert set(cycles) == set(range(p))
        for x, cycle in cycles.items():
            edges = list(zip(cycle, cycle[1:]))
            assert cycle[0] == x and cycle[-1] == x
            assert len(edges) % 2 == 1 and len(edges) <= 5
            assert len(edges) == len(set(edges))
            for z, w in edges:
                assert support[z, w]
        if support[p - 1, p - 1]:
            assert cycles[p - 1] == (p - 1, p - 1)


def test_five_edge_cycle_is_the_smallest_with_distinct_edges(chain):
    # at p = 43 circle 0 has neither a loop nor a triangle, so
    # default_cycles hands it to _five_edge_cycle
    _, _, k, _ = chain(43)
    s = k.scaled > 0
    assert not s[0, 0] and not (s[0][:, None] & s & s[:, 0][None, :]).any()
    # brute force: every closed walk 0, a, b, c, d, 0 in lexicographic order
    walks = (s[0, :, None, None, None] & s[:, :, None, None]
             & s[None, :, :, None] & s[None, None, :, :]
             & s[None, None, None, :, 0])
    smallest = next(
        w for w in ((0, *map(int, abcd), 0) for abcd in np.argwhere(walks))
        if len(set(zip(w, w[1:]))) == 5)
    assert _five_edge_cycle(s, 0) == smallest == (0, 1, 2, 5, 1, 0)
    assert default_cycles(k)[0] == smallest


def test_five_edge_cycle_without_an_odd_cycle():
    # a 4-cycle is bipartite: no closed walk through it has odd length
    ring = np.roll(np.eye(4, dtype=bool), 1, axis=1)
    with pytest.raises(
            NoOddCycle,
            match="^no odd closed walk of length <= 5 through state 2$"):
        _five_edge_cycle(ring | ring.T, 2)


def test_odd_cycle_bound_validates_spectrum(chain):
    for p in [7, 11, 19]:
        m, _, k, pi = chain(p)
        bound = odd_cycle_bound(k, pi, default_cycles(k))
        spectral = spectrum(k, pi)
        assert spectral.lambda_min >= bound.alpha_min_lower - 1e-9


def test_odd_cycle_bound_rejects_even_cycle(chain):
    m, _, k, pi = chain(7)
    cycles = dict(default_cycles(k))
    assert k.matrix[2, 3] > 0 and k.matrix[3, 2] > 0
    cycles[2] = (2, 3, 2)  # two edges
    with pytest.raises(EvenCycle):
        odd_cycle_bound(k, pi, cycles)


def test_odd_cycle_bound_rejects_bad_edge(chain):
    m, _, k, pi = chain(7)
    cycles = dict(default_cycles(k))
    assert k.matrix[5, 5] == 0
    cycles[5] = (5, 5)
    with pytest.raises(InvalidCycleEdge):
        odd_cycle_bound(k, pi, cycles)
    assert k.matrix[2, 2] > 0
    cycles[2] = (2, 2, 3)
    with pytest.raises(InvalidCycleEdge, match="^cycle for 2 must start and end at 2$"):
        odd_cycle_bound(k, pi, cycles)


def test_odd_cycle_bound_missing_cycle(chain):
    m, _, k, pi = chain(7)
    cycles = dict(default_cycles(k))
    del cycles[3]
    with pytest.raises(MissingCycle, match="^no cycle for state 3$"):
        odd_cycle_bound(k, pi, cycles)
    cycles[2] = (2, 2, 2, 2)  # three edges, all the same loop
    with pytest.raises(InvalidCycleEdge, match=r"^cycle for 2 repeats edge \(2, 2\)$"):
        odd_cycle_bound(k, pi, cycles)


def test_closed_form_values_p7():
    cf = closed_form_bounds(make_modulus(7))
    assert cf.alpha1_upper == pytest.approx(1 - 49 / 1920)
    assert cf.alpha_min_lower == pytest.approx(-1 + 2 / 504)
    assert cf.A == pytest.approx(3 * 10 * 64 / 49)
    assert cf.v == 63 * 8


def test_closed_forms_hold_for_spectrum(chain):
    for p in [7, 11, 19, 23]:
        m, _, k, pi = chain(p)
        spectral = spectrum(k, pi)
        cf = closed_form_bounds(m)
        assert spectral.lambda1 <= cf.alpha1_upper + 1e-9
        assert spectral.lambda_min >= cf.alpha_min_lower - 1e-9


def test_spectral_tv_bound_examples(chain):
    m, _, k, pi = chain(7)
    spectral = spectrum(k, pi)
    assert spectral_tv_bound(spectral, pi, 0) == pytest.approx(3.5)
    eq_spec = spectrum(equilibrium_kernel(m), pi)
    assert eq_spec.alpha_star == pytest.approx(0.0, abs=1e-12)
    assert spectral_tv_bound(eq_spec, pi, 1) <= 1e-9


def test_spectral_tv_bound_dominates_measured(chain):
    for p in [7, 11]:
        _, _, k, pi = chain(p)
        spectral = spectrum(k, pi)
        tau = mixing_time(k).tau
        rows = np.eye(p)
        pif = pi.to_array()
        for t in range(2 * tau + 1):
            worst = 0.5 * np.abs(rows - pif).sum(axis=1).max()
            assert worst <= spectral_tv_bound(spectral, pi, t) + 1e-9
            rows = rows @ k.matrix


def test_coupling_bound_p7():
    cb = coupling_bound(make_modulus(7))
    assert cb.n == 23
    assert cb.tau_bound == 92
    assert cb.closed_form_n == 24
    assert cb.contraction == Fraction(4096 - 294, 4096)


def test_coupling_bound_is_tight_boundary():
    # n is the exact crossing: one step earlier stays above the threshold
    for p in [7, 11, 19, 43]:
        cb = coupling_bound(make_modulus(p))
        eps = Fraction(DEFAULT_EPSILON)
        assert cb.contraction**cb.n < eps
        assert cb.contraction ** (cb.n - 1) >= eps


def test_contraction_power_when_eps_is_a_power_of_c():
    # at p = 7, c = 1901/2048 is dyadic, so c^2 is a float exactly and the
    # strict c^n < eps first holds at n = 3
    c = Fraction(1901, 2048)
    assert coupling_bound(make_modulus(7)).contraction == c
    assert Fraction(float(c**2)) == c**2
    assert smallest_contraction_power(7, float(c**2)) == 3


def test_coupling_bound_bad_epsilon():
    m = make_modulus(7)
    with pytest.raises(BadEpsilon):
        coupling_bound(m, 0.0)
    with pytest.raises(BadEpsilon):
        coupling_bound(m, 1.0)
    with pytest.raises(BadEpsilon):
        smallest_contraction_power(7, -0.5)


def test_coupling_bound_monotone_and_dominated():
    previous = 0
    for p in [7, 11, 19, 23, 31, 43, 59]:
        cb = coupling_bound(make_modulus(p))
        assert cb.n >= previous
        assert cb.closed_form_n >= cb.n
        previous = cb.n


def test_measured_mixing_below_coupling(chain):
    for p in [7, 11, 19]:
        m, _, k, _ = chain(p)
        assert mixing_time(k).tau <= coupling_bound(m).tau_bound


def test_minorization_claim(chain):
    for p in [7, 11, 19, 23]:
        m, _, k, pi = chain(p)
        report = minorization_check(k, pi)
        assert isinstance(report.min_ratio, Fraction)
        assert report.holds
        assert report.all_positive
        assert report.witness is None
        assert report.min_ratio >= report.claimed
        if p == 7:
            assert report.claimed == Fraction(294, 4096)
            assert report.min_ratio >= Fraction(294, 4096)


@pytest.mark.parametrize("p", [211, 499])
def test_minorization_exact_at_large_p(chain, p):
    _, _, k, pi = chain(p)
    report = minorization_check(k, pi)
    # oracle: K^4 in int64 and one Fraction per column over (p+1)^4
    s = k.scaled.astype(np.int64)
    e4 = s @ s @ s @ s
    den4 = (p + 1) ** 4
    min_ratio = min(
        Fraction(int(n), den4) / w for n, w in zip(e4.min(axis=0), pi.weights)
    )
    assert report.min_ratio == min_ratio
    assert report.claimed == Fraction(p * p * (p - 1), den4)
    assert report.holds and report.witness is None
    assert report.holds == (min_ratio >= report.claimed)
    assert report.all_positive == bool((e4 > 0).all())


@pytest.mark.parametrize("denominator, dtype", [
    (8, np.float32), (100, np.float64), (10**4, np.int64), (10**5, object),
])
def test_minorization_witness_on_a_lazy_kernel(chain, denominator, dtype):
    _, _, _, pi = chain(7)
    # a walk that never moves: K^4 = I, so every column's smallest ratio
    # is 0, first reached in column 0 at row 1
    lazy = StochasticKernel(denominator * np.eye(7, dtype=np.int64), denominator)
    assert exact_dtype(denominator**4) is dtype
    report = minorization_check(lazy, pi)
    assert (report.holds, report.min_ratio, report.witness) == (False, 0, (1, 0))
    assert not report.all_positive


def test_bound_report_invariants(chain):
    m, _, _, _ = chain(7)
    report = bound_report(m)
    closed = closed_form_bounds(m)
    assert report.alpha1_upper_closed == closed.alpha1_upper
    assert report.alpha_min_lower_closed == closed.alpha_min_lower
    assert report.coupling_tau == 4 * report.coupling_n
    assert report.tau_measured == 4
    keys = [f.name for f in fields(BoundReport)]
    assert keys == [
        "p", "lambda1", "lambda_min", "alpha_star", "comparison_A", "v",
        "alpha1_upper_closed", "alpha_min_lower_closed", "coupling_n",
        "coupling_tau", "tau_measured",
    ]
    assert list(asdict(report)) == keys
