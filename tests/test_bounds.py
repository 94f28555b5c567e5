import tracemalloc
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest

import circlewalk.bounds as bounds_mod
from circlewalk.bounds import (
    BoundReport,
    NoOddCycle,
    NotReversible,
    PathConstructionFailed,
    _minorization,
    _odd_cycle,
    bound_report,
    closed_form_bounds,
    comparison_bound,
    coupling_bound,
    default_cycles,
    default_paths,
    minorization_check,
    odd_cycle_bound,
    smallest_contraction_power,
    spectral_tv_bound,
    spectrum,
)
from circlewalk.circles import exact_dtype
from circlewalk.modular import make_modulus, primes_3_mod_4
from circlewalk.walk import (
    DEFAULT_EPSILON,
    BadEpsilon,
    StochasticKernel,
    build_kernel,
    mixing_time,
    stationary_array,
)
from conftest import equilibrium_kernel


def identity_kernel(p):
    return StochasticKernel(np.eye(p, dtype=np.int64))


def test_spectrum_top_eigenvalue(chain):
    for p in [7, 11, 19]:
        _, _, k, pi = chain(p)
        spectral = spectrum(k)
        assert spectral.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
        assert spectral.eigenvalues[-1] >= -1 - 1e-9
        assert spectral.alpha_star < 1  # ergodic walk
        assert spectral.gap == pytest.approx(1 - spectral.lambda1)


def test_spectrum_identity_kernel_degenerate(chain):
    _, _, _, pi = chain(7)
    spectral = spectrum(identity_kernel(7))
    assert np.allclose(spectral.eigenvalues, 1.0)


def test_spectrum_p7_second_eigenvalue_bound(chain):
    _, _, k, pi = chain(7)
    spectral = spectrum(k)
    assert spectral.lambda1 < 1 - 49 / 1920


def test_spectrum_rejects_non_reversible():
    # a rotation of the circles: K(x, x + 1) = 1 but K(x + 1, x) = 0
    rotation = StochasticKernel(np.roll(np.eye(7, dtype=np.int64), 1, axis=1))
    with pytest.raises(NotReversible,
                       match=r"^detailed balance fails at pair \(0, 1\)$"):
        spectrum(rotation)


def dirichlet_form(kernel, f):
    """Energy of f under the kernel: half the pi-and-K weighted sum of
    squared differences over all ordered pairs."""
    f = np.asarray(f, dtype=np.float64)
    pi = stationary_array(kernel.p)
    diff = f[:, None] - f[None, :]
    k = kernel.scaled / kernel.denominator
    return float(0.5 * (diff**2 * (pi[:, None] * k)).sum())


def test_dirichlet_form_constant_is_zero(chain):
    _, _, k, pi = chain(7)
    assert dirichlet_form(k, np.ones(7)) == pytest.approx(0.0, abs=1e-15)


def test_dirichlet_form_matches_eigenvalues(chain):
    # eigenvector of the symmetrized kernel, mapped back, has energy 1 - lambda
    for p in [7, 11]:
        _, _, k, pi = chain(p)
        spectral = spectrum(k)
        m = k.scaled / k.denominator
        lam, u = np.linalg.eigh(np.sqrt(m * m.T))
        lam, u = lam[::-1], u[:, ::-1]
        assert np.array_equal(lam, spectral.eigenvalues)
        pif = stationary_array(p)
        sqrt_pi = np.sqrt(pif)
        for i in range(p):
            g = u[:, i] / sqrt_pi
            norm = float((g * g * pif).sum())
            assert norm == pytest.approx(1.0, abs=1e-10)
            energy = dirichlet_form(k, g)
            assert energy == pytest.approx(1 - spectral.eigenvalues[i], abs=1e-8)


def test_dirichlet_form_indicator_hand_oracle(chain):
    _, _, k, pi = chain(7)
    f = np.zeros(7)
    f[0] = 1.0
    expected = 0.0  # independent double sum
    pif = stationary_array(7)
    m = k.scaled / k.denominator
    for x in range(7):
        for y in range(7):
            expected += 0.5 * (f[x] - f[y]) ** 2 * pif[x] * m[x, y]
    assert dirichlet_form(k, f) == pytest.approx(expected, abs=1e-15)


def eq2_bruteforce(kernel, pi, other, other_pi, paths):
    # direct double-loop evaluation over every base edge
    p = kernel.p
    pif, opif = np.array(pi, dtype=float), np.array(other_pi, dtype=float)
    k = kernel.scaled / kernel.denominator
    other_k = other.scaled / other.denominator
    best = 0.0
    for z in range(p):
        for w in range(p):
            if k[z, w] == 0:
                continue
            total = 0.0
            for (x, y), path in paths.items():
                if other_k[x, y] == 0 or x == y:
                    continue
                edges = list(zip(path, path[1:]))
                if (z, w) in edges:
                    total += len(edges) * opif[x] * other_k[x, y]
            best = max(best, total / (pif[z] * k[z, w]))
    return best


def route_mapping(routes):
    p = routes.shape[0]
    return {(x, y): tuple(int(v) for v in routes[x, y] if v >= 0)
            for x in range(p) for y in range(p) if routes[x, y, 0] >= 0}


def test_comparison_equilibrium_with_default_paths(chain):
    for p in [7, 11, 19]:
        m, _, k, pi = chain(p)
        comp = comparison_bound(k)
        assert [f.name for f in fields(comp)] == ["A"]
        assert comp.A > 1
        assert comp.alpha1_upper == 1.0 - 1.0 / comp.A
        spectral = spectrum(k)
        assert spectral.lambda1 <= comp.alpha1_upper + 1e-9
        if p == 7:
            oracle = eq2_bruteforce(k, pi, equilibrium_kernel(p), pi,
                                    route_mapping(default_paths(k)))
            assert comp.A == pytest.approx(oracle)


def test_the_bounds_build_their_own_walks(chain, monkeypatch):
    # through the module globals, so a wrapper installed there (as the
    # benchmark's tracer installs one) sees every call
    _, _, k, _ = chain(7)
    expected = (comparison_bound(k), odd_cycle_bound(k))
    calls = []
    for name in ("_route_rows", "default_cycles"):
        build = getattr(bounds_mod, name)
        monkeypatch.setattr(bounds_mod, name,
                            lambda kernel, build=build, name=name:
                            calls.append(name) or build(kernel))
    assert (comparison_bound(k), odd_cycle_bound(k)) == expected
    assert calls == ["_route_rows", "default_cycles"]


def ring_kernel(p):
    """The walk that steps to a neighbour on a ring of p states or stays."""
    eye = np.eye(p, dtype=np.int64)
    rot = np.roll(eye, 1, axis=1)
    return StochasticKernel(eye + rot + rot.T)


@pytest.mark.parametrize("build", [default_paths, comparison_bound])
def test_the_paths_refuse_a_walk_they_cannot_route(build):
    with pytest.raises(PathConstructionFailed,
                       match=r"^circle 0 has no successor$"):
        build(identity_kernel(7))
    # out of 0 the routes go 0, 1, k, y, and 1 reaches only 6, 0, 1, 2
    # and 3 in two steps, so (0, 4) is the first pair in row-major order
    # that has no route
    with pytest.raises(PathConstructionFailed,
                       match=r"^no mid-state for \(0, 4\)$"):
        build(ring_kernel(7))


def test_the_path_bound_reads_the_routes_a_row_at_a_time():
    # beside the kernel: the support, its transpose and one row's
    # candidate intermediates (p^2 bytes each) and the p^2 int64
    # congestion, 1.4 x 8 p^2 bytes; a (p, p, 4) routes array alone
    # would be 4 x 8 p^2
    p = 1019
    kernel = build_kernel(make_modulus(p))
    tracemalloc.start()
    try:
        comparison_bound(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * p * p


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
    support = k.scaled > 0
    for (x, y), path in paths.items():
        assert path[0] == x and path[-1] == y
        for z, w in zip(path, path[1:]):
            assert support[z, w]


def test_default_paths_use_smallest_intermediate(chain):
    m, _, k, _ = chain(11)
    routes = default_paths(k)
    support = k.scaled > 0
    for r in range(1, 11):
        for s in range(r + 1, 11):
            mid = routes[r, s, 1]
            for smaller in range(mid):
                assert not (support[r, smaller] and support[smaller, s])


def test_default_cycles_valid_and_short(chain):
    for p in [7, 11, 19]:
        m, _, k, pi = chain(p)
        cycles = default_cycles(k)
        support = k.scaled > 0
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
    # at p = 43 circle 0 has neither a loop nor a triangle, so its
    # search reaches five edges
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
    assert _odd_cycle(s, 0) == smallest == (0, 1, 2, 5, 1, 0)
    assert default_cycles(k)[0] == smallest


def test_five_edge_cycle_without_an_odd_cycle():
    # a 4-cycle is bipartite: no closed walk through it has odd length
    ring = np.roll(np.eye(4, dtype=bool), 1, axis=1)
    with pytest.raises(
            NoOddCycle,
            match="^no odd closed walk of length <= 5 through state 2$"):
        _odd_cycle(ring | ring.T, 2)


@pytest.mark.parametrize("p", primes_3_mod_4(3, 499))
def test_only_circle_0_needs_five_edges_and_only_at_7_mod_12(p):
    # circle 0's only neighbour is 1, so 0 has a triangle exactly when 1
    # has a loop, when 3/4 is a square or 0 mod p: when p != 7 (mod 12)
    lengths = {x: len(c) - 1
               for x, c in default_cycles(build_kernel(make_modulus(p))).items()}
    assert lengths.pop(0) == (5 if p % 12 == 7 else 3)
    assert set(lengths.values()) <= {1, 3}


def test_odd_cycle_bound_validates_spectrum(chain):
    for p in [7, 11, 19]:
        m, _, k, pi = chain(p)
        bound = odd_cycle_bound(k)
        spectral = spectrum(k)
        assert spectral.lambda_min >= bound.alpha_min_lower - 1e-9


def test_closed_form_values_p7():
    comp, cyc = closed_form_bounds(make_modulus(7))
    assert comp.alpha1_upper == pytest.approx(1 - 49 / 1920)
    assert cyc.alpha_min_lower == pytest.approx(-1 + 2 / 504)
    assert comp.A == pytest.approx(3 * 10 * 64 / 49)
    assert cyc.v == 63 * 8


def test_closed_forms_hold_for_spectrum(chain):
    for p in [7, 11, 19, 23]:
        m, _, k, pi = chain(p)
        spectral = spectrum(k)
        comp, cyc = closed_form_bounds(m)
        assert spectral.lambda1 <= comp.alpha1_upper + 1e-9
        assert spectral.lambda_min >= cyc.alpha_min_lower - 1e-9


@pytest.mark.parametrize("p", primes_3_mod_4(3, 499))
def test_computed_A_is_within_the_papers_linear_constant(p):
    # the canonical paths' congestion is at most 3(p+3)(p+1)^2/p^2, the
    # linear A of the paper; its odd-cycle v = 63(p+1) is not yet met
    m = make_modulus(p)
    assert comparison_bound(build_kernel(m)).A <= closed_form_bounds(m)[0].A


@pytest.mark.parametrize("p", primes_3_mod_4(3, 499))
def test_v_is_the_exact_half_integer(p):
    # the exact v is a half-integer at each of these primes (5415/2 at
    # p = 103); the float rounds it once, so it is one too
    v = odd_cycle_bound(build_kernel(make_modulus(p))).v
    assert (2 * v).is_integer()


def test_spectral_tv_bound_examples(chain):
    m, _, k, pi = chain(7)
    spectral = spectrum(k)
    assert spectral_tv_bound(spectral, 0) == pytest.approx(3.5)
    eq_spec = spectrum(equilibrium_kernel(7))
    assert eq_spec.alpha_star == pytest.approx(0.0, abs=1e-12)
    assert spectral_tv_bound(eq_spec, 1) <= 1e-9


def test_spectral_tv_bound_dominates_measured(chain):
    for p in [7, 11]:
        _, _, k, pi = chain(p)
        spectral = spectrum(k)
        tau = mixing_time(k).tau
        rows = np.eye(p)
        pif = stationary_array(p)
        step = k.scaled / k.denominator
        for t in range(2 * tau + 1):
            worst = 0.5 * np.abs(rows - pif).sum(axis=1).max()
            assert worst <= spectral_tv_bound(spectral, t) + 1e-9
            rows = rows @ step


def test_coupling_bound_p7():
    cb = coupling_bound(make_modulus(7))
    assert cb.n == 23
    assert cb.tau_bound == 92
    assert cb.closed_form_n == 24
    assert 1 - _minorization(7) == Fraction(4096 - 294, 4096)
    cb = coupling_bound(make_modulus(7), 0.01)
    assert (cb.n, cb.closed_form_n) == (62, 65)


def test_coupling_bound_is_tight_boundary():
    # n is the exact crossing: one step earlier stays above the threshold
    for p in [7, 11, 19, 43]:
        cb = coupling_bound(make_modulus(p))
        c, eps = 1 - _minorization(p), Fraction(DEFAULT_EPSILON)
        assert c**cb.n < eps
        assert c ** (cb.n - 1) >= eps


def test_contraction_power_when_eps_is_a_power_of_c():
    # at p = 7, c = 1901/2048 is dyadic, so c^2 is a float exactly and the
    # strict c^n < eps first holds at n = 3
    c = Fraction(1901, 2048)
    assert 1 - _minorization(7) == c
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


def test_bound_report_refuses_eps_one_before_the_bounds(monkeypatch):
    # mixing_time, the first stage, refuses eps = 1 as coupling_bound, the
    # last, does; the spectrum, paths and cycles between them never run
    monkeypatch.setattr(bounds_mod, "comparison_bound", lambda kernel: pytest.fail(
        "bound_report ran the bounds before refusing eps = 1"))
    with pytest.raises(BadEpsilon):
        bound_report(make_modulus(1019), 1.0)


def test_coupling_bound_monotone_and_dominated():
    previous = 0
    for p in [7, 11, 19, 23, 31, 43, 59]:
        cb = coupling_bound(make_modulus(p))
        assert cb.n >= previous
        assert cb.closed_form_n >= cb.n
        previous = cb.n


@pytest.mark.parametrize("epsilon", [DEFAULT_EPSILON, 0.5, 0.01, 1e-6])
def test_the_closed_form_n_is_at_least_n_at_every_epsilon(epsilon):
    # a closed form blind to eps, ceil((1 + ln 2) / m), would give 24
    # against n = 62 at p = 7, eps = 0.01, and 854 against n = 6957 at
    # p = 499, eps = 1e-6
    for p in primes_3_mod_4(3, 499):
        cb = coupling_bound(make_modulus(p), epsilon)
        assert cb.closed_form_n >= cb.n, p


def test_measured_mixing_below_coupling(chain):
    for p in [7, 11, 19]:
        m, _, k, _ = chain(p)
        assert mixing_time(k).tau <= coupling_bound(m).tau_bound


def test_minorization_claim(chain):
    for p in [7, 11, 19, 23]:
        m, _, k, pi = chain(p)
        report = minorization_check(k)
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
    report = minorization_check(k)
    # oracle: K^4 in int64 and one Fraction per column over (p+1)^4
    s = k.scaled.astype(np.int64)
    e4 = s @ s @ s @ s
    den4 = (p + 1) ** 4
    min_ratio = min(
        Fraction(int(n), den4) / w for n, w in zip(e4.min(axis=0), pi)
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
    lazy = StochasticKernel(denominator * np.eye(7, dtype=np.int64))
    assert exact_dtype(denominator**4) is dtype
    report = minorization_check(lazy)
    assert (report.holds, report.min_ratio, report.witness) == (False, 0, (1, 0))
    assert not report.all_positive


def test_bound_report_invariants(chain):
    m, _, _, _ = chain(7)
    report = bound_report(m)
    comp, cyc = closed_form_bounds(m)
    assert report.alpha1_upper_closed == comp.alpha1_upper
    assert report.alpha_min_lower_closed == cyc.alpha_min_lower
    assert report.coupling_tau == 4 * report.coupling_n
    assert report.tau_measured == 4
    keys = [f.name for f in fields(BoundReport)]
    assert keys == [
        "p", "lambda1", "lambda_min", "alpha_star", "comparison_A", "v",
        "alpha1_upper_closed", "alpha_min_lower_closed", "coupling_n",
        "coupling_tau", "tau_measured",
    ]
    assert list(asdict(report)) == keys
