import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewalk.circles import (
    StructureTensor,
    circle_size,
    pair_quadrance_counts,
    quadrance,
)
from circlewalk.modular import make_modulus, primes_3_mod_4
from circlewalk.walk import (
    DEFAULT_EPSILON,
    BadEpsilon,
    Distribution,
    LengthMismatch,
    MixingReport,
    NotMixed,
    ZeroGenerator,
    boost_epsilon,
    build_kernel,
    detailed_balance,
    iterate,
    mixing_time,
    simulate,
    stationary,
    stationary_array,
    stationary_numerators,
    tv_distance,
)


def test_kernel_examples(chain):
    _, _, k, _ = chain(7)
    assert k.exact(0, 1) == 1 and all(k.exact(0, j) == 0 for j in range(2, 7))
    assert k.exact(1, 0) == Fraction(1, 8)
    assert k.exact(1, 2) == Fraction(1, 4)


def test_kernel_invariants(chain):
    _, _, k, _ = chain(11)
    assert k.scaled.sum(axis=1).tolist() == [12] * 11  # rows exactly stochastic
    assert set(np.unique(k.scaled[1:])) <= {0, 1, 2}
    assert k.scaled[0, 1] == 12
    assert (k.scaled >= 0).all()


@pytest.mark.parametrize("p", [7, 11, 19])
def test_kernel_matches_pair_counts_for_every_generator(p, chain):
    # pins each kernel to brute-force pair counting, not only to the table
    m, t, _, _ = chain(p)
    for g in range(1, p):
        k = build_kernel(t, g)
        for i in range(p):
            total = circle_size(m, i) * circle_size(m, g)
            counts = pair_quadrance_counts(m, i, g)
            assert (k.scaled[i] * total == counts * (p + 1)).all()


def test_zero_generator_rejected(chain):
    _, t, _, _ = chain(7)
    with pytest.raises(ZeroGenerator):
        build_kernel(t, 0)
    with pytest.raises(IndexError):
        build_kernel(t, 7)


def test_stationary_examples():
    pi7 = stationary(make_modulus(7))
    assert pi7.weights == (Fraction(1, 49),) + (Fraction(8, 49),) * 6
    pi11 = stationary(make_modulus(11))
    assert pi11.weights[0] == Fraction(1, 121)
    assert all(w == Fraction(12, 121) for w in pi11.weights[1:])
    assert sum(pi11.weights) == 1


def test_stationary_array_is_the_exact_law_in_float64():
    for p in primes_3_mod_4(7, 499):
        exact = stationary(make_modulus(p)).to_array()
        assert np.array_equal(stationary_array(p), exact)


@pytest.mark.parametrize("p", [7, 11])
def test_stationary_invariant_for_every_generator(p, chain):
    m, t, _, pi = chain(p)
    for g in range(1, p):
        k = build_kernel(t, g)
        for j in range(p):
            assert sum(pi.weights[i] * k.exact(i, j) for i in range(p)) == pi.weights[j]


def test_detailed_balance_examples(chain):
    m, _, k, pi = chain(7)
    assert detailed_balance(k, pi).ok
    uniform = Distribution.exact_weights([Fraction(1, 7)] * 7)
    res = detailed_balance(k, uniform)
    assert not res.ok
    assert 0 in res.witness  # violation involves the null-circle row
    delta0 = Distribution.point_mass(7, 0)
    assert not detailed_balance(k, delta0).ok


def balance_witness_by_loop(kernel, dist):
    """First (x, y), x < y in row-major order, with pi(x) K(x, y) !=
    pi(y) K(y, x), compared as Fractions; None when balance holds."""
    w = dist.weights
    for x in range(kernel.p):
        for y in range(x + 1, kernel.p):
            if w[x] * kernel.exact(x, y) != w[y] * kernel.exact(y, x):
                return (x, y)
    return None


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([7, 11]), data=st.data())
def test_detailed_balance_witness_matches_the_fraction_loop(chain, p, data):
    _, tensor, _, _ = chain(p)
    k = build_kernel(tensor, data.draw(st.integers(1, p - 1)))
    # a multiple of the invariant law nudged by -1, 0 or 1 at a few
    # circles; the scales put the fluxes in each exact_dtype tier, where
    # they differ only in their last units. Each circle is nudged at most
    # once, so no weight goes negative (the smallest, circle 0's, is scale)
    scale = data.draw(st.sampled_from([1, 3, 2**21 + 1, 2**50 + 1, 10**20 + 7]))
    weights = [scale * n for n in stationary_numerators(p).tolist()]
    for x in data.draw(st.lists(st.integers(0, p - 1), max_size=3, unique=True)):
        weights[x] += data.draw(st.integers(-1, 1))
    dist = Distribution.exact_weights(Fraction(w, sum(weights)) for w in weights)
    check = detailed_balance(k, dist)
    assert check.witness == balance_witness_by_loop(k, dist)
    assert check.ok == (check.witness is None)


def test_detailed_balance_requires_exact(chain):
    _, _, k, _ = chain(7)
    f = Distribution.float_weights([1 / 7] * 7)
    with pytest.raises(ValueError):
        detailed_balance(k, f)


def test_tv_distance_examples(chain):
    m, _, _, pi = chain(7)
    assert tv_distance(pi, pi) == 0
    delta0 = Distribution.point_mass(7, 0)
    assert tv_distance(delta0, pi) == Fraction(48, 49)
    delta1 = Distribution.point_mass(7, 1)
    assert tv_distance(delta0, delta1) == 1
    with pytest.raises(LengthMismatch):
        tv_distance(delta0, Distribution.point_mass(11, 0))


def test_tv_distance_float_flavor():
    a = Distribution.float_weights([0.5, 0.5, 0.0])
    b = Distribution.float_weights([0.0, 0.5, 0.5])
    assert tv_distance(a, b) == pytest.approx(0.5)


def test_iterate_examples(chain):
    _, _, k, pi = chain(7)
    delta0 = Distribution.point_mass(7, 0)
    assert iterate(k, delta0, 0).weights == tuple(float(w) for w in delta0.weights)
    one = iterate(k, delta0, 1)
    assert one.weights[1] == 1.0 and sum(one.weights) == 1.0
    drift = iterate(k, pi, 37)
    assert max(abs(a - float(b)) for a, b in zip(drift.weights, pi.weights)) < 1e-12


def test_iterate_converges(chain):
    _, _, k, pi = chain(11)
    far = iterate(k, Distribution.point_mass(11, 0), 200)
    assert tv_distance(far, Distribution.float_weights(pi.to_array())) < 1e-9


def test_mixing_time_eps_one(chain):
    _, _, k, _ = chain(7)
    report = mixing_time(k, epsilon=1.0)
    assert report.tau == 0
    assert len(report.tv_curve) == 1


def all_starts_tvs(kernel):
    """Oracle: the all-starts iteration ``mixing_time`` used before it
    iterated circle 0 alone. Every circle is a start, iterated together as
    the rows of one matrix; entry [t][s] is the TV from start s after t
    steps, up to the first step whose worst TV is at most 1/(2e), or to
    step 100."""
    pi = stationary_array(kernel.p)
    rows = np.eye(kernel.p)
    tvs = []
    for _ in range(101):
        tvs.append(0.5 * np.abs(rows - pi).sum(axis=1))
        if tvs[-1].max() <= DEFAULT_EPSILON:
            break
        rows = rows @ kernel.matrix
    return tvs


def check_circle_0_is_the_worst_start(kernel):
    report = mixing_time(kernel)
    tvs = all_starts_tvs(kernel)
    assert report.tau == len(tvs) - 1, kernel
    for t, (tv0, tv) in enumerate(zip(report.tv_curve, tvs)):
        assert abs(tv0 - tv.max()) <= 1e-12, (kernel, t)
        assert (tv <= tv[0] + 1e-12).all(), (kernel, t)
    with pytest.raises(NotMixed) as exc:
        mixing_time(kernel, max_steps=report.tau - 1)
    assert len(exc.value.tv_curve) == report.tau
    assert np.allclose(exc.value.tv_curve, [tv.max() for tv in tvs[:-1]],
                       rtol=0, atol=1e-12)


def test_circle_0_is_the_worst_start_of_the_c1_walk():
    # kernels are built here, not cached, so the sweep holds one at a time
    for p in primes_3_mod_4(7, 499):
        check_circle_0_is_the_worst_start(
            build_kernel(StructureTensor(make_modulus(p))))


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([7, 11, 19, 23, 43]), data=st.data())
def test_circle_0_is_the_worst_start_for_every_generator(chain, p, data):
    _, tensor, _, _ = chain(p)
    check_circle_0_is_the_worst_start(
        build_kernel(tensor, data.draw(st.integers(1, p - 1))))


def test_mixing_time_rejects_bad_input_before_iterating(monkeypatch):
    from circlewalk.bounds import equilibrium_kernel

    k = build_kernel(StructureTensor(make_modulus(7)))
    eq = equilibrium_kernel(make_modulus(7))
    monkeypatch.setattr(
        "circlewalk.walk.stationary_array",
        lambda p: pytest.fail("mixing_time iterated before checking input"))
    with pytest.raises(ValueError, match="max_steps must be nonnegative"):
        mixing_time(k, max_steps=-1)
    with pytest.raises(ValueError, match="needs a walk kernel"):
        mixing_time(eq)


def test_mixing_report_invariants(chain):
    _, _, k, _ = chain(19)
    report = mixing_time(k)
    assert len(report.tv_curve) == report.tau + 1
    assert all(b <= a + 1e-12 for a, b in zip(report.tv_curve, report.tv_curve[1:]))
    assert report.tv_curve[-1] <= report.epsilon
    if report.tau > 0:
        assert report.tv_curve[-2] > report.epsilon


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([7, 11, 19, 23]), data=st.data())
def test_every_generator_kernel_is_stochastic_and_balanced(chain, p, data):
    _, tensor, _, pi = chain(p)
    k = build_kernel(tensor, data.draw(st.integers(1, p - 1)))
    assert (k.scaled >= 0).all()
    assert (k.scaled.sum(axis=1) == k.denominator).all()
    assert detailed_balance(k, pi).ok


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([7, 11, 19, 23]), data=st.data())
def test_worst_tv_curve_never_increases(chain, p, data):
    _, tensor, _, _ = chain(p)
    k = build_kernel(tensor, data.draw(st.integers(1, p - 1)))
    eps = data.draw(st.sampled_from([DEFAULT_EPSILON, 1e-3, 1e-6, 1e-9]))
    curve = mixing_time(k, epsilon=eps).tv_curve
    assert all(b <= a for a, b in zip(curve, curve[1:]))


def test_mixing_report_threshold_is_inclusive():
    curve = (1.0, 0.5, 0.25)
    assert MixingReport(0.25, 2, curve).tau == 2
    with pytest.raises(ValueError, match="already met before tau"):
        MixingReport(0.5, 2, curve)


def test_mixing_time_stops_where_tv_equals_epsilon(chain):
    _, _, k, _ = chain(11)
    curve = mixing_time(k, epsilon=1e-6).tv_curve
    for t in range(1, len(curve)):
        assert mixing_time(k, epsilon=curve[t]).tau == t


def test_mixing_time_not_mixed(chain):
    _, _, k, _ = chain(7)
    with pytest.raises(NotMixed) as exc:
        mixing_time(k, epsilon=1e-9, max_steps=2)
    assert len(exc.value.tv_curve) == 3


def test_mixing_time_bad_epsilon(chain):
    _, _, k, _ = chain(7)
    with pytest.raises(BadEpsilon):
        mixing_time(k, epsilon=0.0)
    with pytest.raises(BadEpsilon):
        mixing_time(k, epsilon=1.5)


def test_boost_epsilon_examples():
    assert boost_epsilon(10, DEFAULT_EPSILON) == 10
    assert boost_epsilon(10, math.exp(-5)) == 50
    with pytest.raises(BadEpsilon):
        boost_epsilon(10, 0.0)
    with pytest.raises(BadEpsilon):
        boost_epsilon(10, 1.0)


@pytest.mark.parametrize("p", [7, 11])
def test_boost_epsilon_dominates_direct_measurement(p, chain):
    _, _, k, _ = chain(p)
    base = mixing_time(k).tau
    direct = mixing_time(k, epsilon=0.01).tau
    assert direct <= boost_epsilon(base, 0.01)


def test_iterate_matches_exact_rational_products(chain):
    # float64 route against vector-matrix products done entirely in rationals
    _, _, k, _ = chain(7)
    exact = [Fraction(x == 0) for x in range(7)]
    for t in range(1, 7):
        exact = [
            sum(exact[i] * k.exact(i, j) for i in range(7)) for j in range(7)
        ]
        approx = iterate(k, Distribution.point_mass(7, 0), t)
        assert max(
            abs(a - float(b)) for a, b in zip(approx.weights, exact)
        ) < 1e-12


@pytest.mark.parametrize("p", [7, 11])
def test_all_generators_mix_alike(p, chain):
    # every generating circle yields the same mixing time and spectrum
    from circlewalk.bounds import spectrum

    _, t, _, pi = chain(p)
    reference = None
    for g in range(1, p):
        k = build_kernel(t, g)
        tau = mixing_time(k).tau
        eig = spectrum(k, pi).eigenvalues
        if reference is None:
            reference = (tau, eig)
        else:
            assert tau == reference[0]
            assert np.allclose(eig, reference[1], atol=1e-9)


def test_simulate_zero_and_one_step():
    m = make_modulus(7)
    zero = simulate(m, steps=0, trials=500, seed=1)
    assert zero.quadrance_counts[0] == 500
    one = simulate(m, steps=1, trials=500, seed=1)
    assert one.quadrance_counts[1] == 500
    with pytest.raises(dataclasses.FrozenInstanceError):
        one.steps = 2


def test_simulate_reproducible_and_seed_sensitive():
    m = make_modulus(7)
    a = simulate(m, steps=20, trials=2000, seed=42)
    b = simulate(m, steps=20, trials=2000, seed=42)
    c = simulate(m, steps=20, trials=2000, seed=43)
    assert (a.quadrance_counts == b.quadrance_counts).all()
    assert a.trace == b.trace
    assert (a.quadrance_counts != c.quadrance_counts).any()


def test_simulate_trace_invariants():
    m = make_modulus(11)
    result = simulate(m, steps=15, trials=3, seed=9)
    trace = result.trace
    assert trace.positions[0] == (0, 0)
    assert len(trace.positions) == 16
    for (x0, y0), (x1, y1) in zip(trace.positions, trace.positions[1:]):
        assert quadrance(m, x1 - x0, y1 - y0) == 1
    for pos, q in zip(trace.positions, trace.quadrances):
        assert quadrance(m, *pos) == q


def test_simulate_matches_exact_iteration(chain):
    m, _, k, _ = chain(7)
    result = simulate(m, steps=20, trials=100000, seed=42)
    exact = iterate(k, Distribution.point_mass(7, 0), 20)
    assert tv_distance(result.empirical, exact) <= 0.02


def test_simulate_two_seeds_within_sampling_error(chain):
    m, _, k, _ = chain(7)
    trials = 100000
    a = simulate(m, steps=20, trials=trials, seed=42)
    b = simulate(m, steps=20, trials=trials, seed=43)
    q = iterate(k, Distribution.point_mass(7, 0), 20).weights
    se = 0.5 * sum(math.sqrt(2 * w * (1 - w) / trials) for w in q)
    assert tv_distance(a.empirical, b.empirical) <= 3 * se


def test_simulate_plane_close_to_uniform(chain):
    m, _, _, _ = chain(7)
    result = simulate(m, steps=20, trials=100000, seed=42)
    freq = result.plane_counts.ravel() / result.trials
    assert 0.5 * np.abs(freq - 1 / 49).sum() <= 0.05


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution.exact_weights([Fraction(1, 2)])
    with pytest.raises(ValueError):
        Distribution.exact_weights([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError):
        Distribution.float_weights([0.5, 0.5 + 1e-9])
    with pytest.raises(IndexError):
        Distribution.point_mass(5, 5)
