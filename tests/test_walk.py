import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewalk.circles import (
    StructureTensor,
    circle_points,
    exact_dtype,
    pair_quadrance_counts,
)
from circlewalk.bounds import smallest_contraction_power
from circlewalk.modular import make_modulus, primes_3_mod_4
from circlewalk.walk import (
    DEFAULT_EPSILON,
    TRIAL_BLOCK,
    BadEpsilon,
    MixingReport,
    NotMixed,
    StochasticKernel,
    boost_epsilon,
    build_kernel,
    detailed_balance,
    mixing_time,
    simulate,
    stationary,
    stationary_array,
    stationary_numerators,
)
from conftest import equilibrium_kernel, walk_kernel


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
    assert k.denominator == 12  # the rows' common total


@pytest.mark.parametrize("scaled, message", [
    (np.ones((2, 3), dtype=np.int64), "kernel must be square"),
    (np.zeros((0, 0), dtype=np.int64), "kernel must have a state"),
    (np.eye(3), "scaled entries must be integers"),
    (np.array([[2, 0], [3, -1]]), "negative kernel entry"),
    (np.array([[0, 0], [1, 0]]), "row 0 must have a positive total"),
    # rows 1 and 3 both differ from row 0's total; the first is named
    (np.array([[2, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 3]]),
     r"row 1 does not sum to 1"),
])
def test_kernel_refusals(scaled, message):
    with pytest.raises(ValueError, match=message):
        StochasticKernel(scaled)


def test_kernel_reads_its_denominator_and_is_immutable():
    k = StochasticKernel(np.array([[0, 3], [1, 2]], dtype=np.int32))
    assert k.denominator == 3 and type(k.denominator) is int
    assert k.exact(1, 1) == Fraction(2, 3)
    assert (k.scaled / k.denominator).tolist() == [[0.0, 1.0], [1 / 3, 2 / 3]]
    with pytest.raises(AttributeError, match="immutable"):
        k.denominator = 6
    with pytest.raises(ValueError, match="read-only"):
        k.scaled[0, 0] = 1


def test_a_kernel_holds_one_array():
    # the int16 numerators are 2 p^2 bytes; an int64 copy or a float64
    # projection kept next to them would add 8 p^2. The gather that makes
    # them needs one int16 index array of the same size beside them
    p = 1019
    m = make_modulus(p)
    tracemalloc.start()
    try:
        kernel = build_kernel(m)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.p == p
    assert retained <= 1.05 * 2 * p * p
    assert peak < 2.1 * 2 * p * p


def test_a_kernel_keeps_the_tensors_array():
    t = StructureTensor(make_modulus(103))
    assert StochasticKernel(t.n1).scaled is t.n1
    scaled = build_kernel(make_modulus(103)).scaled
    assert scaled.dtype == t.n1.dtype == np.int16 and not scaled.flags.writeable
    assert np.array_equal(scaled, t.n1)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_a_kernel_keeps_a_read_only_signed_array_of_any_width(dtype):
    # row totals add in int64, past what the dtype holds: 3 * 100 > 127
    scaled = np.array([[0, 100, 100, 100], [100, 0, 100, 100],
                       [100, 100, 0, 100], [100, 100, 100, 0]], dtype=dtype)
    scaled.setflags(write=False)
    kernel = StochasticKernel(scaled)
    assert kernel.scaled is scaled and kernel.denominator == 300
    assert (kernel.scaled / kernel.denominator).tolist() == (
        scaled.astype(np.int64) / 300).tolist()


def test_a_kernel_copies_an_unsigned_array_to_int64():
    scaled = np.array([[0, 3], [1, 2]], dtype=np.uint16)
    scaled.setflags(write=False)
    kernel = StochasticKernel(scaled)
    assert kernel.scaled.dtype == np.int64 and kernel.denominator == 3


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16])
@pytest.mark.parametrize("read_only_view", [False, True])
def test_a_kernel_copies_what_its_caller_can_change(dtype, read_only_view):
    n1 = StructureTensor(make_modulus(11)).n1
    caller = n1.astype(dtype)
    handed = caller[:] if read_only_view else caller
    handed.setflags(write=not read_only_view)
    kernel = StochasticKernel(handed)
    caller += 1
    assert kernel.scaled.dtype == np.int64
    assert np.array_equal(kernel.scaled, n1)


@pytest.mark.parametrize("p", [7, 11, 19])
def test_kernel_matches_pair_counts_for_every_generator(p, chain):
    # pins each kernel to brute-force pair counting, not only to the table
    m, t, _, _ = chain(p)
    for g in range(1, p):
        k = walk_kernel(t, g)
        for i in range(p):
            total = len(circle_points(m, i)) * len(circle_points(m, g))
            counts = pair_quadrance_counts(m, i, g)
            assert (k.scaled[i] * total == counts * (p + 1)).all()


def test_stationary_examples():
    pi7 = stationary(make_modulus(7))
    assert pi7 == (Fraction(1, 49),) + (Fraction(8, 49),) * 6
    pi11 = stationary(make_modulus(11))
    assert pi11[0] == Fraction(1, 121)
    assert all(w == Fraction(12, 121) for w in pi11[1:])
    assert sum(pi11) == 1


def test_stationary_array_is_the_exact_law_in_float64():
    for p in primes_3_mod_4(7, 499):
        exact = np.array([float(w) for w in stationary(make_modulus(p))])
        assert np.array_equal(stationary_array(p), exact)


@pytest.mark.parametrize("p", [7, 11])
def test_stationary_invariant_for_every_generator(p, chain):
    m, t, _, pi = chain(p)
    for g in range(1, p):
        k = walk_kernel(t, g)
        for j in range(p):
            assert sum(pi[i] * k.exact(i, j) for i in range(p)) == pi[j]


def test_detailed_balance_examples(chain):
    _, _, k, _ = chain(7)
    assert detailed_balance(k) is None
    # a rotation of the circles: K(x, x + 1) = 1 but K(x + 1, x) = 0
    rotation = np.roll(np.eye(7, dtype=np.int64), 1, axis=1)
    assert detailed_balance(StochasticKernel(rotation)) == (0, 1)
    # symmetric, so balanced for the uniform law but not for the invariant
    # law, whose null circle is lighter than the others
    symmetric = StochasticKernel(np.eye(7, dtype=np.int64) + rotation + rotation.T)
    witness = detailed_balance(symmetric)
    assert witness is not None
    assert 0 in witness  # violation involves the null-circle row


def balance_peak(kernel):
    """tracemalloc peak of ``detailed_balance(kernel)`` and its result."""
    tracemalloc.start()
    try:
        witness = detailed_balance(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, witness


def test_detailed_balance_multiplies_the_numerators_in_float32():
    # the flux (4 p^2 bytes) and its mismatch mask (p^2 bytes), with no
    # float32 copy of the kernel beside them
    p = 1019
    kernel = build_kernel(make_modulus(p))
    num = stationary_numerators(p)
    assert exact_dtype(int(num.max()) * int(kernel.scaled.max())) is np.float32
    peak, witness = balance_peak(kernel)
    assert witness is None
    assert peak < 0.7 * 8 * p * p


def test_detailed_balance_multiplies_the_numerators_in_float64():
    # numerators scaled past 2^24 put the fluxes in float64: the flux
    # (8 p^2 bytes) and its mask, with no float64 copy of the kernel.
    # The int16 numerators are widened first: the product would not fit
    p = 499
    scaled = build_kernel(make_modulus(p)).scaled.astype(np.int64) * (2**21 + 1)
    num = stationary_numerators(p)
    assert exact_dtype(int(num.max()) * int(scaled.max())) is np.float64
    peak, witness = balance_peak(StochasticKernel(scaled))
    assert peak < 1.2 * 8 * p * p
    assert witness is None
    # one unit moved within row 0, from its one successor 1 to 2
    scaled[0, 1] -= 1
    scaled[0, 2] += 1
    assert detailed_balance(StochasticKernel(scaled)) == (0, 1)


def balance_witness_by_loop(kernel, w):
    """First (x, y), x < y in row-major order, with w(x) K(x, y) !=
    w(y) K(y, x), compared as Fractions; None when balance holds."""
    for x in range(kernel.p):
        for y in range(x + 1, kernel.p):
            if w[x] * kernel.exact(x, y) != w[y] * kernel.exact(y, x):
                return (x, y)
    return None


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([7, 11]), data=st.data())
def test_detailed_balance_witness_matches_the_fraction_loop(chain, p, data):
    _, tensor, _, _ = chain(p)
    g = data.draw(st.integers(1, p - 1))
    # a walk kernel's numerators times a scale, with up to three units each
    # moved within a row; the scales put the fluxes in each exact_dtype
    # tier, where they differ only in their last units
    scale = data.draw(st.sampled_from([1, 3, 2**21 + 1, 2**50 + 1, 2**57 + 1]))
    # the block is in N_1's narrow dtype, so it is widened before the scale
    scaled = tensor.numerators(g).astype(np.int64) * scale
    for _ in range(data.draw(st.integers(0, 3))):
        x = data.draw(st.integers(0, p - 1))
        source = data.draw(st.sampled_from(np.flatnonzero(scaled[x]).tolist()))
        scaled[x, source] -= 1
        scaled[x, data.draw(st.integers(0, p - 1))] += 1
    k = StochasticKernel(scaled)
    assert k.denominator == scale * (p + 1)
    law = stationary_numerators(p).tolist()
    assert detailed_balance(k) == balance_witness_by_loop(k, law)


def test_mixing_time_eps_one(chain):
    # the TV to the invariant law is below 1, so eps = 1 is vacuous: it is
    # refused with the message of boost_epsilon, as the CLI's --eps refuses it
    _, _, k, _ = chain(7)
    with pytest.raises(BadEpsilon) as refused:
        mixing_time(k, epsilon=1.0)
    with pytest.raises(BadEpsilon) as boosted:
        boost_epsilon(3, 1.0)
    assert str(refused.value) == str(boosted.value) == (
        "epsilon must be in (0, 1), got 1.0")


def all_starts_tvs(kernel):
    """Oracle: the all-starts iteration ``mixing_time`` used before it
    iterated circle 0 alone. Every circle is a start, iterated together as
    the rows of one matrix; entry [t][s] is the TV from start s after t
    steps, up to the first step whose worst TV is at most 1/(2e), or to
    step 100."""
    pi = stationary_array(kernel.p)
    step = kernel.scaled / kernel.denominator
    rows = np.eye(kernel.p)
    tvs = []
    for _ in range(101):
        tvs.append(0.5 * np.abs(rows - pi).sum(axis=1))
        if tvs[-1].max() <= DEFAULT_EPSILON:
            break
        rows = rows @ step
    return tvs


def check_circle_0_is_the_worst_start(kernel):
    report = mixing_time(kernel)
    tvs = all_starts_tvs(kernel)
    assert report.tau == len(tvs) - 1, kernel
    for t, (tv0, tv) in enumerate(zip(report.tv_curve, tvs)):
        assert abs(tv0 - tv.max()) <= 1e-12, (kernel, t)
        assert (tv <= tv[0] + 1e-12).all(), (kernel, t)


def test_circle_0_is_the_worst_start_of_the_c1_walk():
    # kernels are built here, not cached, so the sweep holds one at a time
    for p in primes_3_mod_4(7, 499):
        check_circle_0_is_the_worst_start(
            build_kernel(make_modulus(p)))


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([7, 11, 19, 23, 43]), data=st.data())
def test_circle_0_is_the_worst_start_for_every_generator(chain, p, data):
    _, tensor, _, _ = chain(p)
    check_circle_0_is_the_worst_start(
        walk_kernel(tensor, data.draw(st.integers(1, p - 1))))


def test_mixing_time_rejects_bad_input_before_iterating(monkeypatch):
    k = build_kernel(make_modulus(7))
    eq = equilibrium_kernel(7)
    monkeypatch.setattr(
        "circlewalk.walk.stationary_array",
        lambda p: pytest.fail("mixing_time iterated before checking input"))
    with pytest.raises(BadEpsilon):
        mixing_time(k, epsilon=0.0)
    with pytest.raises(ValueError, match="needs a walk kernel"):
        mixing_time(eq)
    # row 0 of the identity is a point mass, but on circle 0
    with pytest.raises(ValueError, match="needs a walk kernel"):
        mixing_time(StochasticKernel(np.eye(7, dtype=np.int64)))


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
    _, tensor, _, _ = chain(p)
    k = walk_kernel(tensor, data.draw(st.integers(1, p - 1)))
    assert (k.scaled >= 0).all()
    assert (k.scaled.sum(axis=1) == k.denominator).all()
    assert detailed_balance(k) is None


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([7, 11, 19, 23]), data=st.data())
def test_worst_tv_curve_never_increases(chain, p, data):
    _, tensor, _, _ = chain(p)
    k = walk_kernel(tensor, data.draw(st.integers(1, p - 1)))
    eps = data.draw(st.sampled_from([DEFAULT_EPSILON, 1e-3, 1e-6, 1e-9]))
    curve = mixing_time(k, epsilon=eps).tv_curve
    assert all(b <= a for a, b in zip(curve, curve[1:]))


def test_mixing_report_threshold_is_inclusive():
    curve = (1.0, 0.5, 0.25)
    assert MixingReport(0.25, curve).tau == 2
    with pytest.raises(ValueError, match="already met before tau"):
        MixingReport(0.5, curve)
    with pytest.raises(ValueError, match="cover step 0"):
        MixingReport(0.5, ())


def test_mixing_time_stops_where_tv_equals_epsilon(chain):
    _, _, k, _ = chain(11)
    curve = mixing_time(k, epsilon=1e-6).tv_curve
    for t in range(1, len(curve)):
        assert mixing_time(k, epsilon=curve[t]).tau == t


def capped_mixing(kernel, epsilon):
    """Oracle: the loop ``mixing_time`` ran before it stopped on a TV that
    fails to fall. It iterates circle 0's row up to a cap of 40 times the
    coupling power at min(epsilon, 1/(2e)) and returns tau and the TV
    curve, or None if the cap runs out."""
    p = kernel.p
    cap = 40 * smallest_contraction_power(p, min(epsilon, DEFAULT_EPSILON))
    pi = stationary_array(p)
    step = kernel.scaled / kernel.denominator
    row = np.zeros(p)
    row[0] = 1.0
    curve = []
    for t in range(cap + 1):
        curve.append(float(0.5 * np.abs(row - pi).sum()))
        if curve[-1] <= epsilon:
            return t, tuple(curve)
        row = row @ step
    return None


ORACLE_EPSILONS = [DEFAULT_EPSILON, 0.05, 1e-3, 1e-6, 1e-9, 1e-12]


def check_against_capped_loop(kernel, epsilon):
    report = mixing_time(kernel, epsilon)
    assert (report.tau, report.tv_curve) == capped_mixing(kernel, epsilon), (
        kernel, epsilon)


def test_mixing_time_matches_the_capped_loop_for_c1():
    for p in primes_3_mod_4(7, 499):
        kernel = build_kernel(make_modulus(p))
        for eps in (DEFAULT_EPSILON, 1e-12):
            check_against_capped_loop(kernel, eps)


@pytest.mark.parametrize("p", [7, 11, 19, 23])
def test_mixing_time_matches_the_capped_loop_for_every_generator(p, chain):
    _, tensor, _, _ = chain(p)
    for g in range(1, p):
        kernel = walk_kernel(tensor, g)
        for eps in ORACLE_EPSILONS:
            check_against_capped_loop(kernel, eps)


def test_mixing_time_stops_when_the_tv_stops_falling(chain):
    # 1e-300 is below float64's TV floor: the loop stops at the first
    # step that fails to lower the TV, far short of any coupling budget
    _, _, k, _ = chain(11)
    with pytest.raises(NotMixed, match="stopped falling") as exc:
        mixing_time(k, epsilon=1e-300)
    curve = exc.value.tv_curve
    assert len(curve) < 100
    assert curve[-1] >= curve[-2]
    assert all(b < a for a, b in zip(curve[:-1], curve[1:-1]))
    assert f"after {len(curve) - 1} steps" in str(exc.value)


def test_not_mixed_survives_a_pickle_round_trip():
    # scan's process pool sends a worker's NotMixed back by pickle
    err = pickle.loads(pickle.dumps(NotMixed("worst TV still 0.5", (1.0, 0.5))))
    assert type(err) is NotMixed
    assert (str(err), err.tv_curve) == ("worst TV still 0.5", (1.0, 0.5))


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


@pytest.mark.parametrize("p", [7, 11])
def test_tv_curve_matches_exact_rational_products(p, chain):
    # the float64 curve against the TV from circle 0 computed entirely in
    # rationals: row products through the exact kernel, and the exact law
    _, _, k, pi = chain(p)
    curve = mixing_time(k, 1e-12).tv_curve
    row = [Fraction(x == 0) for x in range(p)]
    for t, tv in enumerate(curve):
        exact = sum(abs(a - b) for a, b in zip(row, pi)) / 2
        assert abs(tv - exact) <= 1e-12, (p, t)
        row = [sum(row[i] * k.exact(i, j) for i in range(p)) for j in range(p)]


def test_every_walk_is_the_c1_walk_relabelled():
    # the C_m kernel is the C_1 kernel with circle k renamed k * m mod p,
    # in exact integers: so every generator has the same tau, spectrum
    # and bounds
    for p in primes_3_mod_4(7, 43):
        m = make_modulus(p)
        tensor = StructureTensor(m)
        k1 = build_kernel(m)
        for m in range(1, p):
            perm = np.arange(p) * pow(m, -1, p) % p
            assert np.array_equal(
                tensor.numerators(m), k1.scaled[perm][:, perm]), (p, m)


@pytest.mark.parametrize("p", [7, 11])
def test_all_generators_mix_alike(p, chain):
    # every generating circle yields the same mixing time and spectrum
    from circlewalk.bounds import spectrum

    _, t, _, _ = chain(p)
    reference = None
    for g in range(1, p):
        k = walk_kernel(t, g)
        tau = mixing_time(k).tau
        eig = spectrum(k).eigenvalues
        if reference is None:
            reference = (tau, eig)
        else:
            assert tau == reference[0]
            assert np.allclose(eig, reference[1], atol=1e-9)


def test_simulate_zero_and_one_step():
    m = make_modulus(7)
    zero = simulate(m, steps=0, trials=500, seed=1)
    assert zero.dtype == np.int64
    assert zero.tolist() == [500, 0, 0, 0, 0, 0, 0]
    one = simulate(m, steps=1, trials=500, seed=1)
    assert one.tolist() == [0, 500, 0, 0, 0, 0, 0]


def test_simulate_reproducible_and_seed_sensitive():
    m = make_modulus(7)
    a = simulate(m, steps=20, trials=2000, seed=42)
    b = simulate(m, steps=20, trials=2000, seed=43)
    assert (a == simulate(m, steps=20, trials=2000, seed=42)).all()
    assert (a != b).any()


def test_simulate_sums_by_blocks_like_one_gather():
    # more trials than one block: the blocked sums against one gather of
    # every trial's steps, from the same seeded draws
    m = make_modulus(7)
    trials, steps, seed = 70_000, 3, 5
    assert trials > TRIAL_BLOCK
    counts = simulate(m, steps=steps, trials=trials, seed=seed)
    pts = np.asarray(circle_points(m, 1), dtype=np.int64)
    idx = np.random.default_rng(seed).integers(0, len(pts), size=(trials, steps))
    fx, fy = (pts[idx].sum(axis=1) % 7).T
    assert (counts == np.bincount((fx * fx + fy * fy) % 7, minlength=7)).all()


def test_simulate_memory_is_independent_of_the_plane():
    # the draws are 40 kB and the counts 16 kB; a p x p plane histogram
    # alone would be 32 MB
    m = make_modulus(2003)
    tracemalloc.start()
    try:
        counts = simulate(m, steps=5, trials=1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (2003,) and counts.sum() == 1000
    assert peak < 4 * 2**20


def test_simulate_plane_close_to_uniform():
    # the plane end points of simulate's seeded walks, summed here from
    # the same draws, are within sampling error of uniform on F_7^2
    m = make_modulus(7)
    trials, steps = 100000, 20
    pts = np.asarray(circle_points(m, 1), dtype=np.int64)
    idx = np.random.default_rng(42).integers(0, len(pts), size=(trials, steps))
    fx, fy = (pts[:, c][idx].sum(axis=1) % 7 for c in (0, 1))
    assert (simulate(m, steps=steps, trials=trials, seed=42)
            == np.bincount((fx * fx + fy * fy) % 7, minlength=7)).all()
    freq = np.bincount(fx * 7 + fy, minlength=49) / trials
    assert 0.5 * np.abs(freq - 1 / 49).sum() <= 0.05
