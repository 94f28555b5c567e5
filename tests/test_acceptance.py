"""Acceptance suite: every shipped guarantee, one test and one printed
line per criterion. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from circlewalk.bounds import (
    closed_form_bounds,
    comparison_bound,
    coupling_bound,
    minorization_check,
    odd_cycle_bound,
    spectrum,
)
from circlewalk.circles import (
    circle_points,
    pair_quadrance_counts,
    structure_constant_bruteforce,
    validate_axioms,
)
from circlewalk.modular import primes_3_mod_4
from circlewalk.walk import (
    DEFAULT_EPSILON,
    boost_epsilon,
    detailed_balance,
    mixing_time,
    simulate,
    stationary_array,
)

ORACLE_PRIMES = [7, 11, 19, 23, 31]
AXIOM_PRIMES = [7, 11, 19]
STATIONARY_PRIMES = [7, 11, 19, 23, 31, 43]
COUPLING_PRIMES = [7, 11, 19, 23, 31, 43, 59]
ENVELOPE_PRIMES = [7, 11, 19]
SPECTRAL_PRIMES = [
    7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103, 107,
    127, 131, 139, 151, 163, 167, 179, 191, 199,
]


def _finish(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {num:02d} {label}: {status}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


@pytest.fixture(scope="session")
def spectra(chain):
    return {p: spectrum(chain(p)[2]) for p in SPECTRAL_PRIMES}


def test_spectral_prime_list_is_complete():
    assert primes_3_mod_4(7, 199) == SPECTRAL_PRIMES


def test_criterion_01_oracle_equivalence(chain):
    failures = []
    started = time.monotonic()
    for p in ORACLE_PRIMES:
        m, t, _, _ = chain(p)
        table = t.scaled_table()
        for i in range(p):
            for j in range(p):
                counts = pair_quadrance_counts(m, i, j)
                total = len(circle_points(m, i)) * len(circle_points(m, j))
                # counts[k]/total == table[i,j,k]/(p+1), cross-multiplied
                if not np.array_equal(counts * (p + 1), table[i, j] * total):
                    k = int(np.argmax(counts * (p + 1) != table[i, j] * total))
                    failures.append(f"p={p}: mismatch at ({i},{j},{k})")
                    break
    # the scalar operations themselves, exhaustively at p = 7
    m, t, _, _ = chain(7)
    for i in range(7):
        for j in range(7):
            for k in range(7):
                a = t.constant(i, j, k)
                b = structure_constant_bruteforce(m, i, j, k)
                if a != b:
                    failures.append(f"scalar mismatch at (7,{i},{j},{k})")
    elapsed = time.monotonic() - started
    if elapsed >= 30:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish(1, "oracle equivalence over all triples", failures)


def test_criterion_02_hypergroup_axioms(chain):
    failures = []
    started = time.monotonic()
    for p in AXIOM_PRIMES:
        report = validate_axioms(chain(p)[1])
        for check in report.checks():
            if not check.passed:
                failures.append(f"p={p}: {check.name} fails at {check.witness}")
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _finish(2, "hypergroup axioms hold exactly", failures)


def test_criterion_03_stationary_distribution(chain):
    failures = []
    for p in STATIONARY_PRIMES:
        _, _, kernel, pi = chain(p)
        for j in range(p):
            image = sum(pi[i] * kernel.exact(i, j) for i in range(p))
            if image != pi[j]:
                failures.append(f"p={p}: (pi K)[{j}] = {image} != {pi[j]}")
                break
        if not detailed_balance(kernel).ok:
            failures.append(f"p={p}: detailed balance fails")
    verbatim = (Fraction(1, 49),) + (Fraction(8, 49),) * 6
    if chain(7)[3] != verbatim:
        failures.append("p=7 stationary vector is not (1/49, 8/49 x 6)")
    _finish(3, "stationary law exact with detailed balance", failures)


def test_criterion_04_four_step_positivity_and_minorization(chain):
    failures = []
    for p in SPECTRAL_PRIMES:
        _, _, kernel, _ = chain(p)
        report = minorization_check(kernel)
        if not isinstance(report.min_ratio, Fraction):
            failures.append(f"p={p}: check not exact")
        if not report.all_positive:
            failures.append(f"p={p}: K^4 has a zero entry")
        if p in (7, 11, 19, 23) and not report.holds:
            failures.append(
                f"p={p}: minorization fails at {report.witness}, "
                f"ratio {float(report.min_ratio):.6f} < {float(report.claimed):.6f}"
            )
    _finish(4, "K^4 positive and minorized by the invariant law", failures)


def test_criterion_05_coupling_bound(chain):
    failures = []
    for p in COUPLING_PRIMES:
        m, _, kernel, _ = chain(p)
        cb = coupling_bound(m)
        tau = mixing_time(kernel).tau
        if tau > cb.tau_bound:
            failures.append(f"p={p}: measured tau {tau} > bound {cb.tau_bound}")
        if cb.closed_form_n < cb.n:
            failures.append(f"p={p}: closed-form n {cb.closed_form_n} < n {cb.n}")
        ratio = 4 * cb.closed_form_n / p
        if p == 7:
            # the (p+1)^4 / (p^3 (p-1)) prefactor still dominates at p = 7,
            # putting the ratio at 96/7 = 13.71; the asymptotic band
            # [4, 12] holds from p = 11 on (limit 4(1 + ln 2) = 6.77)
            if not math.isclose(ratio, 96 / 7):
                failures.append(f"p=7: closed-form ratio {ratio} != 96/7")
        elif not 4 <= ratio <= 12:
            failures.append(f"p={p}: 4 n8 / p = {ratio:.3f} outside [4, 12]")
    cb7 = coupling_bound(chain(7)[0])
    if cb7.n != 23 or cb7.tau_bound != 92:
        failures.append(f"p=7: n={cb7.n}, tau_bound={cb7.tau_bound}, want 23/92")
    _finish(5, "measured mixing below coupling bound tau <= 4n", failures)


def test_criterion_06_spectral_bounds(chain, spectra):
    failures = []
    for p in SPECTRAL_PRIMES:
        m, _, kernel, pi = chain(p)
        spectral = spectra[p]
        cf = closed_form_bounds(m)
        if spectral.lambda1 > cf.alpha1_upper + 1e-9:
            failures.append(f"p={p}: lambda1 {spectral.lambda1} > {cf.alpha1_upper}")
        if spectral.lambda_min < cf.alpha_min_lower - 1e-9:
            failures.append(
                f"p={p}: lambda_min {spectral.lambda_min} < {cf.alpha_min_lower}"
            )
        comp = comparison_bound(kernel)
        if spectral.lambda1 > comp.alpha1_upper + 1e-9:
            failures.append(
                f"p={p}: lambda1 {spectral.lambda1} > path bound {comp.alpha1_upper}"
            )
        cyc = odd_cycle_bound(kernel)
        if spectral.lambda_min < cyc.alpha_min_lower - 1e-9:
            failures.append(
                f"p={p}: lambda_min {spectral.lambda_min} < cycle bound "
                f"{cyc.alpha_min_lower}"
            )
    _finish(6, "spectrum satisfies closed-form, path, and cycle bounds", failures)


def test_criterion_07_tv_envelope(chain, spectra):
    failures = []
    for p in ENVELOPE_PRIMES:
        _, _, kernel, _ = chain(p)
        alpha = spectra[p].alpha_star
        tau = mixing_time(kernel).tau
        rows = np.eye(p)
        pif = stationary_array(p)
        for t in range(2 * tau + 1):
            worst = float(0.5 * np.abs(rows - pif).sum(axis=1).max())
            envelope = 0.5 * p * alpha**t
            if worst > envelope + 1e-9:
                failures.append(f"p={p}, t={t}: TV {worst} > envelope {envelope}")
                break
            rows = rows @ kernel.matrix
    _finish(7, "measured TV under the spectral envelope", failures)


def test_criterion_08_epsilon_boost(chain):
    failures = []
    for p in ENVELOPE_PRIMES:
        _, _, kernel, _ = chain(p)
        base = mixing_time(kernel).tau
        direct = mixing_time(kernel, epsilon=0.01).tau
        allowed = boost_epsilon(base, 0.01)
        if allowed != base * 5:  # ceil(ln 100) = 5
            failures.append(f"p={p}: boost factor is {allowed / base}, want 5")
        if direct > allowed:
            failures.append(f"p={p}: tau(0.01) = {direct} > boosted {allowed}")
    _finish(8, "small-threshold mixing within boosted budget", failures)


def test_criterion_09_monte_carlo(chain):
    failures = []
    m, _, kernel, _ = chain(7)
    trials = 100000
    run_a = simulate(m, steps=20, trials=trials, seed=42)
    exact = np.linalg.matrix_power(kernel.matrix, 20)[0]
    freq_a = run_a / trials
    gap = 0.5 * np.abs(freq_a - exact).sum()
    if gap > 0.02:
        failures.append(f"TV(empirical, exact) = {gap:.4f} > 0.02")
    run_b = simulate(m, steps=20, trials=trials, seed=43)
    seed_gap = 0.5 * np.abs(freq_a - run_b / trials).sum()
    se = 0.5 * sum(math.sqrt(2 * w * (1 - w) / trials) for w in exact)
    if seed_gap > 3 * se:
        failures.append(f"TV across seeds = {seed_gap:.4f} > 3 x {se:.4f}")
    _finish(9, "Monte Carlo agrees with exact iteration", failures)


def test_criterion_10_eigensolver_properties(chain, spectra):
    failures = []
    for p, spectral in spectra.items():
        k = chain(p)[2].matrix
        s = np.sqrt(k * k.T)
        lam, u = np.linalg.eigh(s)
        lam, u = lam[::-1], u[:, ::-1]
        if not np.array_equal(lam, spectral.eigenvalues):
            failures.append(f"p={p}: spectrum differs from eigh of sqrt(K * K.T)")
        residual = np.abs(s @ u - u * lam[None, :]).max()
        if residual > 1e-8:
            failures.append(f"p={p}: eigenpair residual {residual:.2e}")
        trace_gap = abs(float(lam.sum()) - float(np.trace(s)))
        if trace_gap > 1e-8:
            failures.append(f"p={p}: trace mismatch {trace_gap:.2e}")
        if abs(float(lam[0]) - 1.0) > 1e-9:
            failures.append(f"p={p}: top eigenvalue {lam[0]}")
    _finish(10, "eigensolver residuals, trace, and top eigenvalue", failures)
