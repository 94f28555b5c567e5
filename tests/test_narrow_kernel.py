"""The walk kernel holds N_1 in its narrow dtype (int16 here), and every
stage reads it as it would read the int64 numerators: each stage's result
on the narrow kernel equals its result on ``StochasticKernel`` of the
int64 copy. A stage that multiplied the narrow numerators without naming
a wide dtype would wrap silently at some p, and fail here."""

import numpy as np
import pytest

import circlewalk.bounds as bounds_mod
from circlewalk.bounds import (
    bound_report,
    comparison_bound,
    minorization_check,
    odd_cycle_bound,
    spectrum,
)
from circlewalk.circles import StructureTensor
from circlewalk.modular import make_modulus
from circlewalk.walk import StochasticKernel, build_kernel, detailed_balance, mixing_time

PRIMES = [7, 11, 103, 499]


def kernels(p):
    """The walk kernel, kept narrow, and the kernel of its int64 copy."""
    narrow = build_kernel(make_modulus(p))
    wide = StochasticKernel(narrow.scaled.astype(np.int64))
    assert narrow.scaled.dtype == np.int16 and wide.scaled.dtype == np.int64
    assert narrow.denominator == wide.denominator == p + 1
    return narrow, wide


@pytest.mark.parametrize("p", PRIMES)
def test_every_stage_reads_the_narrow_kernel_as_the_wide_one(p):
    narrow, wide = kernels(p)
    assert mixing_time(narrow).tv_curve == mixing_time(wide).tv_curve
    assert np.array_equal(spectrum(narrow).eigenvalues, spectrum(wide).eigenvalues)
    assert detailed_balance(narrow) is detailed_balance(wide) is None
    assert comparison_bound(narrow).A == comparison_bound(wide).A
    assert odd_cycle_bound(narrow).v == odd_cycle_bound(wide).v
    assert minorization_check(narrow) == minorization_check(wide)


@pytest.mark.parametrize("p", PRIMES)
def test_the_bound_report_is_the_one_of_the_wide_kernel(p, monkeypatch):
    m = make_modulus(p)
    narrow = bound_report(m)
    monkeypatch.setattr(
        bounds_mod, "build_kernel",
        lambda modulus: StochasticKernel(StructureTensor(modulus).n1.astype(np.int64)))
    assert bound_report(m) == narrow


@pytest.mark.parametrize("p", PRIMES)
def test_detailed_balance_names_the_same_witness_on_a_narrow_kernel(p):
    # one unit moved within row 0, from its one successor 1 to 2, in a
    # read-only int16 array that the kernel keeps as it is
    scaled = StructureTensor(make_modulus(p)).n1.copy()
    scaled[0, 1] -= 1
    scaled[0, 2] += 1
    scaled.setflags(write=False)
    narrow = StochasticKernel(scaled)
    assert narrow.scaled is scaled
    assert detailed_balance(narrow) == detailed_balance(
        StochasticKernel(scaled.astype(np.int64))) == (0, 1)
