"""``spectrum`` reads its eigenvalues off LAPACK's dsytrd and dstedc,
without the eigenvector back-transform, and they are ``eigh``'s bit for
bit: at every walk the suite can afford, at one and two BLAS threads, on
the ``eigh`` fallback, and with ``eigh``'s failure on nonconvergence."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circlewalk.bounds as bounds_mod
from circlewalk.bounds import _eigenvalues, spectrum
from circlewalk.circles import StructureTensor
from circlewalk.cli import main
from circlewalk.modular import make_modulus, primes_3_mod_4
from circlewalk.walk import StochasticKernel, build_kernel
from conftest import equilibrium_kernel, walk_kernel

# a child interpreter that imports this checkout's package
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def eigh_oracle(kernel):
    """The spectrum as ``eigh`` gives it, descending."""
    k = kernel.scaled / kernel.denominator
    return np.linalg.eigh(np.sqrt(k * k.T))[0][::-1]


def lapack_or_skip():
    if bounds_mod._LAPACK is None:
        pytest.skip("numpy.linalg does not link scipy-openblas here")
    return bounds_mod._LAPACK


def test_the_route_finds_numpys_lapack():
    # numpy's own wheels link scipy-openblas; elsewhere the fallback runs
    try:
        import numpy.linalg._umath_linalg as umath_linalg
        from ctypes import CDLL

        CDLL(umath_linalg.__file__).scipy_dsyevd_64_
    except (ImportError, AttributeError, OSError):
        pytest.skip("numpy.linalg does not link scipy-openblas here")
    assert bounds_mod._LAPACK is not None


# p = 3..23 take dstedc's small-matrix QR branch, the rest divide and conquer
@pytest.mark.parametrize("p", primes_3_mod_4(3, 499) + [1019])
def test_spectrum_is_eighs_bit_for_bit(monkeypatch, p):
    # the array handed to LAPACK is sqrt(k * k^T) to the bit, so it is
    # exactly symmetric and its C and Fortran buffers agree
    seen = []

    def recording(sym):
        seen.append(sym.copy())
        return _eigenvalues(sym)

    monkeypatch.setattr(bounds_mod, "_eigenvalues", recording)
    kernel = build_kernel(make_modulus(p))
    assert np.array_equal(spectrum(kernel).eigenvalues, eigh_oracle(kernel))
    k = kernel.scaled / kernel.denominator
    assert np.array_equal(seen[0], np.sqrt(k * k.T))


@pytest.mark.parametrize("p", primes_3_mod_4(3, 43))
def test_spectrum_is_eighs_bit_for_bit_on_every_reversible_kernel(p):
    # every C_m walk, the equilibrium chain and the identity: ``spectrum``
    # takes roots only in circle 0's row and column, which is exact for
    # any kernel that passes detailed balance
    tensor = StructureTensor(make_modulus(p))
    kernels = [walk_kernel(tensor, m) for m in range(1, p)]
    kernels += [equilibrium_kernel(p),
                StochasticKernel(np.eye(p, dtype=np.int64))]
    for kernel in kernels:
        assert np.array_equal(spectrum(kernel).eigenvalues,
                              eigh_oracle(kernel))


def test_the_root_of_a_square_is_the_entry_at_every_walk_weight():
    # sqrt(RN(k^2)) == k in radix 2 unless k^2 underflows or overflows:
    # the entries 1/(p+1) and 2/(p+1) of the circle walks, every p = 3
    # (mod 4) below 10^6
    for num in [1, 2]:
        v = num / (np.arange(3, 10**6, 4) + 1)
        assert np.array_equal(np.sqrt(v * v), v)


@settings(max_examples=500, deadline=None)
@given(st.floats(2.0**-500, 2.0**500))
def test_the_root_of_a_square_is_the_entry(v):
    assert np.sqrt(v * v) == v


@pytest.mark.parametrize("threads", ["1", "2"])
def test_spectrum_is_eighs_bit_for_bit_at_a_thread_count(threads):
    # dstedc's merges run BLAS, whose thread count fixes the last bits;
    # it is read once per process, so each count gets a fresh one
    probe = (
        "import numpy as np\n"
        "from circlewalk import build_kernel, make_modulus, spectrum\n"
        "k = build_kernel(make_modulus(499))\n"
        "m = k.scaled / k.denominator\n"
        "oracle = np.linalg.eigh(np.sqrt(m * m.T))[0][::-1]\n"
        "print(np.array_equal(spectrum(k).eigenvalues, oracle))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={**ENV, "OPENBLAS_NUM_THREADS": threads},
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True\n")


@pytest.mark.parametrize("p", [3, 7, 103, 499])
def test_the_eigh_fallback_gives_the_same_arrays(monkeypatch, p):
    kernel = build_kernel(make_modulus(p))
    routed = spectrum(kernel).eigenvalues
    monkeypatch.setattr(bounds_mod, "_LAPACK", None)
    assert np.array_equal(spectrum(kernel).eigenvalues, routed)
    assert np.array_equal(routed, eigh_oracle(kernel))


@pytest.mark.parametrize("p", primes_3_mod_4(3, 499))
def test_dsyevd_never_rescales_a_walk(p):
    # dsyevd rescales a matrix whose largest entry lies outside
    # [2^-485, 2^485] before it reduces, and the route would not
    # reproduce eigh's bits there; ``spectrum`` proves [1/p, 1] instead
    kernel = build_kernel(make_modulus(p))
    k = kernel.scaled / kernel.denominator
    assert 1 / p <= np.sqrt(k * k.T).max() <= 1


def test_spectrum_holds_two_p_by_p_arrays():
    # beside the kernel: sqrt(K K^T), formed over the float kernel,
    # reduced in place and then overwritten by dstedc's eigenvector
    # matrix, and dstedc's workspace
    p = 1019
    kernel = build_kernel(make_modulus(p))
    tracemalloc.start()
    try:
        spectrum(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * 8 * p * p


def test_random_symmetric_matrices_match_eigh():
    lapack_or_skip()
    rng = np.random.default_rng(24)
    for n in [1, 2, 3, 24, 25, 26, 31, 32, 33, 64, 65, 130]:
        a = rng.standard_normal((n, n))
        a = a + a.T
        # ``_eigenvalues`` reduces the array it is given: it gets a copy,
        # and ``eigh`` the untouched original
        assert np.array_equal(_eigenvalues(a.copy()), np.linalg.eigh(a)[0]), n


@pytest.mark.parametrize("layout", ["read-only", "fortran", "float32"])
def test_eigenvalues_copy_an_argument_they_cannot_reduce(layout):
    # such an argument is copied, and the copy is reduced and then
    # overwritten by dstedc's eigenvector matrix; the caller's is not
    lapack_or_skip()
    rng = np.random.default_rng(30)
    a = rng.standard_normal((65, 65))
    a = a + a.T
    if layout == "float32":
        a = a.astype(np.float32)
    elif layout == "fortran":
        a = np.asfortranarray(a)
    else:
        a.setflags(write=False)
    before = a.copy()
    got = _eigenvalues(a)
    assert np.array_equal(a, before)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.linalg.eigh(a.astype(np.float64))[0])


def test_nonconvergence_raises_as_eigh_and_exits_4(monkeypatch, capsys):
    dsytrd, dstedc = lapack_or_skip()
    calls = []

    def failing(*args):
        # the arguments end with info and the job's hidden length
        calls.append(args[0])
        dstedc(*args)
        args[-2].contents.value = 1

    monkeypatch.setattr(bounds_mod, "_LAPACK", (dsytrd, failing))
    with pytest.raises(np.linalg.LinAlgError,
                       match="^Eigenvalues did not converge$"):
        spectrum(build_kernel(make_modulus(7)))
    assert calls == [b"I"]
    assert main(["spectrum", "--p", "7"]) == 4
    assert calls == [b"I", b"I"]
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "internal error: Eigenvalues did not converge\n"
