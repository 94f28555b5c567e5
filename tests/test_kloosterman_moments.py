"""A spectral oracle with no float: the traces of the walk's numerator
matrix against the Kloosterman power moments.

The circle walk is the quadrance image of the plane walk X + U, U uniform
on the unit circle, so its eigenvalues are 1 and -Kl(a)/(p+1) for a over
F_p^*, where Kl(a) is the sum over x != 0 of e((x + a/x)/p). With
S = ``StructureTensor(m).n1``, the kernel times p + 1,

    Tr(S^n) = (p+1)^n + (-1)^n M_n,   M_n = sum over a != 0 of Kl(a)^n,

and the classical moments are (Salie 1932; Iwaniec and Kowalski,
*Analytic Number Theory*, ch. 11)

    M_1 = 1,
    M_2 = p^2 - p - 1,
    M_3 = (p/3) p^2 + 2p + 1, with (p/3) the Legendre symbol,
    M_4 = 2p^3 - 3p^2 - 3p - 1.

The traces are checked in exact integers at every prime up to 211, and
the moments of ``spectrum``'s float eigenvalues against them at primes
where a second ``eigh`` in the suite would cost too much.
"""

import numpy as np
import pytest

from circlewalk import StructureTensor, build_kernel, make_modulus, spectrum
from circlewalk.modular import primes_3_mod_4


def legendre_3(p):
    """(p/3): 0 at p = 3, else 1 or -1 as p is 1 or 2 mod 3."""
    return (0, 1, -1)[p % 3]


def kloosterman_moment(n, p):
    return {
        1: 1,
        2: p * p - p - 1,
        3: legendre_3(p) * p * p + 2 * p + 1,
        4: 2 * p**3 - 3 * p * p - 3 * p - 1,
    }[n]


def trace_power(n, p):
    """Tr(S^n) by the moment formula, in Python integers."""
    return (p + 1) ** n + (-1) ** n * kloosterman_moment(n, p)


@pytest.mark.parametrize("p", primes_3_mod_4(3, 211))
def test_traces_equal_the_kloosterman_moments_exactly(p):
    # widened: the narrow N_1 would wrap in these products
    s = StructureTensor(make_modulus(p)).n1.astype(np.int64)
    # every row of S^n sums to (p+1)^n and no entry is negative, so each
    # entry and partial sum below is at most p (p+1)^4 < 2^63: exact
    s2 = s @ s
    traces = [int(np.trace(s)), int(np.trace(s2)),
              int((s2 * s.T).sum()), int((s2 * s2.T).sum())]
    assert traces == [trace_power(n, p) for n in range(1, 5)]


@pytest.mark.parametrize("p", [499, 1019, 2003])
def test_float_spectrum_moments_match_the_exact_traces(p):
    evals = spectrum(build_kernel(make_modulus(p))).eigenvalues
    eps = np.finfo(np.float64).eps
    for n in range(1, 5):
        exact = trace_power(n, p) / (p + 1) ** n
        # a backward-stable solver moves each eigenvalue of the norm-1
        # matrix by at most about p eps, and so lambda^n by n p eps: the
        # p terms together by n p^2 eps (3.6e-9 at p = 2003; 1e-15 is seen)
        assert abs(float((evals**n).sum()) - exact) <= n * p * p * eps, n
