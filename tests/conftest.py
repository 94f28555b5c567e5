import contextlib
import functools
from unittest import mock

import numpy as np
import pytest

from circlewalk import (
    StochasticKernel,
    StructureTensor,
    build_kernel,
    make_modulus,
    stationary,
)
from circlewalk.walk import stationary_numerators


def walk_kernel(tensor, m):
    """Kernel of the C_m walk, m != 0: the m-block of the tensor, which
    is the C_1 kernel relabelled by k -> k/m."""
    return StochasticKernel(tensor.numerators(m))


def equilibrium_kernel(p):
    """The rank-one chain on p states whose every row is the invariant law."""
    return StochasticKernel(np.tile(stationary_numerators(p), (p, 1)))


@contextlib.contextmanager
def serving(table):
    """Make every ``StructureTensor`` serve the blocks of ``table``, a
    (p, p, p) table of numerators that may be tampered: ``numerators(i)``
    returns table[i] as int64, so an int32 entry of -2^31 keeps its
    magnitude."""
    def numerators(self, i):
        return np.asarray(table[i], dtype=np.int64)

    with mock.patch.object(StructureTensor, "numerators", numerators):
        yield


@functools.lru_cache(maxsize=None)
def _chain(p):
    modulus = make_modulus(p)
    tensor = StructureTensor(modulus)
    kernel = build_kernel(modulus)
    pi = stationary(modulus)
    return modulus, tensor, kernel, pi


@pytest.fixture(scope="session")
def chain():
    """Cached (modulus, tensor, kernel, exact stationary law) per prime;
    the law is the tuple of Fractions ``stationary`` returns."""
    return _chain
