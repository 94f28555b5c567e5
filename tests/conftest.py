import functools

import pytest

from circlewalk import StructureTensor, build_kernel, make_modulus, stationary


@functools.lru_cache(maxsize=None)
def _chain(p):
    modulus = make_modulus(p)
    tensor = StructureTensor(modulus)
    kernel = build_kernel(tensor)
    pi = stationary(modulus)
    return modulus, tensor, kernel, pi


@pytest.fixture(scope="session")
def chain():
    """Cached (modulus, tensor, kernel, exact stationary law) per prime;
    the law is the tuple of Fractions ``stationary`` returns."""
    return _chain
