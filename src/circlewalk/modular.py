"""Exact arithmetic in F_p for primes p with p % 4 == 3."""

from __future__ import annotations

import operator


class NotPrime(ValueError):
    """Modulus candidate is composite or smaller than 2."""


class WrongResidueClass(ValueError):
    """Prime modulus is not congruent to 3 mod 4."""


def _is_prime(n: int) -> bool:
    # Trial division; moduli here are desk-scale.
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeModulus:
    """A validated prime p = 3 (mod 4), and nothing else: validation is
    the O(sqrt p) trial division, so every later gate fires before any
    O(p) work. Instances are immutable.
    """

    __slots__ = ("p",)

    def __init__(self, n: int):
        # a numpy integer becomes an int; a float or a str raises TypeError
        n = operator.index(n)
        if n < 3 or not _is_prime(n):
            raise NotPrime(f"{n} is not an odd prime")
        if n % 4 != 3:
            raise WrongResidueClass(f"{n} = {n % 4} (mod 4), need 3 (mod 4)")
        object.__setattr__(self, "p", n)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeModulus is immutable")

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"


def make_modulus(n: int) -> PrimeModulus:
    """Validate n as a prime = 3 (mod 4)."""
    return PrimeModulus(n)


def primes_3_mod_4(lo: int, hi: int) -> list[int]:
    """All primes p = 3 (mod 4) with lo <= p <= hi."""
    lo = max(lo, 3)
    return [n for n in range(lo, hi + 1) if n % 4 == 3 and _is_prime(n)]
