"""Circles of F_p^2 and the exact coefficients of their translation product.

A circle C_k is the set of plane points at quadrance k = x^2 + y^2 from the
origin. Translating a random point of C_i by a random point of C_j lands on
C_k with probability n_ij^k; those coefficients make the p circles a
finite hypergroup. Everything here is exact: coefficients are rationals
with denominator p + 1 (identity rows aside), and the brute-force counter
is kept fully independent of the closed form so each can check the other:
the closed form reads the table of squares mod p (``square_table``),
while the counter reads only p, finding each circle's points by field
arithmetic (a square root by exponentiation, checked by squaring).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .modular import PrimeModulus

# Largest p for the dense table and the axiom checks: it keeps every int64
# Krylov sum of ``c1_generates`` below 2^63, and the p^3 table that a
# failed certificate falls back to desk-scale.
DENSE_TABLE_LIMIT = 512

# Rows of j contracted per matmul by the exhaustive associativity check:
# keeps its temporaries at O(p^2) beside the table.
_ASSOC_BLOCK = 16
# The Krylov rank of c_1 is taken modulo this prime: below 2^26, so every
# int64 sum of p <= DENSE_TABLE_LIMIT products of residues is below 2^63.
_KRYLOV_PRIME = 2**26 - 5


def _check_index(p: int, k: int) -> None:
    if not 0 <= k < p:
        raise IndexError(f"circle index {k} out of range [0, {p})")


def circle_points(modulus: PrimeModulus, k: int) -> list[tuple[int, int]]:
    """All points of the circle with quadrance k, sorted lexicographically.

    For each x the circle needs y^2 = k - x^2. Since p = 3 (mod 4),
    r = (k - x^2)^((p+1)/4) is a root exactly when r^2 = k - x^2, so
    squaring r decides whether x contributes (x, r) and (x, -r), one
    point when r = 0. The square table is not read.
    """
    p = modulus.p
    _check_index(p, k)
    pts = []
    for x in range(p):
        rest = (k - x * x) % p
        r = pow(rest, (p + 1) // 4, p)
        if r * r % p == rest:
            pts += {(x, r), (x, -r % p)}
    pts.sort()
    return pts


def square_table(p: int) -> np.ndarray:
    """Read-only bool table of length p whose entry a is True iff a is a
    nonzero square mod p; only the closed form reads it."""
    table = np.zeros(p, dtype=bool)
    a = np.arange(1, p, dtype=np.int64)
    table[a * a % p] = True
    table.setflags(write=False)
    assert int(table.sum()) == (p - 1) // 2
    assert not table[p - 1]  # -1 is a non-square when p = 3 (mod 4)
    return table


def n1_dtype(p: int) -> type:
    """Signed dtype of N_1 and of the index that gathers it: int16 while
    every index, at most 2p - 1, fits (2p < 2^15: p <= 16363 among primes
    = 3 mod 4), else int32, which holds them below p = 2^30, where N_1
    would take 2^62 bytes. Every entry, at most p + 1, fits too."""
    return np.int16 if 2 * p < 2**15 else np.int32


class StructureTensor:
    """Exact accessor for the product coefficients n_ij^k.

    Zero indices are the identity: a step of quadrance 0 stays put, so
    n_0j^k = [k == j] and n_i0^k = [k == i]. For nonzero i, j the value is
    governed by the squareness of V = ij - (k-i-j)^2 / 4 in F_p:
    non-square gives 0, zero gives 1/(p+1), nonzero square gives 2/(p+1).

    The closed form is evaluated once, for the C_1 block N_1 (``n1``,
    read-only, in ``n1_dtype(p)``), and every other block is gathered
    from it (``numerators``) in that dtype, the one dtype of every
    numerator array built here; the dense table of all blocks is built
    on request and only for p up to DENSE_TABLE_LIMIT.

    N_1 is one gather. Let q(d) = d^2 / 4 mod p, and c(r) = 0, 1 or 2
    as r is a non-square, zero or a nonzero square mod p. At i = 1,
    V = j - (k-1-j)^2 / 4, and (k-1-j)^2 mod p depends only on
    d = (k-1-j) mod p, so V = (j - q(d)) mod p and, for j != 0,
    N_1[j, k] = c((j - Q[j, k]) mod p) with Q[j, k] = q((k-1-j) mod p).
    Q is a circulant, constant along each diagonal k - j. Window s of
    length p of q repeated twice holds q((s + t) mod p) at t, so window
    p-1-j is row j of Q, and Q is a view of 2p integers. As j and
    Q[j, k] lie in [0, p), the index j + p - Q[j, k] lies in [1, 2p),
    where c repeated twice holds c((j - Q[j, k]) mod p). Row j = 0 is
    the identity row and is written apart. q, c and the index are held
    in N_1's dtype once q is reduced, since r^2 would overflow it.
    """

    def __init__(self, modulus: PrimeModulus):
        p = self.p = modulus.p
        dtype = n1_dtype(p)
        r = np.arange(p, dtype=np.int64)
        q = (r * r % p * pow(4, -1, p) % p).astype(dtype)
        c = 2 * square_table(p).astype(dtype)
        c[0] = 1
        circulant = sliding_window_view(np.tile(q, 2), p)[p - 1::-1]
        n1 = np.tile(c, 2)[np.arange(p, 2 * p, dtype=dtype)[:, None] - circulant]
        # j = 0 is the identity: n_10^k = [k == 1]
        n1[0] = 0
        n1[0, 1] = p + 1
        n1.setflags(write=False)
        self.n1 = n1

    def constant(self, i: int, j: int, k: int) -> Fraction:
        """n_ij^k as an exact rational."""
        return Fraction(self.scaled(i, j, k), self.p + 1)

    def numerators(self, i: int) -> np.ndarray:
        """(p, p) block of the numerators of n_ij^k over p + 1, indexed
        [j, k], identity rows included: a fresh writable array in N_1's
        dtype, so writing to it leaves ``n1`` as it was.

        For i != 0 this is N_1 relabelled, N_i[j, k] = N_1[j/i, k/i],
        because the product is invariant under dilation: n_{ai,aj}^{ak} =
        n_ij^k for every a != 0. Algebraically, V(ai, aj, ak) =
        a^2 V(i, j, k) keeps the squareness class of V, and N_1[0, k/i] =
        (p+1)[k == i] gives the identity rows. Geometrically, x^2 + y^2 is
        the norm of x + y sqrt(-1) in F_{p^2}, and every a != 0 is a norm,
        so multiplying by an element of norm a is an additive bijection of
        the plane taking C_k onto C_{ak}: the circles are the orbit
        hypergroup of the norm-one torus (Bloom and Heyer, *Harmonic
        Analysis of Probability Measures on Hypergroups*, 1995). The
        axiom checks, the table, the scalar accessor and the export read
        these blocks.
        """
        p = self.p
        i = operator.index(i)
        _check_index(p, i)
        if i == 0:
            return (p + 1) * np.eye(p, dtype=self.n1.dtype)
        s = np.arange(p) * pow(i, -1, p) % p
        return self.n1[np.ix_(s, s)]

    def scaled(self, i: int, j: int, k: int) -> int:
        """Numerator of n_ij^k over the common denominator p + 1.

        Builds the whole i-block, O(p^2); loops should read ``numerators``.
        """
        _check_index(self.p, j)
        _check_index(self.p, k)
        return int(self.numerators(i)[j, k])

    def scaled_table(self) -> np.ndarray:
        """Dense (p, p, p) int32 table of scaled numerators, built anew on
        each call, one i-block at a time so temporaries stay O(p^2)."""
        p = self.p
        if p > DENSE_TABLE_LIMIT:
            raise ValueError(
                f"dense table for p={p} exceeds limit {DENSE_TABLE_LIMIT}"
            )
        table = np.empty((p, p, p), dtype=np.int32)
        for i in range(p):
            table[i] = self.numerators(i)
        table.setflags(write=False)
        return table


def pair_quadrance_counts(modulus: PrimeModulus, i: int, j: int) -> np.ndarray:
    """Histogram over k of the quadrance of a + b for all (a, b) in C_i x C_j.

    Direct enumeration of point pairs; this is the counting definition of
    the product and deliberately shares no code with the closed form.
    """
    p = modulus.p
    pi = np.asarray(circle_points(modulus, i), dtype=np.int64).reshape(-1, 2)
    pj = np.asarray(circle_points(modulus, j), dtype=np.int64).reshape(-1, 2)
    x = (pi[:, 0][:, None] + pj[:, 0][None, :]) % p
    y = (pi[:, 1][:, None] + pj[:, 1][None, :]) % p
    q = (x * x + y * y) % p
    return np.bincount(q.ravel(), minlength=p)


def structure_constant_bruteforce(
    modulus: PrimeModulus, i: int, j: int, k: int
) -> Fraction:
    """n_ij^k by counting point pairs, the oracle for the closed form."""
    _check_index(modulus.p, k)
    counts = pair_quadrance_counts(modulus, i, j)
    return Fraction(int(counts[k]), int(counts.sum()))


@dataclass(frozen=True)
class AxiomCheck:
    """One axiom's outcome. ``method`` names the path that decided
    associativity, ``"generator-commutant"`` or ``"exhaustive"``, and is
    None for the other axioms."""

    name: str
    witness: tuple[int, ...] | None = None
    method: str | None = None

    @property
    def passed(self) -> bool:
        """Whether the axiom holds: it has no witness."""
        return self.witness is None


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the five hypergroup axiom checks, with counterexamples."""

    positivity: AxiomCheck
    normalization: AxiomCheck
    commutativity: AxiomCheck
    hermitian_support: AxiomCheck
    associativity: AxiomCheck

    def checks(self) -> list[AxiomCheck]:
        """The checks in field order."""
        return [getattr(self, f.name) for f in fields(self)]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks())


def _first_witness(bad: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first hit of the mask ``bad`` in row-major
    order, or None when ``bad`` has no hit."""
    if not bad.any():  # much cheaper than argwhere on a clean mask
        return None
    return tuple(int(v) for v in np.argwhere(bad)[0])


def exact_dtype(bound: int) -> type:
    """Cheapest dtype holding every integer of magnitude up to ``bound``
    exactly: float32 below 2^24 and float64 below 2^53, where BLAS sums
    and products of such integers are exact in any order, then int64
    below 2^63, else Python integers (``object``)."""
    for dtype, limit in ((np.float32, 2**24), (np.float64, 2**53),
                         (np.int64, 2**63)):
        if bound < limit:
            return dtype
    return object


def _magnitude(block: np.ndarray) -> tuple[int, int]:
    """Largest row sum of |entries| and largest |entry| of an integer
    block, taken in int64, so an int32 entry of -2^31 counts as 2^31."""
    magnitude = np.abs(block, dtype=np.int64)
    return int(magnitude.sum(axis=1).max()), int(magnitude.max())


def contraction_dtype(blocks) -> type:
    """Cheapest dtype in which products of the (p, p) integer ``blocks``
    (the i-slices of a table, or a pair of blocks) are exact.

    Every term and partial sum of a product of two of them, such as
    sum_t e[i,j,t] e[t,k,m] in ``associativity_witness``, is an integer
    of magnitude at most B = (largest row sum of |entries|) * (largest
    |entry|), and ``exact_dtype(B)`` holds them all. Only the exhaustive
    fallback needs it, since its tables may fail every other check: a
    valid table has B = (p+1)^2, so float32, and tampered tables may
    need float64, int64 or Python integers.
    """
    row_l1, peak = map(max, zip(*map(_magnitude, blocks)))
    return exact_dtype(row_l1 * peak)


def associativity_witness(table: np.ndarray, dtype) -> tuple[int, ...] | None:
    """First (i, j, k, m) in C order with sum_t e[i,j,t] e[t,k,m] !=
    sum_t e[j,k,t] e[i,t,m], or None when the product is associative.

    Contracts one i-slice at a time in blocks of j rows, with matmuls in
    ``dtype``; the answer is exact when ``contraction_dtype`` allows it.
    """
    p = table.shape[0]
    f = table.astype(dtype)
    by_t = f.reshape(p, p * p)  # [t, k*m]
    by_jk = f.reshape(p * p, p)  # [j*k, t]
    for i in range(p):
        for j0 in range(0, p, _ASSOC_BLOCK):
            j1 = min(j0 + _ASSOC_BLOCK, p)
            lhs = f[i, j0:j1] @ by_t  # [j, k*m] = sum_t e[i,j,t] e[t,k,m]
            rhs = by_jk[j0 * p:j1 * p] @ f[i]  # [j*k, m] = sum_t e[j,k,t] e[i,t,m]
            bad = lhs.reshape(j1 - j0, p, p) != rhs.reshape(j1 - j0, p, p)
            if bad.any():
                j, k, m = np.argwhere(bad)[0]
                return (i, j0 + int(j), int(k), int(m))
    return None


def nonsingular_mod(m: np.ndarray, q: int) -> bool:
    """Whether a square int64 matrix is invertible over F_q, for a
    prime q < 2^26.

    Gaussian elimination in place: ``m`` is reduced mod q and then
    overwritten, so a caller that still needs it passes a copy. Entries
    are reduced mod q after every product, so no entry or product
    exceeds q^2 < 2^52.
    """
    m %= q
    for c in range(m.shape[0]):
        nonzero = np.flatnonzero(m[c:, c])
        if nonzero.size == 0:
            return False
        r = c + int(nonzero[0])
        m[[c, r]] = m[[r, c]]
        m[c, c:] = m[c, c:] * pow(int(m[c, c]), -1, q) % q
        m[c + 1:, c:] -= m[c + 1:, c, None] * m[c, c:]
        m[c + 1:, c:] %= q
    return True


def c1_generates(block: np.ndarray) -> bool:
    """Whether the Krylov vectors e_0 N_1^t, t < p, have rank p, with
    N_1 = block, the (p, p) numerators of c_1 (``numerators(1)``): then
    multiplication by c_1 is non-derogatory.

    The rank is taken modulo _KRYLOV_PRIME. Rank p there means a nonzero
    determinant mod q, hence over the integers; a singular reduction mod q
    only sends the caller to the exhaustive check.
    """
    p = block.shape[0]
    q = _KRYLOV_PRIME
    n1 = block.astype(np.int64)
    n1 %= q
    krylov = np.empty((p, p), dtype=np.int64)
    v = np.zeros(p, dtype=np.int64)
    v[0] = 1
    for t in range(p):
        krylov[t] = v
        v = v @ n1 % q  # p products below q^2: below 2^63 for p <= 512
    return nonsingular_mod(krylov, q)


def _report(method: str, witnesses) -> AxiomReport:
    """The report of one witness per axiom, in the order of
    ``AxiomReport``'s fields; ``method`` names the path that decided
    associativity."""
    return AxiomReport(*(
        AxiomCheck(f.name, witness, method if f.name == "associativity" else None)
        for f, witness in zip(fields(AxiomReport), witnesses)
    ))


def validate_axioms(tensor: StructureTensor) -> AxiomReport:
    """Check positivity, normalization, commutativity, hermitian support
    at index 0, and associativity, all exactly, for p up to
    DENSE_TABLE_LIMIT.

    Works on numerators over the common denominator p + 1, so every
    comparison is between integers. A certificate decides, in O(p^4)
    time and O(p^2) memory, whether the table passes every check; only a
    table that it does not pass builds the dense ``scaled_table``, and
    every witness is read off that table.

    The certificate reads each block N_i = ``numerators(i)`` once, in
    order of i, holding only N_i and N_1, and stops at the first block
    that fails. A block passes when it holds no negative entry, every
    row sums to p + 1, its column 0 is positive exactly at row i among
    the nonzero rows (hermitian support: c_i c_j holds c_0 iff i == j),
    and, with L_i the multiplication by c_i, whose matrix is N_i:

    1. c_0 is the identity: e_0 N_i = (p+1) e_i;
    2. L_i commutes with L_1: N_i N_1 == N_1 N_i.

    When every block passes, the last step is

    3. L_1 is non-derogatory (``c1_generates``): the Krylov vectors
       e_0, e_0 N_1, ..., e_0 N_1^(p-1) have full rank.

    By 3, e_0 is a cyclic vector of N_1, so with 2 every N_i is a
    polynomial in N_1 and all N_i commute. With 1 the product is
    commutative, (p+1) n_ji = e_0 N_i N_j = e_0 N_j N_i = (p+1) n_ij, and
    associative, (ab)c = c(ab) = a(cb) = a(bc). Step 2 is taken only once
    the block has passed the other checks, and so did every block before
    it: every entry then lies in [0, p + 1] and every row sums to p + 1,
    so every term and partial sum of N_i N_1 and N_1 N_i is an integer in
    [0, (p + 1)^2], and the one dtype ``exact_dtype((p + 1) ** 2)``
    (float32 below p = 4095, float64 past it) is exact for every
    product. N_1 is converted to it once, and so enters the i = 0
    product before its own checks at i = 1; but the certificate holds
    only if those checks pass, and then that product was exact.

    Otherwise the dense table e[i, j, k] names the first witness of
    each check in row-major order: of e < 0, of row sums other than
    p + 1, of e != e[j, i, k], of the hermitian support on the nonzero
    (i, j), and, from the exhaustive ``associativity_witness``, which
    compares sum_t n_ij^t n_tk^m with sum_t n_jk^t n_it^m for all
    quadruples, of associativity.
    """
    p = tensor.p
    if p > DENSE_TABLE_LIMIT:
        raise ValueError(f"axiom checks for p={p} exceed limit {DENSE_TABLE_LIMIT}")
    n1 = tensor.numerators(1)
    b = n1.astype(exact_dtype((p + 1) ** 2))
    circles = np.arange(p)
    for i in range(p):
        block = n1 if i == 1 else tensor.numerators(i)
        a = block.astype(b.dtype)
        if (block.min() < 0 or (block.sum(axis=1) != p + 1).any()
                or (i and not np.array_equal(block[1:, 0] > 0, circles[1:] == i))
                or not np.array_equal(block[0], (p + 1) * (circles == i))
                or not np.array_equal(a @ b, b @ a)):
            break
    else:
        if c1_generates(n1):
            return _report("generator-commutant", repeat(None))

    e = tensor.scaled_table()
    herm_bad = (e[:, :, 0] > 0) != np.eye(p, dtype=bool)
    herm_bad[0] = herm_bad[:, 0] = False  # the identity rows
    return _report("exhaustive", [
        _first_witness(e < 0), _first_witness(e.sum(axis=2) != p + 1),
        _first_witness(e != e.transpose(1, 0, 2)), _first_witness(herm_bad),
        associativity_witness(e, contraction_dtype(e)),
    ])
