"""Circles of F_p^2 and the exact coefficients of their translation product.

A circle C_k is the set of plane points at quadrance k = x^2 + y^2 from the
origin. Translating a random point of C_i by a random point of C_j lands on
C_k with probability n_ij^k; those coefficients make the p circles a
finite hypergroup. Everything here is exact: coefficients are rationals
with denominator p + 1 (identity rows aside), and the brute-force counter
is kept fully independent of the closed form so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .modular import PrimeModulus, Squareness, is_square, sqrt_mod

# Dense coefficient tables hold p^3 small ints; keep them desk-scale.
DENSE_TABLE_LIMIT = 512

# Rows of j (or blocks of i) contracted per matmul: keeps temporaries at O(p^2).
_ASSOC_BLOCK = 16
# The Krylov rank of c_1 is taken modulo this prime: below 2^26, so every
# int64 sum of p <= DENSE_TABLE_LIMIT products of residues is below 2^63.
_KRYLOV_PRIME = 2**26 - 5


def _check_index(p: int, k: int) -> None:
    if not 0 <= k < p:
        raise IndexError(f"circle index {k} out of range [0, {p})")


def quadrance(modulus: PrimeModulus, x: int, y: int) -> int:
    """Quadrance of the plane point (x, y): x^2 + y^2 mod p."""
    return (x * x + y * y) % modulus.p


def circle_points(modulus: PrimeModulus, k: int) -> list[tuple[int, int]]:
    """All points of the circle with quadrance k, sorted lexicographically.

    For each x the circle equation needs y^2 = k - x^2, so x contributes
    two points, one point, or none according to the squareness of k - x^2.
    """
    p = modulus.p
    _check_index(p, k)
    pts = []
    for x in range(p):
        rest = (k - x * x) % p
        cls = is_square(modulus, rest)
        if cls is Squareness.ZERO:
            pts.append((x, 0))
        elif cls is Squareness.SQUARE:
            r = sqrt_mod(modulus, rest)
            pts.append((x, r))
            pts.append((x, p - r))
    pts.sort()
    return pts


def circle_size(modulus: PrimeModulus, k: int) -> int:
    """|C_0| = 1 and |C_k| = p + 1 otherwise."""
    _check_index(modulus.p, k)
    return 1 if k == 0 else modulus.p + 1


class StructureTensor:
    """Exact accessor for the product coefficients n_ij^k.

    Zero indices are the identity: a step of quadrance 0 stays put, so
    n_0j^k = [k == j] and n_i0^k = [k == i]. For nonzero i, j the value is
    governed by the squareness of V = ij - (k-i-j)^2 / 4 in F_p:
    non-square gives 0, zero gives 1/(p+1), nonzero square gives 2/(p+1).

    ``numerators(i)`` returns the (j, k) block of numerators over the
    common denominator p + 1; the dense table of all blocks is built
    lazily and only for p up to DENSE_TABLE_LIMIT.
    """

    def __init__(self, modulus: PrimeModulus):
        self.modulus = modulus
        self._table: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.modulus.p

    def constant(self, i: int, j: int, k: int) -> Fraction:
        """n_ij^k as an exact rational."""
        return Fraction(self.scaled(i, j, k), self.p + 1)

    def numerators(self, i: int) -> np.ndarray:
        """(p, p) int64 block of the numerators of n_ij^k over p + 1,
        indexed [j, k], identity rows included.

        The only evaluation of the closed form: the table, the scalar
        accessor, the walk kernel and the export all read these blocks.
        """
        p = self.p
        _check_index(p, i)
        if i == 0:
            return (p + 1) * np.eye(p, dtype=np.int64)
        j = np.arange(p, dtype=np.int64).reshape(p, 1)
        k = np.arange(p, dtype=np.int64).reshape(1, p)
        v = (i * j - (k - i - j) ** 2 * self.modulus._inv4) % p
        block = np.where(self.modulus.residue_table[v], 2, 0)
        block[v == 0] = 1
        # j = 0 is the identity: n_i0^k = [k == i]
        block[0] = 0
        block[0, i] = p + 1
        return block

    def scaled(self, i: int, j: int, k: int) -> int:
        """Numerator of n_ij^k over the common denominator p + 1.

        Builds the whole i-block, O(p^2); loops should read ``numerators``.
        """
        _check_index(self.p, j)
        _check_index(self.p, k)
        return int(self.numerators(i)[j, k])

    def scaled_table(self) -> np.ndarray:
        """Dense (p, p, p) int32 table of scaled numerators, memoized.

        Built one i-block at a time so temporaries stay O(p^2).
        """
        if self._table is None:
            p = self.p
            if p > DENSE_TABLE_LIMIT:
                raise ValueError(
                    f"dense table for p={p} exceeds limit {DENSE_TABLE_LIMIT}"
                )
            table = np.empty((p, p, p), dtype=np.int32)
            for i in range(p):
                table[i] = self.numerators(i)
            table.setflags(write=False)
            self._table = table
        return self._table


def pair_quadrance_counts(modulus: PrimeModulus, i: int, j: int) -> np.ndarray:
    """Histogram over k of quadrance(a + b) for all (a, b) in C_i x C_j.

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
    total = circle_size(modulus, i) * circle_size(modulus, j)
    return Fraction(int(counts[k]), total)


def triple_support(
    tensor: StructureTensor, i: int, j: int, k: int, l: int
) -> bool:
    """Whether the triple product coefficient of c_l in c_i c_j c_k is positive.

    The coefficient is sum_t n_ij^t * n_tk^l; positivity only needs one
    nonzero term, checked in exact integers.
    """
    p = tensor.p
    for idx in (i, j, k, l):
        _check_index(p, idx)
    # n_tk^l = n_kt^l, so column l of the k-block runs over t
    return bool(
        ((tensor.numerators(i)[j] > 0) & (tensor.numerators(k)[:, l] > 0)).any()
    )


@dataclass(frozen=True)
class AxiomCheck:
    """One axiom's outcome. ``method`` names the path that decided
    associativity, ``"generator-commutant"`` or ``"exhaustive"``, and is
    None for the other axioms."""

    name: str
    passed: bool
    witness: tuple[int, ...] | None = None
    method: str | None = None


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the five hypergroup axiom checks, with counterexamples."""

    positivity: AxiomCheck
    normalization: AxiomCheck
    commutativity: AxiomCheck
    hermitian_support: AxiomCheck
    associativity: AxiomCheck

    def checks(self) -> list[AxiomCheck]:
        return [
            self.positivity,
            self.normalization,
            self.commutativity,
            self.hermitian_support,
            self.associativity,
        ]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks())


def _first_witness(bad: np.ndarray) -> tuple[int, ...] | None:
    where = np.argwhere(bad)
    return tuple(int(v) for v in where[0]) if where.size else None


def _axiom(name: str, bad: np.ndarray) -> AxiomCheck:
    """The check ``name``, passed unless the mask ``bad`` has a hit; the
    witness is the first hit in row-major order."""
    return AxiomCheck(name, not bad.any(), _first_witness(bad))


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


def contraction_dtype(table: np.ndarray) -> type:
    """Cheapest dtype in which ``associativity_witness`` is exact on table.

    Every term and partial sum of sum_t e[i,j,t] e[t,k,m] (or of the
    right-hand side) is an integer of magnitude at most
    B = max_{i,j} sum_t |e[i,j,t]| * max |e|, and ``exact_dtype(B)``
    holds them all. A valid table has B = (p+1)^2, so float32; tampered
    tables may need float64, int64 or Python integers.
    """
    row_l1 = max(
        int(np.abs(block, dtype=np.int64).sum(axis=1).max()) for block in table
    )
    return exact_dtype(row_l1 * max(int(table.max()), -int(table.min())))


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


def nonsingular_mod(matrix: np.ndarray, q: int) -> bool:
    """Whether a square integer matrix is invertible over F_q, for a
    prime q < 2^26.

    Gaussian elimination in int64, reduced mod q after every product, so
    no entry or product exceeds q^2 < 2^52.
    """
    m = np.asarray(matrix, dtype=np.int64) % q
    for c in range(m.shape[0]):
        nonzero = np.flatnonzero(m[c:, c])
        if nonzero.size == 0:
            return False
        r = c + int(nonzero[0])
        m[[c, r]] = m[[r, c]]
        m[c, c:] = m[c, c:] * pow(int(m[c, c]), -1, q) % q
        m[c + 1:, c:] = (m[c + 1:, c:] - m[c + 1:, c, None] * m[c, c:]) % q
    return True


def c1_generates(block: np.ndarray) -> bool:
    """Whether the Krylov vectors e_0 N_1^t, t < p, have rank p, with
    N_1 = block, the (p, p) numerators of c_1 (``table[1]``): then
    multiplication by c_1 is non-derogatory.

    The rank is taken modulo _KRYLOV_PRIME. Rank p there means a nonzero
    determinant mod q, hence over the integers; a singular reduction mod q
    only sends the caller to the exhaustive check.
    """
    p = block.shape[0]
    q = _KRYLOV_PRIME
    n1 = block.astype(np.int64) % q
    krylov = np.empty((p, p), dtype=np.int64)
    v = np.zeros(p, dtype=np.int64)
    v[0] = 1
    for t in range(p):
        krylov[t] = v
        v = v @ n1 % q  # p products below q^2: below 2^63 for p <= 512
    return nonsingular_mod(krylov, q)


def commutes_with_c1(table: np.ndarray, dtype) -> bool:
    """Whether N_i N_1 == N_1 N_i for every i, with N_i = table[i].

    Contracts _ASSOC_BLOCK slices of i at a time in ``dtype``. Every
    partial sum is bounded by the ``contraction_dtype`` bound B, so its
    dtype makes the comparison exact.
    """
    p = table.shape[0]
    n1 = table[1].astype(dtype)
    for i0 in range(0, p, _ASSOC_BLOCK):
        block = table[i0:i0 + _ASSOC_BLOCK].astype(dtype)
        if not np.array_equal(block @ n1, n1 @ block):
            return False
    return True


def validate_axioms(tensor: StructureTensor) -> AxiomReport:
    """Check positivity, normalization, commutativity, hermitian support
    at index 0, and associativity, all exactly.

    Works on numerators over the common denominator p + 1, so every
    comparison is between integers. Associativity is first certified in
    O(p^4) from three facts, with L_i the multiplication by c_i:

    1. the table is commutative;
    2. L_1 is non-derogatory (``c1_generates``): the Krylov vectors
       e_0, L_1 e_0, ..., L_1^(p-1) e_0 have full rank;
    3. every L_i commutes with L_1 (``commutes_with_c1``).

    By 2 and 3 every L_i is a polynomial in L_1, so all L_i commute, and
    with 1, (ab)c = c(ab) = a(cb) = a(bc). If any step fails, the
    exhaustive ``associativity_witness`` compares sum_t n_ij^t n_tk^m
    with sum_t n_jk^t n_it^m for all quadruples and names the first
    witness. Both paths run in the dtype ``contraction_dtype`` proves
    exact: float32 for every valid table up to DENSE_TABLE_LIMIT.
    """
    p = tensor.p
    e = tensor.scaled_table()
    positivity = _axiom("positivity", e < 0)
    normalization = _axiom(
        "normalization", e.sum(axis=2, dtype=np.int64) != p + 1
    )
    commutativity = _axiom("commutativity", e != e.transpose(1, 0, 2))
    # only the nonzero circles are checked: c_i c_j holds c_0 iff i == j
    herm_bad = (e[:, :, 0] > 0) != np.eye(p, dtype=bool)
    herm_bad[0] = herm_bad[:, 0] = False
    hermitian_support = _axiom("hermitian_support", herm_bad)

    dtype = contraction_dtype(e)
    if commutativity.passed and c1_generates(e[1]) and commutes_with_c1(e, dtype):
        associativity = AxiomCheck(
            "associativity", True, method="generator-commutant"
        )
    else:
        witness = associativity_witness(e, dtype)
        associativity = AxiomCheck(
            "associativity", witness is None, witness, method="exhaustive"
        )

    return AxiomReport(
        positivity, normalization, commutativity, hermitian_support, associativity
    )
