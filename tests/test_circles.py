import contextlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from circlewalk import circles as circles_mod
from circlewalk.circles import (
    StructureTensor,
    circle_points,
    exact_dtype,
    n1_dtype,
    pair_quadrance_counts,
    square_table,
    structure_constant_bruteforce,
    validate_axioms,
)
from circlewalk.modular import make_modulus, primes_3_mod_4
from conftest import serving


def plane_circle(p, k):
    # oracle: scan all p^2 plane points directly
    return sorted(
        (x, y) for x in range(p) for y in range(p) if (x * x + y * y) % p == k
    )


def test_circle_points_examples():
    m7 = make_modulus(7)
    assert circle_points(m7, 0) == [(0, 0)]
    assert circle_points(m7, 1) == [
        (0, 1), (0, 6), (1, 0), (2, 2), (2, 5), (5, 2), (5, 5), (6, 0),
    ]
    m11 = make_modulus(11)
    assert len(circle_points(m11, 3)) == 12


@pytest.mark.parametrize("p", [7, 11, 19])
def test_circle_points_match_plane_scan(p):
    m = make_modulus(p)
    for k in range(p):
        pts = circle_points(m, k)
        assert pts == plane_circle(p, k)
        assert len(pts) == len(set(pts))
        assert all((x * x + y * y) % p == k for x, y in pts)
        assert len(pts) == (1 if k == 0 else p + 1)


@contextlib.contextmanager
def tampered_square_table(p):
    """Make ``circles.square_table(p)`` swap the square 1 and the
    smallest non-square, the way ``conftest.serving`` patches
    ``numerators``."""
    table = square_table(p).copy()
    b = int(np.flatnonzero(~table[1:])[0]) + 1
    table[1], table[b] = False, True
    with mock.patch.object(circles_mod, "square_table", lambda q: table):
        yield


@pytest.mark.parametrize("p", [7, 11, 19, 23])
def test_oracle_ignores_a_tampered_square_table(p):
    # the closed form reads the square table and the oracle must not, so
    # a swap there moves the closed form and leaves the points on circles
    m = make_modulus(p)
    with tampered_square_table(p):
        for k in range(p):
            assert circle_points(m, k) == plane_circle(p, k)
        t = StructureTensor(m)
        assert any(
            structure_constant_bruteforce(m, 1, j, k) != t.constant(1, j, k)
            for j in range(p) for k in range(p)
        )


@pytest.mark.parametrize("p", [7, 11, 19, 23])
def test_circle_sizes_partition_plane(p):
    m = make_modulus(p)
    assert sum(len(circle_points(m, k)) for k in range(p)) == p * p


def test_structure_constant_examples():
    t = StructureTensor(make_modulus(7))
    assert t.constant(1, 1, 0) == Fraction(1, 8)
    assert t.constant(1, 1, 2) == Fraction(1, 4)
    assert t.constant(0, 5, 5) == Fraction(1)
    assert t.constant(0, 5, 3) == Fraction(0)
    assert t.constant(1, 2, 0) == Fraction(0)


def test_bruteforce_examples():
    m = make_modulus(7)
    assert structure_constant_bruteforce(m, 1, 1, 0) == Fraction(1, 8)
    assert structure_constant_bruteforce(m, 1, 1, 2) == Fraction(1, 4)
    for j in range(7):
        assert structure_constant_bruteforce(m, 0, j, j) == Fraction(1)


def test_index_out_of_range():
    m = make_modulus(7)
    t = StructureTensor(m)
    with pytest.raises(IndexError):
        circle_points(m, 7)
    with pytest.raises(IndexError):
        t.constant(1, 1, -1)
    with pytest.raises(IndexError):
        structure_constant_bruteforce(m, 9, 0, 0)


@pytest.mark.parametrize("p", [7, 11])
def test_oracle_equivalence_all_triples(p):
    m = make_modulus(p)
    t = StructureTensor(m)
    for i in range(p):
        for j in range(p):
            counts = pair_quadrance_counts(m, i, j)
            total = len(circle_points(m, i)) * len(circle_points(m, j))
            for k in range(p):
                assert Fraction(int(counts[k]), total) == t.constant(i, j, k)


def test_value_set_and_normalization():
    p = 11
    t = StructureTensor(make_modulus(p))
    allowed_nonzero = {Fraction(0), Fraction(1, p + 1), Fraction(2, p + 1)}
    for i in range(p):
        for j in range(p):
            row = [t.constant(i, j, k) for k in range(p)]
            assert sum(row) == 1
            if i and j:
                assert set(row) <= allowed_nonzero
            else:
                assert set(row) <= {Fraction(0), Fraction(1)}


@pytest.mark.parametrize("p", [7, 11])
def test_raw_count_symmetry_all_nonzero(p):
    # N_ij^k is invariant under permuting i, j, k when all are nonzero
    m = make_modulus(p)
    raw = {}
    for i in range(1, p):
        for j in range(1, p):
            counts = pair_quadrance_counts(m, i, j)
            for k in range(1, p):
                raw[(i, j, k)] = int(counts[k])
    for (i, j, k), n in raw.items():
        assert raw[(j, i, k)] == n
        assert raw[(i, k, j)] == n
        assert raw[(k, j, i)] == n


@pytest.mark.parametrize("p", [7, 11, 19])
def test_two_step_diameter(p):
    t = StructureTensor(make_modulus(p))
    for i in range(1, p):
        for j in range(1, p):
            assert any(
                t.scaled(i, 1, s) > 0 and t.scaled(s, 1, j) > 0 for s in range(p)
            )


@pytest.mark.parametrize("p", [7, 11, 19])
def test_reachable_circles_at_least_half(p):
    t = StructureTensor(make_modulus(p))
    for i in range(1, p):
        for j in range(1, p):
            reachable = sum(t.scaled(i, j, k) > 0 for k in range(p))
            assert reachable >= (p + 1) // 2


def closed_form_block(modulus, i):
    """Oracle: the (j, k) numerators of n_ij^k over p + 1 from the
    closed form at a general i, with no dilation: the squareness of
    V = ij - (k-i-j)^2 / 4, and the identity rows."""
    p = modulus.p
    if i == 0:
        return (p + 1) * np.eye(p, dtype=np.int64)
    j = np.arange(p).reshape(p, 1)
    k = np.arange(p).reshape(1, p)
    v = (i * j - (k - i - j) ** 2 * pow(4, -1, p)) % p
    block = np.where(square_table(p)[v], 2, 0)
    block[v == 0] = 1
    block[0] = 0
    block[0, i] = p + 1
    return block


def test_every_block_is_the_closed_form():
    # each block is gathered from N_1 by the dilation k -> k/i; the closed
    # form at that i must give the same integers
    for p in primes_3_mod_4(7, 103):
        m = make_modulus(p)
        t = StructureTensor(m)
        assert not t.n1.flags.writeable
        for a in range(p):
            assert np.array_equal(t.numerators(a), closed_form_block(m, a)), (
                p, a)


def test_n1_is_the_closed_form_at_every_prime_to_2003():
    # N_1 is one circulant gather; the oracle evaluates V at every (j, k)
    for p in primes_3_mod_4(7, 2003):
        m = make_modulus(p)
        n1 = StructureTensor(m).n1
        assert n1.dtype == np.int16 and not n1.flags.writeable
        assert np.array_equal(n1, closed_form_block(m, 1)), p


def test_n1_is_int16_while_the_gather_index_fits():
    # the index j + p - Q[j, k] reaches 2p - 1 and an entry p + 1; 16363
    # and 16411 are the primes = 3 (mod 4) either side of 2p = 2^15
    assert primes_3_mod_4(16363, 16411) == [16363, 16411]
    assert n1_dtype(7) is n1_dtype(16363) is np.int16
    assert 2 * 16363 - 1 <= np.iinfo(np.int16).max < 2 * 16411 - 1
    assert n1_dtype(16411) is n1_dtype(2**30 - 1) is np.int32


@pytest.mark.parametrize("p", [7, 11])
def test_numerators_are_fresh_writable_blocks_in_n1_dtype(p):
    # every block is served in N_1's own dtype, as a fresh array: writing
    # to it leaves N_1 as it was
    t = StructureTensor(make_modulus(p))
    for i in range(p):
        block = t.numerators(i)
        assert block.dtype == t.n1.dtype and block.flags.writeable
        block[1, 1] = -1
        assert np.array_equal(t.n1, closed_form_block(make_modulus(p), 1)), i


@pytest.mark.parametrize("p", primes_3_mod_4(3, 43))
def test_n1_rows_are_pair_counts(p):
    # row j of N_1 is the C_1 x C_j histogram over |C_j|, with
    # |C_1| |C_j| = (p + 1) |C_j| pairs in all: no closed form is read
    m = make_modulus(p)
    n1 = StructureTensor(m).n1
    for j in range(p):
        counts = pair_quadrance_counts(m, 1, j)
        assert (n1[j] * counts.sum() == counts * (p + 1)).all(), (p, j)


def test_numerators_takes_numpy_integers():
    t = StructureTensor(make_modulus(11))
    assert np.array_equal(t.numerators(np.int64(3)), t.numerators(3))
    with pytest.raises(IndexError):
        t.numerators(np.int64(11))


def triple_support(tensor, i, j, k, l):
    """Whether the triple product coefficient of c_l in c_i c_j c_k is
    positive: sum_t n_ij^t * n_tk^l has a nonzero term, in integers."""
    # n_tk^l = n_kt^l, so column l of the k-block runs over t
    return bool(
        ((tensor.numerators(i)[j] > 0) & (tensor.numerators(k)[:, l] > 0)).any()
    )


def test_triple_support_examples():
    t = StructureTensor(make_modulus(7))
    assert triple_support(t, 1, 2, 3, 4)
    assert triple_support(t, 0, 1, 1, 2)
    assert not triple_support(t, 0, 1, 2, 0)


@pytest.mark.parametrize("p", [7, 11])
def test_triple_support_all_nonzero(p):
    t = StructureTensor(make_modulus(p))
    for i in range(1, p):
        for j in range(1, p):
            for k in range(1, p):
                for l in range(1, p):
                    assert triple_support(t, i, j, k, l)


@pytest.mark.parametrize("p", [7, 11])
def test_one_zero_index_agrees_under_permutation(p):
    # with one index zero, support reduces to a predicate in the three
    # remaining numbers that must not depend on their order
    t = StructureTensor(make_modulus(p))
    for x in range(1, p):
        for y in range(1, p):
            for z in range(1, p):
                results = {
                    triple_support(t, 0, x, y, z),
                    triple_support(t, x, 0, y, z),
                    triple_support(t, x, y, 0, z),
                    triple_support(t, x, y, z, 0),
                }
                assert len(results) == 1


@pytest.mark.parametrize("p", [7, 11])
def test_axioms_pass(p):
    report = validate_axioms(StructureTensor(make_modulus(p)))
    assert report.all_passed
    for check in report.checks():
        assert check.witness is None


def test_axioms_catch_corrupted_tensor():
    table = StructureTensor(make_modulus(7)).scaled_table().copy()
    table[1, 1, 0] = 0
    with serving(table):
        report = validate_axioms(StructureTensor(make_modulus(7)))
    assert not report.all_passed
    assert not report.normalization.passed
    assert report.normalization.witness == (1, 1)
    assert not report.hermitian_support.passed
    assert report.hermitian_support.witness == (1, 1)


def test_hermitian_support_reads_only_nonzero_circles():
    table = StructureTensor(make_modulus(7)).scaled_table().copy()
    # identity rows are out of scope; the first nonzero hit is (2, 5)
    table[0, 3, 0] = table[4, 0, 0] = 1
    table[3, 2, 0] = table[2, 5, 0] = 1
    with serving(table):
        check = validate_axioms(StructureTensor(make_modulus(7))).hermitian_support
    assert (check.passed, check.witness) == (False, (2, 5))


def test_axioms_catch_non_associative_product():
    # swapping in another valid distribution keeps rows normalized and
    # commutative but breaks associativity alone
    table = StructureTensor(make_modulus(7)).scaled_table().copy()
    table[1, 2, :] = table[1, 3, :]
    table[2, 1, :] = table[3, 1, :]
    with serving(table):
        report = validate_axioms(StructureTensor(make_modulus(7)))
    assert report.positivity.passed
    assert report.normalization.passed
    assert report.commutativity.passed
    assert not report.associativity.passed
    assert report.associativity.witness == (1, 1, 2, 0)


def test_dense_table_matches_scalar_accessor():
    p = 11
    t = StructureTensor(make_modulus(p))
    table = t.scaled_table()
    for i in range(p):
        for j in range(p):
            for k in range(p):
                assert int(table[i, j, k]) == t.scaled(i, j, k)


@pytest.mark.parametrize("bound, dtype", [
    (2**24 - 1, np.float32), (2**24, np.float64),
    (2**53 - 1, np.float64), (2**53, np.int64),
    (2**63 - 1, np.int64), (2**63, object),
])
def test_exact_dtype_tier_edges(bound, dtype):
    assert exact_dtype(bound) is dtype
