"""``validate_axioms`` against exact oracles.

The exhaustive contraction runs in float32 whenever ``contraction_dtype``
proves every partial sum below 2^24, and in float64, int64 or Python
integers for larger tampered entries. Here tampered tables are checked in
float32, in int64, and by a full einsum over all p^5 quadruples; all three
must name the same first witness, or None. The O(p^4) dilation-commutant
certificate, which checks that every block is N_1 dilated and multiplies
N_1 with one block of each pair i, 1/i, may only pass tables the int64
contraction finds associative, and when it does not pass, the report is
the exhaustive one. Tables dilated from a tampered N_1 pass every check
before the products, so they reach them; a valid table relabelled by a
permutation that fixes 0 is a hypergroup but not dilated, and is outside
the certificate's scope. The certificate reads one block at a time and
stops at the first that fails; every report must be that of the dense
p^3 evaluation (``dense_report``), and a valid table must be certified
without the dense table, in O(p^2) memory.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewalk import circles
from circlewalk.circles import (
    StructureTensor,
    _dilate,
    associativity_witness,
    contraction_dtype,
    validate_axioms,
)
from circlewalk.modular import make_modulus, primes_3_mod_4
from conftest import serving

PRIMES = [7, 11, 19]
_TABLES = {p: StructureTensor(make_modulus(p)).scaled_table() for p in PRIMES}


def einsum_witness(table, dtype=np.int64):
    """First (i, j, k, m) in C order where the two sides differ, over the
    whole p^5 contraction at once."""
    e = table.astype(dtype)
    lhs = np.einsum("ijt,tkm->ijkm", e, e)
    rhs = np.einsum("jkt,itm->ijkm", e, e)
    where = np.argwhere(lhs != rhs)
    return tuple(int(v) for v in where[0]) if where.size else None


def assert_paths_agree(table):
    witness = associativity_witness(table, np.int64)
    # a block of 3 rows also exercises the offsets and a ragged last block
    for block in (3, circles._ASSOC_BLOCK):
        with mock.patch.object(circles, "_ASSOC_BLOCK", block):
            assert associativity_witness(table, np.float32) == witness
    if table.shape[0] <= 11:
        assert einsum_witness(table) == witness
    return witness


def first_hit(bad):
    where = np.argwhere(bad)
    return tuple(int(v) for v in where[0]) if where.size else None


def dense_report(table):
    """{check name: witness} of the five checks, from four p^3 masks over
    the whole table and the exhaustive ``associativity_witness``; the
    first witness is the first hit in row-major order."""
    p = table.shape[0]
    herm_bad = (table[:, :, 0] > 0) != np.eye(p, dtype=bool)
    herm_bad[0] = herm_bad[:, 0] = False  # identity rows are out of scope
    return {
        "positivity": first_hit(table < 0),
        "normalization": first_hit(table.sum(axis=2, dtype=np.int64) != p + 1),
        "commutativity": first_hit(table != table.transpose(1, 0, 2)),
        "hermitian_support": first_hit(herm_bad),
        "associativity": associativity_witness(table, contraction_dtype(table)),
    }


def streamed_report(table):
    """``validate_axioms`` of a table, tampered or not."""
    with serving(table):
        return validate_axioms(StructureTensor(make_modulus(table.shape[0])))


def certified_associativity(table):
    """``validate_axioms(...).associativity`` for a table, tampered or not."""
    return streamed_report(table).associativity


def assert_certificate_sound(table):
    """The report matches the int64 contraction on either path; since the
    certificate only ever passes, it never passes a table the oracle
    rejects."""
    check = certified_associativity(table)
    witness = associativity_witness(table, np.int64)
    assert (check.passed, check.witness) == (witness is None, witness)
    assert check.method in ("dilation-commutant", "exhaustive")
    return check


@pytest.mark.parametrize("p", PRIMES)
def test_valid_tables_are_associative_on_both_paths(p):
    table = _TABLES[p]
    assert contraction_dtype(table) is np.float32
    assert assert_paths_agree(table) is None


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_overwritten_entry(p, data):
    idx = st.integers(0, p - 1)
    i, j, k = data.draw(idx), data.draw(idx), data.draw(idx)
    value = data.draw(st.integers(-3, p + 1))
    table = _TABLES[p].copy()
    table[i, j, k] = value
    assert contraction_dtype(table) is np.float32
    assert_paths_agree(table)
    assert_certificate_sound(table)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_swapped_row_pair(p, data):
    a = data.draw(st.integers(1, p - 1))
    b = data.draw(st.integers(1, p - 1))
    c = data.draw(st.integers(1, p - 1))
    table = _TABLES[p].copy()
    # the swap keeps rows normalized and the table commutative
    table[a, b, :] = table[a, c, :]
    table[b, a, :] = table[c, a, :]
    assert_paths_agree(table)
    check = assert_certificate_sound(table)
    if b == c:  # the table is unchanged
        assert check.method == "dilation-commutant"


def assert_tampered_entry_takes(value, dtype):
    table = _TABLES[7].copy()
    table[2, 3, 4] = value
    assert contraction_dtype(table) is dtype
    witness = einsum_witness(table)
    assert witness is not None
    assert associativity_witness(table, dtype) == witness
    assert certified_associativity(table).witness == witness


def test_mid_entry_takes_the_float64_path():
    assert_tampered_entry_takes(5000, np.float64)  # B >= 5000^2 > 2^24


def test_large_entry_takes_the_int64_path():
    assert_tampered_entry_takes(10**8, np.int64)  # B >= 10^16 > 2^53


def test_int32_extremes_take_python_integers():
    p = 7
    table = _TABLES[p].copy()
    # symmetric, so commutativity holds, but positivity fails: the
    # certificate is not tried and the exhaustive check names the witness
    table[2, 3, 4:6] = table[3, 2, 4:6] = np.iinfo(np.int32).min
    # B = 2^32 * 2^31: int64 partial sums could wrap
    assert contraction_dtype(table) is object
    witness = associativity_witness(table, object)
    assert witness is not None
    assert witness == einsum_witness(table, object)
    assert certified_associativity(table).witness == witness


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_symmetric_overwrite(p, data):
    idx = st.integers(0, p - 1)
    i, j, k = data.draw(idx), data.draw(idx), data.draw(idx)
    table = _TABLES[p].copy()
    # the current value keeps the table valid, so the certificate is drawn
    # too; any other value breaks normalization, and the large ones put the
    # exhaustive path in each contraction_dtype tier (no row holds two of
    # them, so int64 stays exact for the oracle)
    value = data.draw(st.sampled_from(
        [int(table[i, j, k]), -1, 0, 1, 2, p + 1, 5000, 10**8, -(2**31)]
    ))
    table[i, j, k] = table[j, i, k] = value
    assert_certificate_sound(table)


@pytest.mark.parametrize("p", primes_3_mod_4(7, 199))
def test_every_valid_table_is_certified(p):
    check = validate_axioms(StructureTensor(make_modulus(p))).associativity
    assert (check.passed, check.method) == (True, "dilation-commutant")


def test_non_commutative_tamper_takes_the_exhaustive_path():
    table = _TABLES[7].copy()
    table[1, 2, :] = table[1, 3, :]
    report = streamed_report(table)
    assert not report.commutativity.passed
    assert report.associativity.method == "exhaustive"
    assert report.associativity.witness == associativity_witness(table, np.int64)


@st.composite
def tampered_tables(draw):
    """A valid table with up to three cells overwritten, each anywhere,
    in the identity row of a block or in block 0, and each mirrored
    (table[j, i, k] too, which keeps the table commutative) or not."""
    p = draw(st.sampled_from(PRIMES))
    idx = st.integers(0, p - 1)
    cell = (st.tuples(idx, idx, idx)
            | st.tuples(idx, st.just(0), idx)
            | st.tuples(st.just(0), idx, idx))
    table = _TABLES[p].copy()
    for i, j, k in draw(st.lists(cell, min_size=1, max_size=3)):
        value = draw(st.sampled_from(
            [int(table[i, j, k]), -1, 0, 1, 2, p + 1, 5000, 10**8, -(2**31)]
        ))
        table[i, j, k] = value
        if draw(st.booleans()):
            table[j, i, k] = value
    return table


@settings(max_examples=80, deadline=None)
@given(table=tampered_tables())
def test_streamed_checks_match_the_dense_report(table):
    report = streamed_report(table)
    expected = dense_report(table)
    for check in report.checks():
        witness = expected[check.name]
        assert (check.passed, check.witness) == (witness is None, witness)


def test_the_certificate_stops_at_the_first_failing_block():
    # block 2 holds a negative entry: the certificate reads N_1, N_0 and
    # N_2, and the dense table, which reads every block again, gives the
    # witnesses
    p = 11
    table = _TABLES[p].copy()
    table[2, 3, 4] = -1
    dense = StructureTensor.scaled_table
    read_before_dense = []

    def scaled_table(self):
        read_before_dense.append([c.args[1] for c in numerators.call_args_list])
        return dense(self)

    with serving(table), mock.patch.object(
        StructureTensor, "numerators", autospec=True,
        side_effect=StructureTensor.numerators,
    ) as numerators, mock.patch.object(StructureTensor, "scaled_table", scaled_table):
        report = validate_axioms(StructureTensor(make_modulus(p)))
    assert read_before_dense == [[1, 0, 2]]
    assert {c.name: c.witness for c in report.checks()} == dense_report(table)
    assert report.positivity.witness == (2, 3, 4)
    assert report.associativity.method == "exhaustive"


@pytest.mark.parametrize("p", PRIMES)
def test_the_certificate_needs_the_identity_rows(p):
    # every block but N_0 is N_1: each commutes with N_1, but c_0 is no
    # identity and the product is not commutative
    table = np.stack([_TABLES[p][0]] + [_TABLES[p][1]] * (p - 1))
    report = streamed_report(table)
    expected = dense_report(table)
    assert expected["commutativity"] is not None
    for check in report.checks():
        assert check.witness == expected[check.name]
    assert report.associativity.method == "exhaustive"


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_dilated_tables_reach_the_products(p, data):
    # two entries swapped in a nonzero row of N_1, away from column 0,
    # keep every check of N_1; every block dilated from it, and N_0 =
    # (p+1) I, then pass all but the products, which alone decide
    n1 = _TABLES[p][1].astype(np.int64)
    j = data.draw(st.integers(1, p - 1))
    k, m = data.draw(st.lists(st.integers(1, p - 1), min_size=2, max_size=2,
                              unique=True))
    n1[j, [k, m]] = n1[j, [m, k]]
    table = np.stack([_dilate(n1, i) for i in range(p)])
    report = streamed_report(table)
    expected = dense_report(table)
    assert {c.name: c.witness for c in report.checks()} == expected
    certified = report.associativity.method == "dilation-commutant"
    assert certified == all(w is None for w in expected.values())


@pytest.mark.parametrize("p", PRIMES)
def test_a_relabelled_hypergroup_is_outside_the_certificate(p):
    # labels 1 and 2 swapped on all three indices: an isomorphic, valid
    # hypergroup, but N_2 is no longer N_1 dilated
    order = np.arange(p)
    order[[1, 2]] = order[[2, 1]]
    table = _TABLES[p][np.ix_(order, order, order)]
    report = streamed_report(table)
    assert all(c.witness is None for c in report.checks())
    assert report.associativity.method == "exhaustive"


def refuse_dense_table(self):
    raise AssertionError("a valid tensor built the dense table")


@pytest.mark.parametrize("p", [103, 199])
def test_valid_tables_are_certified_in_o_p2_memory(p):
    tracemalloc.start()
    try:
        with mock.patch.object(StructureTensor, "scaled_table", refuse_dense_table):
            report = validate_axioms(StructureTensor(make_modulus(p)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 16 * 8 * p * p  # sixteen int64 (p, p) blocks


@pytest.mark.parametrize("p", [7, 11, 103])
def test_the_certificate_reads_one_exactness_bound(p):
    # once positivity and normalization hold, every partial sum of N_i N_1
    # lies in [0, (p + 1)^2]: one dtype serves every block
    with mock.patch.object(circles, "exact_dtype",
                           wraps=circles.exact_dtype) as exact_dtype:
        report = validate_axioms(StructureTensor(make_modulus(p)))
    assert report.associativity.method == "dilation-commutant"
    exact_dtype.assert_called_once_with((p + 1) ** 2)


def test_the_certificate_holds_one_block_beside_n1():
    # N_1 and one block in int16 and in float32, the two products and a
    # bool mask, 21 p^2 bytes; one more p x p array kept alive, even an
    # int16 one, reaches 23
    p = 307
    tensor = StructureTensor(make_modulus(p))
    tracemalloc.start()
    try:
        report = validate_axioms(tensor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 23 * p * p


def test_the_certificate_at_the_dense_table_cap():
    # 503 is the largest prime = 3 (mod 4) below DENSE_TABLE_LIMIT
    with mock.patch.object(StructureTensor, "scaled_table", refuse_dense_table):
        report = validate_axioms(StructureTensor(make_modulus(503)))
    assert report.all_passed
    assert report.associativity.method == "dilation-commutant"
