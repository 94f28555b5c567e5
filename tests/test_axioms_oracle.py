"""The float32 associativity contraction against exact integer oracles.

``validate_axioms`` contracts in float32 whenever ``contraction_dtype``
proves every partial sum below 2^24, and in float64, int64 or Python
integers for larger tampered entries. Here tampered tables are checked in
float32, in int64, and by a full einsum over all p^5 quadruples; all three
must name the same first witness, or None.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewalk import circles
from circlewalk.circles import (
    StructureTensor,
    associativity_witness,
    contraction_dtype,
    validate_axioms,
)
from circlewalk.modular import make_modulus

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


@settings(max_examples=25, deadline=None)
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


def assert_tampered_entry_takes(value, dtype):
    p = 7
    tensor = StructureTensor(make_modulus(p))
    table = tensor.scaled_table().copy()
    table[2, 3, 4] = value
    assert contraction_dtype(table) is dtype
    witness = einsum_witness(table)
    assert witness is not None
    assert associativity_witness(table, dtype) == witness
    tensor._table = table
    assert validate_axioms(tensor).associativity.witness == witness


def test_mid_entry_takes_the_float64_path():
    assert_tampered_entry_takes(5000, np.float64)  # B >= 5000^2 > 2^24


def test_large_entry_takes_the_int64_path():
    assert_tampered_entry_takes(10**8, np.int64)  # B >= 10^16 > 2^53


def test_int32_extremes_take_python_integers():
    p = 7
    table = _TABLES[p].copy()
    table[2, 3, 4] = table[2, 3, 5] = np.iinfo(np.int32).min
    # B = 2^32 * 2^31: int64 partial sums could wrap
    assert contraction_dtype(table) is object
    witness = associativity_witness(table, object)
    assert witness is not None
    assert witness == einsum_witness(table, object)
