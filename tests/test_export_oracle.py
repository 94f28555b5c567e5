"""The block-formatted tensor export against the per-row serialiser.

``cmd_constants`` formats each i-block of the export with a few
``str.join`` calls over precomputed tail strings. The oracle here is the
per-row path it replaced: one tuple per row, written by ``csv.writer``
through ``cli.fmt`` for CSV and by ``_JSON_ROW % row`` for JSON. Both
outputs must match byte for byte, on the real tensor and on tensors whose
numerators were overwritten with arbitrary integers. The export sorts a
block (``np.unique``) only when its values span p or more integers, which
no real block does, so the fixed extreme cases also count the sorts.
"""

import contextlib
import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewalk.circles import StructureTensor
from circlewalk.cli import fmt, main
from circlewalk.modular import make_modulus

# one exported row as json.dumps(..., indent=2) lays it out inside "rows"
_JSON_ROW = "    [\n" + ",\n".join(["      %d"] * 5) + "\n    ]"


def constant_rows(tensor, i):
    """Export rows (i, j, k, numerator, denominator) of the i-block: over
    p + 1, or over 1 on the identity rows (a zero index)."""
    p = tensor.p
    for j, row in enumerate(tensor.numerators(i).tolist()):
        if i == 0 or j == 0:
            for k, n in enumerate(row):
                yield i, j, k, n // (p + 1), 1
        else:
            for k, n in enumerate(row):
                yield i, j, k, n, p + 1


def oracle_csv(tensor):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "j", "k", "numerator", "denominator"])
    for i in range(tensor.p):
        for row in constant_rows(tensor, i):
            writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def oracle_json(tensor):
    blocks = (",\n".join(_JSON_ROW % row for row in constant_rows(tensor, i))
              for i in range(tensor.p))
    return (f'{{\n  "p": {tensor.p},\n  "rows": [\n'
            + ",\n".join(blocks) + "\n  ]\n}\n")


ORACLES = {"csv": oracle_csv, "json": oracle_json}


def export(p, fmt_name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["constants", "--p", str(p), "--format", fmt_name])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt_name", sorted(ORACLES))
@pytest.mark.parametrize("p", [7, 11, 19, 23, 43])
def test_export_matches_the_per_row_oracle(p, fmt_name):
    tensor = StructureTensor(make_modulus(p))
    assert export(p, fmt_name) == ORACLES[fmt_name](tensor)


@st.composite
def tampered_cells(draw):
    """A prime and {(i, j, k): value}, with at least one identity-row cell
    (i = 0 or j = 0) and one body cell, and values of any int64 sign and
    size."""
    p = draw(st.sampled_from([7, 11]))
    index = st.integers(0, p - 1)
    nonzero = st.integers(1, p - 1)
    identity = st.tuples(st.just(0), index, index) | st.tuples(index, st.just(0), index)
    body = st.tuples(nonzero, nonzero, index)
    value = st.sampled_from([0, 1, 2, -1, -2, p, p + 1, -(p + 1), 2 * p + 3,
                             2**31, 2**31 + 1, -(2**31) - 1, 2**63 - 1, -(2**63)])
    value |= st.integers(-(2**63), 2**63 - 1)
    cells = (draw(st.lists(identity, min_size=1, max_size=4))
             + draw(st.lists(body, min_size=1, max_size=8)))
    return p, {cell: draw(value) for cell in cells}


def assert_tampered_export_is_the_oracle(p, cells, fmt_name):
    """Overwrite the numerators at ``cells`` ({(i, j, k): value}) and
    compare the export with the oracle on the same tampered tensor."""
    original = StructureTensor.numerators

    def tampered(self, i):
        # the blocks are in N_1's narrow dtype; the cells take int64 values
        block = original(self, i).astype(np.int64)
        for (ci, j, k), v in cells.items():
            if ci == i:
                block[j, k] = v
        return block

    with mock.patch.object(StructureTensor, "numerators", tampered):
        expected = ORACLES[fmt_name](StructureTensor(make_modulus(p)))
        assert export(p, fmt_name) == expected


@settings(max_examples=60, deadline=None)
@given(case=tampered_cells(), fmt_name=st.sampled_from(sorted(ORACLES)))
def test_tampered_numerators_print_like_the_oracle(case, fmt_name):
    assert_tampered_export_is_the_oracle(*case, fmt_name)


# the real values of p = 7 lie in 0..8, and in 0..2 off the identity
# rows; each case names its cells and how many blocks the export sorts
EXTREME_CASES = {
    # the span 2^64 - 1 of one body block overflows int64
    "int64_ends_in_one_block": ({(3, 2, 1): -(2**63), (3, 5, 6): 2**63 - 1}, 1),
    "identity_row_ends": ({(4, 0, 2): 7 + 1, (4, 0, 5): 2**63 - 1}, 1),
    "span_of_p": ({(2, 1, 0): -1, (2, 6, 6): 7 - 1}, 1),
    "span_of_p_minus_1": ({(5, 1, 0): -1, (5, 6, 6): 7 - 2}, 0),
}


@pytest.mark.parametrize("fmt_name", sorted(ORACLES))
@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_extreme_numerators_print_like_the_oracle(case, fmt_name):
    cells, sorts = EXTREME_CASES[case]
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        assert_tampered_export_is_the_oracle(7, cells, fmt_name)
    assert unique.call_count == sorts


@pytest.mark.parametrize("fmt_name", sorted(ORACLES))
def test_no_real_block_is_sorted(fmt_name):
    expected = ORACLES[fmt_name](StructureTensor(make_modulus(19)))
    with mock.patch.object(np, "unique", side_effect=AssertionError("sorted")):
        assert export(19, fmt_name) == expected
