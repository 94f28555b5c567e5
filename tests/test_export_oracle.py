"""The block-formatted tensor export against the per-row serialiser.

``cmd_constants`` formats each i-block of the export with a few
``str.join`` calls over tail strings it gathers from one table, formatted
once per export, of every (value, denominator) tail a block can hold.
The oracle here is the per-row path it replaced: one tuple per row,
written by ``csv.writer`` through ``cli.fmt`` for CSV and by
``_JSON_ROW % row`` for JSON. Both outputs must match byte for byte. The
table holds the values 0, 1 and 2, so the tests also check that every
block of the tensor holds only those, (p + 1) times 0 or 1 on its
identity rows.
"""

import contextlib
import csv
import io
import os

import numpy as np
import pytest

from circlewalk.circles import StructureTensor
from circlewalk.cli import fmt, main
from circlewalk.modular import make_modulus, primes_3_mod_4
from conftest import serving

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


# the export gathers every row from the tails of these values
IDENTITY_VALUES, BODY_VALUES = {0, 1}, {0, 1, 2}


@pytest.mark.parametrize("p", primes_3_mod_4(3, 1019))
def test_n1_holds_an_identity_row_and_values_up_to_2(p):
    n1 = StructureTensor(make_modulus(p)).n1
    assert np.array_equal(n1[0], (p + 1) * (np.arange(p) == 1))
    assert set(np.unique(n1[1:]).tolist()) <= BODY_VALUES


@pytest.mark.parametrize("p", primes_3_mod_4(3, 43))
def test_every_block_holds_the_values_the_export_formats(p):
    tensor = StructureTensor(make_modulus(p))
    for i in range(p):
        block = tensor.numerators(i)
        ones = p if i == 0 else 1  # rows j < ones are identity rows
        identity = set(np.unique(block[:ones]).tolist())
        assert identity <= {v * (p + 1) for v in IDENTITY_VALUES}, i
        assert set(np.unique(block[ones:]).tolist()) <= BODY_VALUES, i


@pytest.mark.parametrize("i, j, k, value", [
    (2, 3, 4, -1),  # a body entry below 0 would index the cells from the end
    (2, 0, 4, 3),  # identity-row entries other than 0 and p + 1 would
    (2, 0, 2, 3),  # print as numerator // (p + 1), here 0
    (0, 3, 3, 5),  # block 0 is all identity rows: its 1 would print as 0
    (2, 3, 4, 3),  # a body entry past 2 has no cell at all
])
def test_a_value_with_no_export_cell_exits_4(capsys, i, j, k, value):
    p = 7
    table = StructureTensor(make_modulus(p)).scaled_table().copy()
    table[i, j, k] = value
    with serving(table):
        code = main(["constants", "--p", str(p)])
    out, err = capsys.readouterr()
    assert (code, err) == (
        4, f"internal error: block i={i} holds a numerator with no export cell\n")
    # the blocks before i are written; no row of block i is
    assert not [row for row in out.splitlines() if row.startswith(f"{i},")]


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_failed_export_leaves_no_partial_file(capsys, tmp_path, existing, fmt_name):
    # block 2 is refused after blocks 0 and 1 are written: the file that
    # held them is removed, and a file that was there keeps its content
    p = 7
    table = StructureTensor(make_modulus(p)).scaled_table().copy()
    table[2, 3, 4] = -1
    target = tmp_path / "tensor.out"
    if existing:
        target.write_text("an earlier export\n")
    with serving(table):
        code = main(["constants", "--p", str(p), "--format", fmt_name,
                     "--output", str(target)])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == "internal error: block i=2 holds a numerator with no export cell\n"
    assert sorted(tmp_path.iterdir()) == ([target] if existing else [])
    if existing:
        assert target.read_text() == "an earlier export\n"


def test_an_export_replaces_a_file_whole(capsys, tmp_path):
    # a new file is made as open(path, "w") makes one, an existing file
    # keeps its permission bits, and a symbolic link keeps its target
    umask = os.umask(0o022)
    try:
        fresh, kept, linked = (tmp_path / name for name in ("fresh", "kept", "link"))
        kept.write_text("old\n")
        kept.chmod(0o600)
        linked.symlink_to(kept)
        for target in (fresh, kept, linked):
            assert main(["constants", "--p", "7", "--output", str(target)]) == 0
    finally:
        os.umask(umask)
    assert capsys.readouterr() == ("", "")
    assert fresh.read_text() == kept.read_text() == oracle_csv(StructureTensor(make_modulus(7)))
    assert (fresh.stat().st_mode & 0o777, kept.stat().st_mode & 0o777) == (0o644, 0o600)
    assert linked.is_symlink() and linked.resolve() == kept.resolve()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fresh", "kept", "link"]
