"""Every line of the package's source fits in 99 columns."""

from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circlewalk"
LIMIT = 99


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_source_lines_fit_99_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, 1) if len(line) > LIMIT]
    assert not long, f"{path.name}: lines {long} exceed {LIMIT} columns"
