"""The benchmark's workloads still print the bytes it was recorded with.

``perfbench/reference.json`` holds the exit code and stdout sha256 of
each workload in ``workloads``; it is only read here. Each workload runs
as the console script runs, in a fresh interpreter on the checkout's
``src``, with BLAS held at one thread as the benchmark holds it: the
``eigh`` floats in ``scan`` can move with the BLAS thread count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads(
    (ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
ENTRY = "import sys; from circlewalk.cli import main; sys.exit(main())"


@pytest.mark.parametrize("name", sorted(REFERENCE["workloads"]))
def test_workload_matches_its_reference_digest(name):
    ref = REFERENCE["workloads"][name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", ENTRY, *ref["argv"]],
                          capture_output=True, env=env, cwd=ROOT)
    assert proc.returncode == ref["exit"], proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == ref["sha256"], name
