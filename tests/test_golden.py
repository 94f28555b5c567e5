"""Pinned sha256 digests of the CLI's stdout.

Every subcommand at p = 7 in both formats, the tensor export and the
bounds at p = 103 in both formats, a seeded ``simulate`` and a small
serial ``scan``: any byte that changes in a table fails here. The
bytes are identical across reruns, and across ``--jobs``, in one
environment. The floats come from the eigenvalues of LAPACK's dsytrd
and dstedc, which are ``eigh``'s bit for bit, and from matrix products,
so they can move in their last digits with the BLAS library and with
its thread count: ``scan --p-min 7 --p-max 499`` at two OpenBLAS
threads instead of one differs from p = 211 up. The reference digests
of ``perfbench/reference.json`` hold BLAS at one thread.
"""

import hashlib

import pytest

from circlewalk.cli import main

SIMULATE = ("simulate", "--p", "7", "--seed", "3", "--trials", "2000",
            "--steps", "6")

GOLDEN = {
    ("constants", "--p", "7", "--format", "csv"):
        "d618d04a27a36ea2cad0c0f2440823f7f58f15c759bc448b6dd57f58821dd77c",
    ("constants", "--p", "7", "--format", "json"):
        "9bde898c6c7b189feec6f1bc1f32d833ee3ef4af689866f755c528be6de739aa",
    # the benchmark's export workload, and its JSON form
    ("constants", "--p", "103", "--format", "csv"):
        "2db58e83d30155a63c77f2664fd197ee04901e31adbf73619c06d591f3028adb",
    ("constants", "--p", "103", "--format", "json"):
        "f4646ab5b345617485e2a3e36d970eef5c0ae13b091c718d8356f0befd71db7b",
    ("axioms", "--p", "7", "--format", "csv"):
        "e58ce398b01b5f552dcf3f4190e6b53503afe7918b26edf064498f4f46fb2760",
    ("axioms", "--p", "7", "--format", "json"):
        "c0ec1bf1b521aaf6696f36d0736699c3576379a648334094da61bddd7b5af8b3",
    ("stationary", "--p", "7", "--format", "csv"):
        "8646fcf0d3daa011e1c13b83e963b5d0f9840ae063bc7a4d629818cfb2e3dfe3",
    ("stationary", "--p", "7", "--format", "json"):
        "8ecc1e0f036ca59b03648ef459c76c82b229c6c18428b1f16967c058ed4bda7d",
    ("mix", "--p", "7", "--format", "csv"):
        "b102540cf8573ceb4c85b8d1b7491a1b49416ab156a6746e6fdee1dc924b4735",
    ("mix", "--p", "7", "--format", "json"):
        "1ba922a314cdf65110eeec9f97b904e09c213d51b46d1301b903d3d33a8a2cde",
    ("spectrum", "--p", "7", "--format", "csv"):
        "75e873f63a4abcf77a236f3aa4002c90533309046dcc3330da264d880968e2e6",
    ("spectrum", "--p", "7", "--format", "json"):
        "0fbd1ba48b2b657b9106f88c9a11431749134dfce772a41f108538a036355c31",
    ("bounds", "--p", "7", "--format", "csv"):
        "5f236ca54d04fb47ae8c3ba0052c9d9ebe0d7a7c53311c624eb9f5c5b7a8c811",
    ("bounds", "--p", "7", "--format", "json"):
        "d1cca6df60b8d4c881e9407f08350bb7dc49ba2c49b2e144f95a56e53524f214",
    # the path and cycle bounds past the p = 7 hand scale
    ("bounds", "--p", "103", "--format", "csv"):
        "0b8e9ebf47c10fe905b4eae827cc50a82fcffbd3612aad5a87e4fb3642094911",
    ("bounds", "--p", "103", "--format", "json"):
        "cbed1875c447a18fa9f32a8eef4eb312120395855bb482b271ed4828db22449e",
    (*SIMULATE, "--format", "csv"):
        "eaca2e65508f6e063da4171b23c38c4d5badf907f24bfffdab9d2a7696d7b19d",
    (*SIMULATE, "--format", "json"):
        "65c4fbb4ec4eca22b08fb338bd0d43646f3867436cc3acb808a2a33766dd42a9",
    ("scan", "--p-min", "7", "--p-max", "19", "--jobs", "1"):
        "01672fcd0f900e97cc6f9bb7370eeda8fa2d45c19bde3c48c63c468a23f084a2",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_digest(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]
