import contextlib
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewalk.circles import (
    AxiomCheck,
    AxiomReport,
    StructureTensor,
    structure_constant_bruteforce,
)
from circlewalk.bounds import bound_report
from circlewalk.cli import _scan_row, main
from circlewalk.modular import make_modulus, primes_3_mod_4
from circlewalk.walk import DEFAULT_EPSILON


# the command line in a child process, importing this checkout's package
SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI = [sys.executable, "-m", "circlewalk.cli"]
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_constants_p7(capsys):
    code, out, _ = run(capsys, "constants", "--p", "7")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["i", "j", "k", "numerator", "denominator"]
    assert len(rows) == 343
    assert all(row[4] in {"1", "8"} for row in rows)
    by_key = {(r[0], r[1], r[2]): (r[3], r[4]) for r in rows}
    assert by_key[("1", "1", "0")] == ("1", "8")
    assert by_key[("0", "5", "5")] == ("1", "1")


def test_constants_rows_match_bruteforce(capsys):
    p = 11
    m = make_modulus(p)
    _, out, _ = run(capsys, "constants", "--p", "11")
    _, csv_rows = parse_csv(out)
    _, js, _ = run(capsys, "constants", "--p", "11", "--format", "json")
    rows = json.loads(js)["rows"]
    assert [[int(v) for v in r] for r in csv_rows] == rows
    assert [r[:3] for r in rows] == [
        [i, j, k] for i in range(p) for j in range(p) for k in range(p)
    ]
    for i, j, k, num, den in rows:
        assert den == (1 if i == 0 or j == 0 else p + 1)
        assert Fraction(num, den) == structure_constant_bruteforce(m, i, j, k)


@pytest.mark.parametrize("argv, message", [
    (["constants", "--p", "523"], "p=523 exceeds the export gate 512; use --force"),
    (["axioms", "--p", "523"], "p=523 exceeds the dense-table limit 512"),
    (["constants", "--p", "100000007"],
     "p=100000007 exceeds the export gate 512; use --force"),
    (["axioms", "--p", "100000007"],
     "p=100000007 exceeds the dense-table limit 512"),
])
def test_size_gates_fire_before_any_work(capsys, monkeypatch, argv, message):
    import circlewalk.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work started past the gate")

    # work past the gate would end in exit 4, not the usage exit 1
    monkeypatch.setattr(cli_mod.circles_mod, "StructureTensor", no_work)
    # the modulus is validated by trial division alone, so no O(p) work,
    # such as a 100 MB table of squares at p = 100000007, precedes a gate
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (1, "", message + "\n")
    assert peak < 2**20


def test_the_export_gate_is_its_own_constant(capsys, monkeypatch):
    # the export streams its blocks, so its gate is not the axiom cap
    import circlewalk.cli as cli_mod

    monkeypatch.setattr(cli_mod, "EXPORT_GATE", 7)
    assert run(capsys, "constants", "--p", "11") == (
        1, "", "p=11 exceeds the export gate 7; use --force\n")
    assert run(capsys, "axioms", "--p", "11")[0] == 0


def test_constants_force_passes_the_export_gate(capsys, monkeypatch):
    import circlewalk.cli as cli_mod

    seen = []

    def stop(modulus):
        seen.append(modulus.p)
        raise RuntimeError("stop after the gate")

    monkeypatch.setattr(cli_mod.circles_mod, "StructureTensor", stop)
    code, out, err = run(capsys, "constants", "--p", "523", "--force")
    assert (code, out, seen) == (4, "", [523])
    assert err == "internal error: stop after the gate\n"


@pytest.mark.parametrize("command, key", [("mix", "tau"),
                                          ("bounds", "tau_measured")])
def test_tau_is_measured_past_499(capsys, command, key):
    code, out, _ = run(capsys, command, "--p", "503", "--format", "json")
    obj = json.loads(out)
    assert (code, obj["p"], obj[key]) == (0, 503, 3)


def test_scan_measures_past_499(capsys):
    code, out, err = run(capsys, "scan", "--p-min", "499", "--p-max", "523",
                         "--jobs", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert [(r[0], r[1]) for r in rows] == [("499", "3"), ("503", "3"),
                                            ("523", "3")]
    assert err == f"max tau_over_p = {3 / 499:.17g}\n"


@pytest.mark.parametrize("p", [7, 11])
def test_constants_json_streams_the_json_dumps_text(capsys, p):
    tensor = StructureTensor(make_modulus(p))
    rows = []
    for i in range(p):
        for j, block_row in enumerate(tensor.numerators(i).tolist()):
            for k, n in enumerate(block_row):
                identity = i == 0 or j == 0
                rows.append([i, j, k, n // (p + 1) if identity else n,
                             1 if identity else p + 1])
    code, out, _ = run(capsys, "constants", "--p", str(p), "--format", "json")
    assert code == 0
    assert out == json.dumps({"p": p, "rows": rows}, indent=2) + "\n"


def test_axioms_past_199_reaches_the_check(capsys, monkeypatch):
    import circlewalk.cli as cli_mod

    names = ["positivity", "normalization", "commutativity",
             "hermitian_support", "associativity"]
    canned = AxiomReport(*(AxiomCheck(n) for n in names))
    seen = []

    def fake_validate(tensor):
        seen.append(tensor.p)
        return canned

    monkeypatch.setattr(cli_mod.circles_mod, "validate_axioms", fake_validate)
    code, out, _ = run(capsys, "axioms", "--p", "211", "--format", "json")
    assert (code, seen) == (0, [211])
    assert json.loads(out) == {
        "p": 211,
        "all_passed": True,
        "axioms": {n: {"passed": True, "witness": None} for n in names},
    }


def test_constants_invalid_modulus_exit_2(capsys):
    code, _, err = run(capsys, "constants", "--p", "13")
    assert code == 2
    assert "invalid modulus" in err


def test_constants_not_prime_exit_2(capsys):
    code, _, _ = run(capsys, "constants", "--p", "15")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["stationary", "--p", "7", "--force"],
    ["spectrum", "--p", "7", "--force"],
    ["simulate", "--p", "7", "--force"],
    ["scan", "--p-min", "7", "--p-max", "7", "--force"],
    ["scan", "--p-min", "7", "--p-max", "7", "--format", "json"],
    ["axioms", "--p", "7", "--force"],
    ["mix", "--p", "7", "--force"],
    ["bounds", "--p", "7", "--force"],
])
def test_unread_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--p", "7", "--trials", "0"],
     "argument --trials: must be at least 1, got 0"),
    (["simulate", "--p", "7", "--steps", "-1"],
     "argument --steps: must be at least 0, got -1"),
    (["simulate", "--p", "7", "--steps", "x"],
     "argument --steps: invalid count value: 'x'"),
])
def test_bad_simulate_counts_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith("usage: circlewalk simulate")
    assert err.endswith(f"circlewalk simulate: error: {message}\n")


def test_unwritable_output_exit_1(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "constants", "--p", "7", "--output", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("cannot write output: ") and str(target) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_exit_1(capsys):
    code, out, err = run(capsys, "constants", "--p", "7", "--output", "/dev/full")
    assert (code, out) == (1, "")
    assert err == "cannot write output: [Errno 28] No space left on device\n"
    # stdout on the full device, which only the final flush reports
    with open("/dev/full", "w") as full:
        proc = subprocess.run(CLI + ["stationary", "--p", "7"], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=CLI_ENV,
                              timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "cannot write output: [Errno 28] No space left on device\n"


def test_closed_stdout_pipe_exit_1():
    # the reader takes one line and leaves, as `| head -1` does; the export
    # is megabytes, so the writer is still writing when the pipe closes
    with subprocess.Popen(CLI + ["constants", "--p", "103"], env=CLI_ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"i,j,k,numerator,denominator\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert err == "cannot write output: [Errno 32] Broken pipe\n"


def test_a_killed_export_leaves_the_file_as_it_was(tmp_path):
    # the child sends itself SIGTERM once the first block is written: the
    # export unwinds, removes the new file and dies by the signal, and
    # FILE keeps its content
    target = tmp_path / "tensor.csv"
    target.write_text("an earlier export\n")
    child = (
        "import os, signal, sys\n"
        "import circlewalk.cli as cli\n"
        "chunks = cli._export_chunks\n"
        "def killed(*args):\n"
        "    for n, chunk in enumerate(chunks(*args)):\n"
        "        if n:\n"
        "            os.kill(os.getpid(), signal.SIGTERM)\n"
        "        yield chunk\n"
        "cli._export_chunks = killed\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    with subprocess.Popen([sys.executable, "-c", child, "constants", "--p", "7",
                           "--output", str(target)], env=CLI_ENV) as proc:
        assert proc.wait(timeout=60) == -signal.SIGTERM
    assert target.read_text() == "an earlier export\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["tensor.csv"]


def test_the_export_leaves_a_sigterm_handler_as_it_was(tmp_path, capsys):
    # the unwinding handler is set only while a file is written, and only
    # over the default action: a handler of the caller's stays in place
    target = tmp_path / "tensor.csv"
    assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    assert run(capsys, "constants", "--p", "7", "--output", str(target))[0] == 0
    assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def own(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, own)
    try:
        assert run(capsys, "constants", "--p", "7", "--output", str(target))[0] == 0
        assert signal.getsignal(signal.SIGTERM) is own
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert len(parse_csv(target.read_text())[1]) == 343
    # a thread other than the main one may set no handler, and needs none
    target.unlink()
    codes = []
    worker = threading.Thread(target=lambda: codes.append(
        main(["constants", "--p", "7", "--output", str(target)])))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and codes == [0]
    assert len(parse_csv(target.read_text())[1]) == 343


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["constants"])  # missing --p
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_mix_json_report(capsys):
    code, out, _ = run(capsys, "mix", "--p", "7", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] == 7
    assert obj["tau"] <= 92
    assert len(obj["tv_curve"]) == obj["tau"] + 1


def test_mix_curve_csv(capsys):
    code, out, _ = run(capsys, "mix", "--p", "7")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "worst_tv"]
    tvs = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))
    obj_tau = len(rows) - 1
    assert tvs[-1] <= 1 / (2 * math.e)
    assert obj_tau >= 1


def test_mix_formats_agree(capsys):
    _, js, _ = run(capsys, "mix", "--p", "11", "--format", "json")
    _, cs, _ = run(capsys, "mix", "--p", "11")
    tau = json.loads(js)["tau"]
    _, rows = parse_csv(cs)
    assert len(rows) == tau + 1


def test_mix_eps_one(capsys):
    # TV against pi is always below 1, so eps = 1 is vacuous and rejected
    with pytest.raises(SystemExit) as exc:
        main(["mix", "--p", "7", "--eps", "1", "--format", "json"])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (1, "")
    assert out.err.endswith(
        "circlewalk mix: error: argument --eps: must be in (0, 1), got 1\n")


@pytest.mark.parametrize("command", [
    ["bounds", "--p", "499"],
    ["scan", "--p-min", "7", "--p-max", "499", "--jobs", "1"],
])
@pytest.mark.parametrize("eps", ["0", "1", "1.5", "-0.5", "nan", "inf", "x"])
def test_eps_outside_the_open_unit_interval_is_a_usage_error(
        capsys, monkeypatch, command, eps):
    import circlewalk.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before --eps was checked")

    # bounds runs bound_report; scan at --jobs 1 runs _scan_row in-process
    monkeypatch.setattr(cli_mod.bounds_mod, "bound_report", no_work)
    monkeypatch.setattr(cli_mod, "_scan_row", no_work)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--eps", eps])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith(f"usage: circlewalk {command[0]}")
    assert err.endswith(f"argument --eps: must be in (0, 1), got {eps}\n")


def test_mix_below_the_tv_floor_exit_3(capsys):
    # no float TV reaches 1e-300: mix stops when the TV stops falling
    code, out, err = run(capsys, "mix", "--p", "103", "--eps", "1e-300")
    assert code == 3
    assert out == ""
    assert "not mixed" in err


@pytest.mark.parametrize("command", [
    ["bounds", "--p", "103"],
    ["scan", "--p-min", "7", "--p-max", "11", "--jobs", "1"],
])
def test_below_the_tv_floor_exits_before_the_coupling_bound(
        capsys, monkeypatch, command):
    # tau is measured first, so its NotMixed comes before the exact
    # contraction powers, whose size grows with ln(1/eps)
    import circlewalk.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("the coupling bound ran before tau")

    monkeypatch.setattr(cli_mod.bounds_mod, "coupling_bound", no_work)
    code, out, err = run(capsys, *command, "--eps", "1e-300")
    assert (code, out) == (3, "")
    assert err.startswith("not mixed: worst TV stopped falling")


def test_parallel_scan_not_mixed_exit_3(capsys):
    # a worker's NotMixed crosses the pool intact: same exit and message
    # as the in-process scan
    argv = ["scan", "--p-min", "7", "--p-max", "19", "--eps", "1e-300"]
    serial = run(capsys, *argv, "--jobs", "1")
    parallel = run(capsys, *argv, "--jobs", "2")
    assert serial[0] == 3 and serial[1] == ""
    assert parallel == serial


def test_axioms_csv(capsys):
    code, out, _ = run(capsys, "axioms", "--p", "7")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["axiom", "passed", "witness"]
    assert [r[0] for r in rows] == [
        "positivity", "normalization", "commutativity",
        "hermitian_support", "associativity",
    ]
    assert all(r[1] == "true" for r in rows)


def test_stationary_exact_rows(capsys):
    code, out, _ = run(capsys, "stationary", "--p", "7")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0] == ["0", "1", "49"]
    assert rows[1] == ["1", "8", "49"]
    assert len(rows) == 7


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--p", "7", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["eigenvalues"][0] == pytest.approx(1.0, abs=1e-9)
    assert obj["alpha_star"] == pytest.approx(
        max(obj["eigenvalues"][1], abs(obj["eigenvalues"][-1]))
    )


def test_bounds_json_keys(capsys):
    code, out, _ = run(capsys, "bounds", "--p", "7", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj.keys()) == [
        "p", "lambda1", "lambda_min", "alpha_star", "comparison_A", "v",
        "alpha1_upper_closed", "alpha_min_lower_closed", "coupling_n",
        "coupling_tau", "tau_measured",
    ]
    assert obj["coupling_n"] == 23 and obj["coupling_tau"] == 92
    assert obj["tau_measured"] <= obj["coupling_tau"]
    # the exact constants 80/7 and 32, each rounded once
    assert '"comparison_A": 11.428571428571429,' in out and '"v": 32.0,' in out
    assert obj["comparison_A"] == 80 / 7


def test_simulate_csv_schema(capsys):
    code, out, _ = run(
        capsys, "simulate", "--p", "7", "--trials", "1000", "--steps", "5",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["k", "count", "frequency"]
    assert len(rows) == 7
    assert sum(int(r[1]) for r in rows) == 1000


def test_scan_range(capsys):
    code, out, err = run(
        capsys, "scan", "--p-min", "7", "--p-max", "23", "--jobs", "1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "p", "tau_measured", "coupling_tau", "gap", "alpha_star",
        "tau_over_p", "tau_over_log_p",
    ]
    assert [r[0] for r in rows] == ["7", "11", "19", "23"]
    for r in rows:
        assert int(r[1]) <= int(r[2])
    assert "max tau_over_p" in err


def test_scan_empty_range(capsys):
    assert run(capsys, "scan", "--p-min", "24", "--p-max", "30") == (
        1, "", "empty range: no prime = 3 (mod 4) in [24, 30]\n")
    assert run(capsys, "scan", "--p-min", "30", "--p-max", "24") == (
        1, "", "empty range: p-min exceeds p-max\n")


def test_reruns_byte_identical(capsys):
    _, first, _ = run(capsys, "scan", "--p-min", "7", "--p-max", "19", "--jobs", "1")
    _, second, _ = run(capsys, "scan", "--p-min", "7", "--p-max", "19", "--jobs", "1")
    assert first == second
    _, sim1, _ = run(capsys, "simulate", "--p", "7", "--trials", "500",
                     "--steps", "9", "--seed", "5")
    _, sim2, _ = run(capsys, "simulate", "--p", "7", "--trials", "500",
                     "--steps", "9", "--seed", "5")
    assert sim1 == sim2


def test_internal_error_exit_4(capsys, monkeypatch):
    import circlewalk.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(cli_mod.bounds_mod, "bound_report", boom)
    code, _, err = run(capsys, "bounds", "--p", "7")
    assert code == 4
    assert "internal error" in err


def test_scan_internal_error_exit_4(capsys, monkeypatch):
    import circlewalk.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(cli_mod.bounds_mod, "spectrum", boom)
    code, out, err = run(capsys, "scan", "--p-min", "7", "--p-max", "11",
                         "--jobs", "1")
    assert (code, out) == (4, "")
    assert "internal error" in err


def test_out_of_memory_exit_1(capsys, monkeypatch):
    import circlewalk.cli as cli_mod

    def boom(*args, **kwargs):
        raise MemoryError("forced failure")

    monkeypatch.setattr(cli_mod.walk_mod, "mixing_time", boom)
    assert run(capsys, "mix", "--p", "7") == (
        1, "", "out of memory: forced failure\n")


def test_scan_out_of_memory_exit_1(capsys, monkeypatch):
    import circlewalk.cli as cli_mod

    def boom(*args, **kwargs):
        raise MemoryError("forced failure")

    monkeypatch.setattr(cli_mod.bounds_mod, "spectrum", boom)
    assert run(capsys, "scan", "--p-min", "7", "--p-max", "11", "--jobs", "1") == (
        1, "", "out of memory: forced failure\n")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps memory on Linux")
def test_a_kernel_past_the_address_space_exits_1():
    # the 100003 x 100003 int32 gather index is 37.3 GiB, far past a 3 GiB cap
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

    proc = subprocess.run(CLI + ["spectrum", "--p", "100003"], preexec_fn=cap,
                          env={**CLI_ENV, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("out of memory: Unable to allocate")


@pytest.mark.parametrize("p, eps", [
    *((p, DEFAULT_EPSILON) for p in primes_3_mod_4(7, 199)),
    (499, DEFAULT_EPSILON),
    (7, 0.05), (11, 0.05), (103, 0.05),
])
def test_scan_row_equals_the_bound_report_row(p, eps):
    # the full bound_report is the oracle for scan's lean pipeline
    report = bound_report(make_modulus(p), eps)
    tau = report.tau_measured
    expected = [p, tau, report.coupling_tau, 1.0 - report.lambda1,
                report.alpha_star, tau / p, tau / math.log(p)]
    assert _scan_row((p, eps)) == expected  # exact floats, no tolerance


def test_scan_parallel_matches_serial(capsys):
    _, serial, _ = run(capsys, "scan", "--p-min", "7", "--p-max", "23", "--jobs", "1")
    _, parallel, _ = run(capsys, "scan", "--p-min", "7", "--p-max", "23", "--jobs", "2")
    assert serial == parallel


def test_scan_coupling_tau_scales_linearly(capsys):
    _, out, _ = run(capsys, "scan", "--p-min", "7", "--p-max", "31", "--jobs", "1")
    _, rows = parse_csv(out)
    for r in rows:
        p, coupling_tau = int(r[0]), int(r[2])
        if p >= 23:
            assert 4 <= coupling_tau / p <= 10


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap scan's pool for one that records its ``max_workers`` and maps
    in this process, so no worker is started; ``cores`` sets the usable
    core count that scan reads."""
    import circlewalk.cli as cli_mod

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def cores(n):
        monkeypatch.setattr(cli_mod.os, "sched_getaffinity",
                            lambda pid: set(range(n)))

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", InProcessPool)
    return sizes, cores


def test_scan_pool_no_larger_than_task_list(capsys, pool_sizes):
    sizes, cores = pool_sizes
    cores(64)
    _, serial, _ = run(capsys, "scan", "--p-min", "7", "--p-max", "11", "--jobs", "1")
    code, out, _ = run(capsys, "scan", "--p-min", "7", "--p-max", "11",
                       "--jobs", "5000")
    assert (code, out) == (0, serial)
    assert sizes == [2]  # two primes, 7 and 11


def test_scan_pool_no_larger_than_the_usable_cores(capsys, pool_sizes):
    # 12 primes = 3 (mod 4) in 7..100, but only 3 usable cores
    sizes, cores = pool_sizes
    cores(3)
    _, serial, _ = run(capsys, "scan", "--p-min", "7", "--p-max", "100",
                       "--jobs", "1")
    code, out, _ = run(capsys, "scan", "--p-min", "7", "--p-max", "100",
                       "--jobs", "1000")
    assert (code, out) == (0, serial)
    assert sizes == [3]
    # one usable core runs serially, whatever --jobs asks
    cores(1)
    assert run(capsys, "scan", "--p-min", "7", "--p-max", "100",
               "--jobs", "1000")[:2] == (0, serial)
    assert sizes == [3]


def test_scan_jobs_defaults_to_the_usable_cores(monkeypatch):
    import circlewalk.cli as cli_mod

    monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: {0, 5, 9})
    args = cli_mod.build_parser().parse_args(["scan", "--p-min", "7",
                                              "--p-max", "11"])
    assert args.jobs == 3


def test_scan_jobs_defaults_to_every_cpu_without_the_affinity(
        capsys, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    import circlewalk.cli as cli_mod

    monkeypatch.delattr(cli_mod.os, "sched_getaffinity")
    args = cli_mod.build_parser().parse_args(["scan", "--p-min", "7",
                                              "--p-max", "11"])
    assert args.jobs == (os.cpu_count() or 1)
    assert run(capsys, "scan", "--p-min", "7", "--p-max", "11",
               "--jobs", "1")[0] == 0


def test_scan_locates_lapack_before_it_forks(capsys, monkeypatch):
    # bounds locates the route when it is imported, so the workers
    # inherit it rather than each locating it in the middle of its first
    # task
    import circlewalk.cli as cli_mod

    located = []

    class RecordingPool:
        def __init__(self, max_workers):
            # bounds is lazy: whether it has run is read off its type,
            # since an attribute read would run it
            bounds = sys.modules["circlewalk.bounds"]
            located.append(type(bounds) is types.ModuleType)
            located.append(cli_mod.bounds_mod._LAPACK)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    assert run(capsys, "scan", "--p-min", "7", "--p-max", "11", "--jobs", "2")[0] == 0
    assert located == [True, cli_mod.bounds_mod._LAPACK]


def test_start_up_leaves_the_process_pool_unimported():
    # a fresh interpreter: ``pool_sizes`` leaves the pool a real global here
    probe = (
        "import sys\n"
        "import circlewalk.cli as cli\n"
        "cli.build_parser()\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
        " & set(sys.modules)))\n"
        "import concurrent.futures\n"
        "print(cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=CLI_ENV,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\nTrue\n"


def test_constants_and_axioms_load_neither_walk_nor_bounds():
    # a fresh interpreter: the tests here have loaded every module
    probe = (
        "import contextlib, io, sys, types\n"
        "import circlewalk.cli as cli\n"
        "cli.build_parser()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['constants', '--p', '7']),\n"
        "             cli.main(['axioms', '--p', '7'])]\n"
        "print(codes)\n"
        "print(sorted({'fractions', 'decimal', 'csv', 'multiprocessing'}"
        " & set(sys.modules)))\n"
        # an attribute read would load a lazy module, its type does not
        "print([type(sys.modules[name]) is not types.ModuleType\n"
        "       for name in ('circlewalk.bounds', 'circlewalk.walk')])\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=CLI_ENV,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[0, 0]\n[]\n[True, True]\n"


def test_csv_output_needs_no_quoting(capsys, monkeypatch):
    # ``_csv_text`` joins fields by commas, which is csv.writer's text
    # only while no field needs quoting: every CSV command's output, and
    # an axiom report with witnesses, reads back, field by field, as
    # csv.writer would write it
    import circlewalk.cli as cli_mod

    failed = AxiomReport(*(AxiomCheck(f.name, (1, 2, 0, 6)[:n + 1])
                           for n, f in enumerate(dataclasses.fields(AxiomReport))))
    commands = [
        ["stationary", "--p", "7"], ["mix", "--p", "7"],
        ["spectrum", "--p", "7"], ["bounds", "--p", "7"],
        ["simulate", "--p", "7", "--trials", "10"], ["axioms", "--p", "7"],
        ["scan", "--p-min", "7", "--p-max", "19", "--jobs", "1"],
        ["axioms", "--p", "11"],
    ]
    for argv in commands:
        if argv == commands[-1]:
            monkeypatch.setattr(cli_mod.circles_mod, "validate_axioms",
                                lambda tensor: failed)
        code, out, _ = run(capsys, *argv)
        assert code == (4 if argv == commands[-1] else 0), argv
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            line.split(",") for line in out.splitlines())
        assert buf.getvalue() == out, argv


def test_the_console_script_is_cli_main():
    # tomllib came with Python 3.11; pyproject.toml allows 3.10
    tomllib = pytest.importorskip("tomllib")
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"circlewalk": "circlewalk.cli:main"}
    module, _, name = scripts["circlewalk"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_output_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "tensor.csv"
    code, out, _ = run(capsys, "constants", "--p", "7", "--output", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    header, rows = parse_csv(text)
    assert len(rows) == 343
    assert text.endswith("\n") and "\r" not in text


def test_floats_serialized_17_digits(capsys):
    _, out, _ = run(capsys, "mix", "--p", "7")
    _, rows = parse_csv(out)
    # round-trip: the printed value parses back to the same float
    for r in rows:
        assert float(format(float(r[1]), ".17g")) == float(r[1])


# every flag of every subcommand, with valid and invalid values at p <= 19
FUZZ_VALUES = {
    "--p": ["-7", "0", "3", "5", "7", "9", "11", "13", "19", "x"],
    "--format": ["csv", "json", "xml"],
    "--eps": ["0", "-0.5", "0.001", "0.1", "1", "1.5", "nan", "inf"],
    "--seed": ["-1", "0", "42"],
    "--trials": ["-1", "0", "1", "200"],
    "--steps": ["-1", "0", "3"],
    "--p-min": ["-5", "0", "3", "7", "19", "24"],
    "--p-max": ["-5", "0", "3", "7", "19", "24"],
    "--jobs": ["-1", "0", "1"],
    "--force": [None],
    "--output": ["-", "file", "missing"],
}
FUZZ_FLAGS = {
    "constants": ["--p", "--format", "--output", "--force"],
    "axioms": ["--p", "--format", "--output"],
    "stationary": ["--p", "--format", "--output"],
    "mix": ["--p", "--format", "--output", "--eps"],
    "spectrum": ["--p", "--format", "--output"],
    "bounds": ["--p", "--format", "--output", "--eps"],
    "simulate": ["--p", "--format", "--output", "--seed", "--trials", "--steps"],
    "scan": ["--p-min", "--p-max", "--output", "--eps", "--jobs"],
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_flags_never_exit_4(tmp_path_factory, data):
    out_dir = tmp_path_factory.getbasetemp()
    paths = {"-": "-", "file": str(out_dir / "fuzz.out"),
             "missing": str(out_dir / "missing" / "fuzz.out")}
    command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    # mostly the command's own flags, sometimes one it does not take
    flags = [f for f in FUZZ_FLAGS[command] if data.draw(st.booleans())]
    flags += data.draw(st.sampled_from([[]] * 3 + [[f] for f in FUZZ_VALUES]))
    if command == "scan" and "--jobs" not in flags:
        flags.append("--jobs")  # the default forks a worker pool per example
    argv = [command]
    for flag in flags:
        value = data.draw(st.sampled_from(FUZZ_VALUES[flag]))
        argv += [flag] if value is None else [flag, paths.get(value, value)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in {0, 1, 2, 3}, (argv, stderr.getvalue())
    eps = [v for f, v in zip(argv, argv[1:]) if f == "--eps"]
    if any(not 0 < float(v) < 1 for v in eps):
        assert code == 1, (argv, stderr.getvalue())
    jobs = [v for f, v in zip(argv, argv[1:]) if f == "--jobs"]
    if any(int(v) < 1 for v in jobs):
        assert code == 1, (argv, stderr.getvalue())
