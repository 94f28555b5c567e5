"""Closed-loop runner for the circlewalk CLI benchmark.

One client, one invocation at a time: the next command starts only after
the previous one has exited. Every invocation is a fresh interpreter
running the console-script entry point against the checkout's ``src``,
with BLAS held at one thread. Outputs are checked against the digests in
``reference.json``.

All paths are relative to the current directory, which must be the root
of a checkout; files the benchmark writes go to ``.perfbench_out/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

# The body of the ``circlewalk`` console script.
ENTRY = "import sys; from circlewalk.cli import main; sys.exit(main())"
SETUP_PROBE = "import circlewalk.cli as c; c.build_parser()"
# Half the set-up probes run before a run's invocations and half after,
# so that they sample the machine at both ends of the run.
SETUP_REPEATS = 10

# OpenBLAS defaults to a thread per core, which the two scan workers
# would oversubscribe on a 2-core machine; every run holds it at one.
BLAS_THREADS = "1"

WORKLOADS = {
    "scan": ["scan", "--p-min", "7", "--p-max", "499", "--jobs", "2"],
    "axioms": ["axioms", "--p", "103", "--format", "json"],
    "export": ["constants", "--p", "103"],
}
# The same commands on primes <= 19, for the self-test.
TINY = {
    "scan": ["scan", "--p-min", "7", "--p-max", "19", "--jobs", "2"],
    "axioms": ["axioms", "--p", "19", "--format", "json"],
    "export": ["constants", "--p", "19"],
}


class CheckoutError(RuntimeError):
    """The current directory is not a circlewalk checkout."""


def check_checkout() -> None:
    if not (ROOT / "src" / "circlewalk" / "cli.py").is_file():
        raise CheckoutError(f"no src/circlewalk/cli.py under {ROOT}")
    if not BENCHMARK.is_file():
        raise CheckoutError(f"no BENCHMARK.json under {ROOT}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def load_references() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    sha256: str
    bytes: int


def invoke(cmd: list[str], out_path: Path) -> Invocation:
    """Run ``cmd`` with stdout to ``out_path``; time it and its children.

    CPU time and peak RSS come from wait4, which covers the process and
    the children it reaped (the scan pool's workers). Peak RSS is the
    largest single process's, not a sum.
    """
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "wb") as out, open(f"{out_path}.err", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        exit_code=proc.returncode,
        sha256=digest(out_path),
        bytes=out_path.stat().st_size,
    )


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", ENTRY, *argv]


def traced_command(argv: list[str], spans_path: Path) -> list[str]:
    return [sys.executable, str(HERE / "tracing.py"), str(spans_path), *argv]


def matches(inv: Invocation, ref: dict) -> bool:
    """Exit code and stdout digest both equal the reference."""
    return inv.exit_code == ref["exit"] and inv.sha256 == ref["sha256"]


def setup_times(repeats: int, warm: bool) -> list[float]:
    """Fresh-interpreter ``import circlewalk.cli`` plus ``build_parser()``.

    With ``warm``, one untimed probe first lets the bytecode cache fill,
    a cost users pay once, not per command.
    """
    cmd = [sys.executable, "-c", SETUP_PROBE]

    def probe() -> float:
        t0 = perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
        return perf_counter() - t0

    if warm:
        probe()
    return [probe() for _ in range(repeats)]


def closed_loop(run_one, seconds: float, elapsed0: float = 0.0) -> list:
    """Call ``run_one`` back to back; start another only while it is
    expected to finish within ``seconds``. Always at least one call."""
    results = []
    t0 = perf_counter() - elapsed0
    while True:
        results.append(run_one())
        elapsed = perf_counter() - t0
        typical = statistics.median(r.wall_s for r in results)
        if elapsed + typical > seconds:
            return results


def high_percentile(samples: list[float]) -> tuple[int | None, float | None]:
    """The highest of p90/p99 with at least ten samples beyond it."""
    n = len(samples)
    best = (None, None)
    for q in (90, 99):
        if n * (100 - q) / 100 >= 10:
            best = (q, statistics.quantiles(samples, n=100)[q - 1])
    return best


def provenance() -> dict:
    probe = (
        "import json, os, sys, ctypes, numpy\n"
        "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "threads = None\n"
        "libs = [l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l]\n"
        "for lib in dict.fromkeys(libs):\n"
        "    dll = ctypes.CDLL(lib)\n"
        "    for sym in ('scipy_openblas_get_num_threads64_',\n"
        "                'openblas_get_num_threads64_', 'openblas_get_num_threads'):\n"
        "        if hasattr(dll, sym):\n"
        "            threads = getattr(dll, sym)()\n"
        "            break\n"
        "print(json.dumps({'python': sys.version.split()[0],\n"
        "    'numpy': numpy.__version__, 'blas': cfg.get('name'),\n"
        "    'blas_version': cfg.get('version'), 'blas_threads': threads}))\n"
    )
    info = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout)
    info["blas_thread_env"] = {"OPENBLAS_NUM_THREADS": BLAS_THREADS,
                               "OMP_NUM_THREADS": BLAS_THREADS,
                               "MKL_NUM_THREADS": BLAS_THREADS}
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu_model"] = _cpu_model()
    info["platform"] = platform.platform()
    info["git_commit"] = _git_commit()
    info["src_sha256"] = _source_digest()
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code even
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "circlewalk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def timed_run(name: str, argv: list[str], ref: dict, seconds: float) -> dict:
    """Untraced run: end-to-end metrics of back-to-back invocations."""
    setup = setup_times(SETUP_REPEATS // 2, warm=True)
    out_path = OUT / f"{name}.out"
    invs = closed_loop(lambda: invoke(cli_command(argv), out_path), seconds)
    setup += setup_times(SETUP_REPEATS - SETUP_REPEATS // 2, warm=False)
    failed = sum(not matches(inv, ref) for inv in invs)
    walls = [inv.wall_s for inv in invs]
    q, p_high = high_percentile(walls)
    return {
        "mode": "timed",
        "attempted": len(invs),
        "failed": failed,
        "failed_ratio": failed / len(invs),
        "samples": len(invs),
        "wall_s_samples": walls,
        "wall_s_high_percentile": None if q is None else {"q": q, "value": p_high},
        "cpu_s_samples": [inv.cpu_s for inv in invs],
        "peak_rss_mb_samples": [inv.peak_rss_mb for inv in invs],
        "setup_s_samples": setup,
        "metrics": {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(inv.cpu_s for inv in invs),
            "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in invs),
            "setup_s": statistics.median(setup),
        },
    }


def traced_run(name: str, argv: list[str], ref: dict, seconds: float) -> dict:
    """One untraced invocation, then traced ones back to back.

    Per-layer values are medians over the traced invocations; the
    tracing overhead is the median traced wall minus the untraced wall.
    Every output, traced or not, is checked against the reference.
    """
    setup = setup_times(SETUP_REPEATS // 2, warm=True)
    out_path = OUT / f"{name}.out"
    t0 = perf_counter()
    plain = invoke(cli_command(argv), out_path)
    traces: list[dict] = []

    def run_traced() -> Invocation:
        spans_path = OUT / f"{name}.spans.json"
        spans_path.unlink(missing_ok=True)  # never read a previous trace
        inv = invoke(traced_command(argv, spans_path), out_path)
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        traces.append({"inv": inv, "spans": spans})
        return inv

    traced = closed_loop(run_traced, seconds, perf_counter() - t0)
    setup += setup_times(SETUP_REPEATS - SETUP_REPEATS // 2, warm=False)
    invs = [plain, *traced]
    failed = sum(not matches(inv, ref) for inv in invs)

    per_trace = []
    for t in traces:
        values = tracing.layer_metrics(t["spans"], t["inv"].bytes)
        values["trace.wall_s"] = t["inv"].wall_s
        values["trace.overhead_s"] = t["inv"].wall_s - plain.wall_s
        values["trace.accounted_s"] = tracing.accounted_seconds(t["spans"])
        per_trace.append(values)
    metrics = {k: statistics.median(v[k] for v in per_trace) for k in tracing.LAYER_METRICS}
    setup_s = statistics.median(setup)
    unaccounted = plain.wall_s - metrics["trace.accounted_s"]
    return {
        "mode": "traced",
        "attempted": len(invs),
        "failed": failed,
        "failed_ratio": failed / len(invs),
        "samples": len(traced),
        "untraced_wall_s": plain.wall_s,
        "setup_s": setup_s,
        "unaccounted_s": unaccounted,
        "accounting_ok": abs(unaccounted) <= abs(metrics["trace.overhead_s"]) + setup_s,
        "metrics": metrics,
        "per_prime": tracing.per_prime_rows(traces[-1]["spans"]),
        "spans": traces[-1]["spans"],
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run(name: str, seed: int, seconds: float, trace: bool,
        argv: list[str] | None = None, ref: dict | None = None) -> dict:
    """One benchmark run; writes the result (and trace) file and returns
    the result with its provenance."""
    argv = WORKLOADS[name] if argv is None else argv
    if ref is None:
        ref = load_references()["workloads"][name]
    if ref["argv"] != argv:
        raise CheckoutError(f"reference for {name} was made for {ref['argv']}")
    result = (traced_run if trace else timed_run)(name, argv, ref, seconds)
    units = declared_metrics(trace)
    result.update(workload=name, argv=argv, seed=seed, seconds=seconds,
                  units=units, provenance=provenance())
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-{'traced' if trace else 'timed'}-seed{seed}"
    if trace:
        spans = result.pop("spans")
        with open(OUT / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "spans": spans,
                       "per_prime": result["per_prime"]}, fh)
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def summary_line(result: dict) -> dict:
    """The run's final stdout line: correctness, counts and the metrics
    BENCHMARK.json declares for the mode."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in result["units"].items()
        },
    }
