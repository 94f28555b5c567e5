"""Command line front end: per-prime computations and the scaling scan.

Exit codes: 0 success, 1 usage error or out of memory, 2 invalid modulus, 3
not mixed: the TV stopped falling above eps, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import stat
import sys

import numpy as np

from . import bounds as bounds_mod
from . import circles as circles_mod
from . import walk as walk_mod
from .modular import NotPrime, WrongResidueClass, make_modulus, primes_3_mod_4

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_MODULUS = 2
EXIT_NOT_MIXED = 3
EXIT_INVARIANT = 4

# Largest p that ``constants`` exports without --force: the export has
# p^3 rows, 127 M rows and about 5 s at p = 503 on a 2-core machine
# (`BENCH_22.json`).
EXPORT_GATE = 512


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def fmt(x) -> str:
    """Serialize a number; floats carry 17 significant digits."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


class _UsageError(Exception):
    """A refused input, or an output that cannot be opened, written,
    flushed or closed: ``main`` prints the message and exits 1."""


@contextlib.contextmanager
def _output_errors():
    """Raise an OSError of the output as ``_UsageError``. A broken pipe
    first points stdout's fd at os.devnull, so the flush at interpreter
    exit cannot fail on it again."""
    try:
        yield
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise _UsageError(f"cannot write output: {exc}") from exc


def _open_output(output: str):
    """Open the file ``output`` for ``_emit``: the text file to write,
    and the path of the new file that replaces ``output`` once it is
    whole, or None when the file is ``output`` itself.

    A regular file, or a path with nothing there yet, gets a new file
    beside it (beside the file a symbolic link names), opened with the
    permission bits of the file it replaces, or else 0666, less the
    umask, as ``open(output, "w")`` makes a file. Anything else, such as
    a device or a pipe, is written in place, since a rename would
    replace it. An error names ``output``, as ``open`` would.
    """
    target = os.path.realpath(output)
    mode = stat.S_IFREG | 0o666
    with contextlib.suppress(FileNotFoundError):
        mode = os.stat(target).st_mode
    if not stat.S_ISREG(mode):
        return open(output, "w", encoding="utf-8", newline=""), None
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, stat.S_IMODE(mode))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, output) from None
    return open(fd, "w", encoding="utf-8", newline=""), temp


def _emit(chunks, output: str | None) -> None:
    """Write text chunks, in order, to stdout or to the file ``output``.

    Only the opening, the writes, the final flush or close and the
    rename are wrapped by ``_output_errors``, not the making of each
    chunk. Stdout is flushed here, so a full device or a closed pipe is
    reported now, not at interpreter exit. A new file from
    ``_open_output`` is renamed over ``output`` only once every chunk
    is written and the file is closed, and is removed otherwise, so a
    failed command leaves no partial file and an existing file as it
    was; what a failed command wrote to stdout or to a device stays.
    """
    with _output_errors():
        fh, temp = (sys.stdout, None) if output in (None, "-") else _open_output(output)
    try:
        try:
            for chunk in chunks:
                with _output_errors():
                    fh.write(chunk)
        finally:
            with _output_errors():
                (fh.flush if fh is sys.stdout else fh.close)()
        if temp is not None:
            with _output_errors():
                os.replace(temp, os.path.realpath(output))
    finally:
        if temp is not None:
            with contextlib.suppress(OSError):  # gone once renamed
                os.remove(temp)


def _csv_text(header: list[str], rows) -> str:
    """CSV text of the header, then the rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def _write(args, obj, header: list[str], rows) -> None:
    """Write ``obj`` as indented JSON or ``header`` and ``rows`` as CSV,
    as ``--format`` asks. json.dumps prints floats by repr, which round
    trips like the CSV's 17 significant digits."""
    if args.format == "json":
        _emit([json.dumps(obj, indent=2) + "\n"], args.output)
    else:
        _emit([_csv_text(header, rows)], args.output)


# each format prints the export as start % {"p": p}, then every row
# (i, j, k, numerator, denominator) as head % (i, j) + tail % (k,
# numerator, denominator), rows joined by sep, then end; the JSON is laid
# out as json.dumps({"p": p, "rows": rows}, indent=2) + "\n" lays it out
_LAYOUTS = {
    "csv": ("i,j,k,numerator,denominator\n", "%d,%d,", "%d,%d,%d\n", "", ""),
    "json": ('{\n  "p": %(p)d,\n  "rows": [\n',
             "    [\n      %d,\n      %d,\n",
             "      %d,\n      %d,\n      %d\n    ]", ",\n", "\n  ]\n}\n"),
}


def _export_chunks(tensor, layout):
    """The export text in the ``_LAYOUTS`` entry ``layout``, one chunk
    per i-block, so memory stays at O(p^2). The identity rows (a zero
    index) print the integer numerator // (p + 1) over 1, the others the
    numerator over p + 1.

    A real block holds 0, 1 or 2 over p + 1, and 0 or 1 over 1 on its
    identity rows, so ``cells[den][v, k]``, the tail of value v at k,
    is formatted once per export, and each block's rows gather from it.
    A block with any other value has no cell and is refused, by name,
    before its rows are gathered: an invariant violation, not a row.
    """
    start, head, tail, sep, end = layout
    p = tensor.p
    ks = np.arange(p)
    cells = {den: np.array([[tail % (k, v, den) for k in range(p)]
                            for v in range(3)], dtype=object)
             for den in (1, p + 1)}
    for i in range(p):
        block = tensor.numerators(i)
        ones = p if i == 0 else 1  # rows j < ones are identity rows
        identity, body = block[:ones], block[ones:]
        if (((identity != 0) & (identity != p + 1)).any()
                or body.min(initial=0) < 0 or body.max(initial=0) > 2):
            raise ValueError(f"block i={i} holds a numerator with no export cell")
        texts = (cells[1][identity // (p + 1), ks].tolist()
                 + cells[p + 1][body, ks].tolist())
        # a later block's rows join onto "", so its text starts with sep
        rows = [""] if i else []
        for j, row in enumerate(texts):
            h = head % (i, j)
            rows.append(h + (sep + h).join(row))
        text = sep.join(rows)
        del block, identity, body, texts, rows  # only the text is held while it is written
        # block 0 carries the start: a small first write would be copied
        # again with the second
        yield text if i else start % {"p": p} + text
    yield end


def cmd_constants(args) -> int:
    modulus = make_modulus(args.p)
    p = modulus.p
    if p > EXPORT_GATE and not args.force:
        raise _UsageError(f"p={p} exceeds the export gate {EXPORT_GATE}; use --force")
    tensor = circles_mod.StructureTensor(modulus)
    _emit(_export_chunks(tensor, _LAYOUTS[args.format]), args.output)
    return EXIT_OK


def cmd_axioms(args) -> int:
    modulus = make_modulus(args.p)
    limit = circles_mod.DENSE_TABLE_LIMIT
    if modulus.p > limit:
        # the Krylov sums and the fallback's dense table are capped
        raise _UsageError(f"p={modulus.p} exceeds the dense-table limit {limit}")
    report = circles_mod.validate_axioms(circles_mod.StructureTensor(modulus))
    checks = report.checks()
    obj = {
        "p": modulus.p,
        "all_passed": report.all_passed,
        "axioms": {
            c.name: {"passed": c.passed, "witness": c.witness} for c in checks
        },
    }
    rows = [
        (c.name, c.passed, "" if c.witness is None else ";".join(map(str, c.witness)))
        for c in checks
    ]
    _write(args, obj, ["axiom", "passed", "witness"], rows)
    return EXIT_OK if report.all_passed else EXIT_INVARIANT


def cmd_stationary(args) -> int:
    p = make_modulus(args.p).p
    # p + 1 and p^2 are coprime, so these are the reduced fractions
    numerators = walk_mod.stationary_numerators(p).tolist()
    obj = {"p": p, "denominator": p**2, "numerators": numerators}
    rows = [(k, n, p**2) for k, n in enumerate(numerators)]
    _write(args, obj, ["k", "numerator", "denominator"], rows)
    return EXIT_OK


def cmd_mix(args) -> int:
    modulus = make_modulus(args.p)
    kernel = walk_mod.build_kernel(modulus)
    report = walk_mod.mixing_time(kernel, args.eps)
    obj = {
        "p": modulus.p,
        "epsilon": report.epsilon,
        "tau": report.tau,
        "tv_curve": report.tv_curve,
    }
    _write(args, obj, ["t", "worst_tv"], enumerate(report.tv_curve))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    modulus = make_modulus(args.p)
    kernel = walk_mod.build_kernel(modulus)
    spectral = bounds_mod.spectrum(kernel)
    eigenvalues = spectral.eigenvalues.tolist()
    obj = {
        "p": modulus.p,
        "eigenvalues": eigenvalues,
        "lambda1": spectral.lambda1,
        "lambda_min": spectral.lambda_min,
        "alpha_star": spectral.alpha_star,
        "gap": spectral.gap,
    }
    _write(args, obj, ["index", "eigenvalue"], enumerate(eigenvalues))
    return EXIT_OK


def cmd_bounds(args) -> int:
    report = bounds_mod.bound_report(make_modulus(args.p), args.eps)
    obj = dataclasses.asdict(report)
    _write(args, obj, list(obj), [obj.values()])
    return EXIT_OK


def cmd_simulate(args) -> int:
    modulus = make_modulus(args.p)
    ends = walk_mod.simulate(modulus, args.steps, args.trials, args.seed)
    counts, frequencies = ends.tolist(), (ends / args.trials).tolist()
    obj = {
        "p": modulus.p,
        "steps": args.steps,
        "trials": args.trials,
        "seed": args.seed,
        "counts": counts,
        "frequencies": frequencies,
    }
    rows = zip(range(modulus.p), counts, frequencies)
    _write(args, obj, ["k", "count", "frequency"], rows)
    return EXIT_OK


SCAN_HEADER = [
    "p", "tau_measured", "coupling_tau", "gap", "alpha_star",
    "tau_over_p", "tau_over_log_p",
]


def _scan_row(task: tuple[int, float]) -> list:
    """One scan row, from ``bounds.walk_stages``: the stages of
    ``bounds.bound_report`` whose columns scan prints."""
    p, eps = task
    _, mixing, spectral, coupling = bounds_mod.walk_stages(make_modulus(p), eps)
    tau = mixing.tau
    return [
        p,
        tau,
        coupling.tau_bound,
        spectral.gap,
        spectral.alpha_star,
        tau / p,
        tau / math.log(p),
    ]


def cmd_scan(args) -> int:
    if args.p_min > args.p_max:
        raise _UsageError("empty range: p-min exceeds p-max")
    primes = primes_3_mod_4(args.p_min, args.p_max)
    if not primes:
        raise _UsageError(
            f"empty range: no prime = 3 (mod 4) in [{args.p_min}, {args.p_max}]")
    # largest prime first, so the pool ends on cheap tasks
    tasks = [(p, args.eps) for p in reversed(primes)]
    # the fork pool starts every worker at the first submit
    workers = min(args.jobs, _usable_cores(), len(tasks))
    if workers > 1:
        pool_class = sys.modules[__name__].ProcessPoolExecutor  # see __getattr__
        with pool_class(max_workers=workers) as pool:
            rows = list(pool.map(_scan_row, tasks))
    else:
        rows = [_scan_row(t) for t in tasks]
    rows.sort(key=lambda r: r[0])
    _emit([_csv_text(SCAN_HEADER, rows)], args.output)
    print(f"max tau_over_p = {fmt(max(r[5] for r in rows))}", file=sys.stderr)
    return EXIT_OK


def __getattr__(name):
    """Import ``ProcessPoolExecutor`` on first access, since only a
    ``scan`` that forks needs it and ``multiprocessing`` would slow every
    start-up. ``cmd_scan`` reads it from the module, so a caller may set
    ``cli.ProcessPoolExecutor`` to a pool of its own."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _usable_cores() -> int:
    """CPUs this process may run on: the default and the cap of --jobs.
    Only some platforms (Linux) report the affinity; elsewhere, every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return count


def _epsilon(text: str) -> float:
    """argparse type: a TV threshold in (0, 1). The total variation
    against pi is always below 1, so 1 or more would be vacuous."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _add_common(sub, *, p=True, eps=False):
    """Register the shared flags that the subcommand reads; ``p`` adds
    --p and --format, which only the one-prime subcommands take."""
    if p:
        sub.add_argument("--p", type=int, required=True,
                         help="prime modulus, must be 3 (mod 4)")
        sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--output", default=None, help="file path, default stdout")
    if eps:
        sub.add_argument("--eps", type=_epsilon, default=walk_mod.DEFAULT_EPSILON,
                         help="TV threshold in (0, 1), default 1/(2e)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="circlewalk",
                     description="Circle hypergroup walks over F_p")
    sub = parser.add_subparsers(dest="command", required=True)

    constants = sub.add_parser("constants", help="export exact product tensor")
    _add_common(constants)
    constants.add_argument("--force", action="store_true",
                           help="export past the export gate")
    _add_common(sub.add_parser("axioms", help="check hypergroup axioms"))
    _add_common(sub.add_parser("stationary", help="exact invariant law"))
    _add_common(sub.add_parser("mix", help="measure worst-start mixing"),
                eps=True)
    _add_common(sub.add_parser("spectrum", help="eigenvalues of the walk"))
    _add_common(sub.add_parser("bounds", help="all bounds for one prime"),
                eps=True)
    simulate = sub.add_parser("simulate", help="seeded plane walks")
    _add_common(simulate)
    simulate.add_argument("--seed", type=_count(0), default=42)
    simulate.add_argument("--trials", type=_count(1), default=100000)
    simulate.add_argument("--steps", type=_count(0), default=20)
    scan = sub.add_parser(
        "scan", help="measured tau, coupling tau, gap and alpha_star per prime")
    _add_common(scan, p=False, eps=True)
    scan.add_argument("--p-min", type=int, required=True)
    scan.add_argument("--p-max", type=int, required=True)
    scan.add_argument("--jobs", type=_count(1), default=_usable_cores())
    return parser


_COMMANDS = {
    "constants": cmd_constants,
    "axioms": cmd_axioms,
    "stationary": cmd_stationary,
    "mix": cmd_mix,
    "spectrum": cmd_spectrum,
    "bounds": cmd_bounds,
    "simulate": cmd_simulate,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NotPrime, WrongResidueClass) as exc:
        print(f"invalid modulus: {exc}", file=sys.stderr)
        return EXIT_BAD_MODULUS
    except walk_mod.NotMixed as exc:
        print(f"not mixed: {exc}", file=sys.stderr)
        return EXIT_NOT_MIXED
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # p too large for this machine, not a broken invariant
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # invariant violations and unexpected failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
