"""Span tracing for the benchmark's traced run, kept outside the package.

Run as a script, this module is a traced stand-in for the ``circlewalk``
console script:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json scan --p-min 7 ...

It imports ``circlewalk.cli``, wraps the public functions of every package
module (``modular``, ``circles``, ``walk``, ``bounds``, ``cli``) in every
module namespace that holds them, calls ``cli.main`` exactly as the
console script does, and writes the recorded spans to SPANS.json when the
command ends. The package source is not modified. The import itself is
recorded as the root span ``cli.import``, and the command as ``cli.main``.

A span is a dict with an id, the id of the span that was open when it
started (its parent), a name such as ``bounds.default_paths``, the process
id, start and end times from ``time.perf_counter`` (CLOCK_MONOTONIC, so
comparable across processes), and optional attributes such as the prime.
``StructureTensor.scaled`` is called once per exported row, so it is not
given a span per call; its calls and time are summed into the innermost
open span under ``leaf``.

``scan`` workers are forked, so they inherit the wrapped functions. Each
task returns its spans with its row, and the pool harvests them in the
parent, so one trace covers both workers.

Importing this module has no side effects; the analysis functions below
need neither numpy nor the package.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

# Per-layer metric names and units, in report order. Values come from
# layer_metrics() except the trace.* entries, which the harness fills
# from its own wall-clock measurements.
LAYER_METRICS = {
    "modular.make_modulus.s": "s",
    "modular.make_modulus.calls": "count",
    "modular.primes_3_mod_4.s": "s",
    "circles.scaled.calls": "count",
    "circles.scaled.s": "s",
    "circles.scaled_table.s": "s",
    "circles.scaled_table.bytes": "bytes",
    "circles.validate_axioms.self_s": "s",
    "circles.validate_axioms.madds": "count",
    "circles.validate_axioms.gmadds_per_s": "Gmadd/s",
    "walk.build_kernel.s": "s",
    "walk.build_kernel.calls": "count",
    "walk.stationary.s": "s",
    "walk.detailed_balance.s": "s",
    "walk.mixing_time.s": "s",
    "walk.mixing_time.steps": "count",
    "bounds.spectrum.self_s": "s",
    "bounds.default_paths.s": "s",
    "bounds.comparison_bound.s": "s",
    "bounds.default_cycles.s": "s",
    "bounds.odd_cycle_bound.s": "s",
    "bounds.coupling_bound.s": "s",
    "bounds.bound_report.s": "s",
    "bounds.bound_report.self_s": "s",
    "cli.scan.worker_busy_s": "s",
    "cli.scan.tail_idle_s": "s",
    "cli.cmd_constants.self_s": "s",
    "cli.output.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_s": "s",
}

# (span name, module, attribute path) of every wrapped callable.
TRACED = [
    ("modular.make_modulus", "circlewalk.modular", "make_modulus"),
    ("modular.primes_3_mod_4", "circlewalk.modular", "primes_3_mod_4"),
    ("circles.scaled_table", "circlewalk.circles", "StructureTensor.scaled_table"),
    ("circles.validate_axioms", "circlewalk.circles", "validate_axioms"),
    ("walk.build_kernel", "circlewalk.walk", "build_kernel"),
    ("walk.stationary", "circlewalk.walk", "stationary"),
    ("walk.detailed_balance", "circlewalk.walk", "detailed_balance"),
    ("walk.mixing_time", "circlewalk.walk", "mixing_time"),
    ("bounds.spectrum", "circlewalk.bounds", "spectrum"),
    ("bounds.default_paths", "circlewalk.bounds", "default_paths"),
    ("bounds.comparison_bound", "circlewalk.bounds", "comparison_bound"),
    ("bounds.default_cycles", "circlewalk.bounds", "default_cycles"),
    ("bounds.odd_cycle_bound", "circlewalk.bounds", "odd_cycle_bound"),
    ("bounds.coupling_bound", "circlewalk.bounds", "coupling_bound"),
    ("bounds.bound_report", "circlewalk.bounds", "bound_report"),
    ("cli.cmd_constants", "circlewalk.cli", "cmd_constants"),
    ("cli.cmd_axioms", "circlewalk.cli", "cmd_axioms"),
    ("cli.cmd_scan", "circlewalk.cli", "cmd_scan"),
    ("cli.main", "circlewalk.cli", "main"),
]
LEAF = ("circles.scaled", "circlewalk.circles", "StructureTensor.scaled")
SCAN_TASK = ("cli.scan_row", "circlewalk.cli", "_scan_row")

# Attributes recorded on a span, from its arguments and result.
_NOTES = {
    "circles.scaled_table": lambda args, out: {"p": args[0].p},
    "circles.validate_axioms": lambda args, out: {"p": args[0].p},
    "walk.mixing_time": lambda args, out: {"steps": out.tau},
    "bounds.bound_report": lambda args, out: {"p": args[0].p},
    "cli.scan_row": lambda args, out: {"p": args[0][0]},
}


class Recorder:
    """Spans of one traced command, kept in memory until it ends."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self._count = 0

    def span(self, name, fn, args, kwargs):
        self._count += 1
        pid = os.getpid()
        node = {
            "id": f"{pid}:{self._count}",
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "pid": pid,
            "start": perf_counter(),
        }
        self.stack.append(node)
        try:
            out = fn(*args, **kwargs)
        finally:
            node["end"] = perf_counter()
            self.stack.pop()
            self.spans.append(node)
        note = _NOTES.get(name)
        if note is not None:
            node["attrs"] = note(args, out)
        return out

    def leaf(self, name, fn):
        stack = self.stack

        def timed(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            agg = stack[-1].setdefault("leaf", {}).setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += dt
            return out

        return timed


class SpannedRow(list):
    """A scan row carrying the spans its worker recorded."""

    spans: list


def _resolve(module, path):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _replace_everywhere(original, wrapper) -> int:
    """Point every package-module name (and dict entry) bound to
    ``original`` at ``wrapper``; returns how many bindings changed."""
    count = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "circlewalk" and not modname.startswith("circlewalk."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                count += 1
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapper
                        count += 1
    return count


def _install_one(path_module, path, wrapper_of):
    owner_path, _, attr = path.rpartition(".")
    original = _resolve(path_module, path)
    wrapper = functools.wraps(original)(wrapper_of(original))
    if owner_path:  # a method: the class is shared by every namespace
        setattr(_resolve(path_module, owner_path), attr, wrapper)
    elif _replace_everywhere(original, wrapper) == 0:
        raise RuntimeError(f"{path_module}.{path} is bound nowhere")


def install(rec: Recorder) -> None:
    """Wrap every traced callable of the imported package."""
    for name, module, path in TRACED:
        def make(fn, name=name):
            return lambda *a, **k: rec.span(name, fn, a, k)
        _install_one(module, path, make)

    name, module, path = LEAF
    _install_one(module, path, lambda fn: rec.leaf(name, fn))

    name, module, path = SCAN_TASK

    def make_task(fn):
        def task(*args):
            if os.getpid() == rec.pid:  # --jobs 1 runs tasks in-process
                return rec.span(name, fn, args, {})
            first = len(rec.spans)
            row = SpannedRow(rec.span(name, fn, args, {}))
            row.spans = rec.spans[first:]
            return row
        return task

    _install_one(module, path, make_task)

    class HarvestingPool(ProcessPoolExecutor):
        """The CLI's process pool, moving worker spans into the parent."""

        def map(self, fn, *iterables, **kwargs):
            rows = super().map(fn, *iterables, **kwargs)  # submits eagerly

            def harvest():
                for row in rows:
                    rec.spans.extend(getattr(row, "spans", ()))
                    yield list(row)

            return harvest()

    sys.modules["circlewalk.cli"].ProcessPoolExecutor = HarvestingPool


# ---------------------------------------------------------------- analysis


def _union(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its children cover.

    Child spans may overlap (the two scan workers), so their union is
    subtracted; leaf aggregates are sequential calls made by the span
    itself and are subtracted as sums.
    """
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        covered = _union(
            (max(k["start"], s["start"]), min(k["end"], s["end"]))
            for k in kids
            if k["end"] > s["start"] and k["start"] < s["end"]
        )
        covered += sum(agg[1] for agg in s.get("leaf", {}).values())
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def accounted_seconds(spans: list[dict]) -> float:
    """Wall time the spans account for: every self time (leaf aggregates
    included) in the main process plus the busiest worker's, since
    workers run side by side."""
    own = self_times(spans)
    root_pid = next(s["pid"] for s in spans if s["parent"] is None)
    per_pid: dict[int, float] = {}
    for s in spans:
        leaf = sum(agg[1] for agg in s.get("leaf", {}).values())
        per_pid[s["pid"]] = per_pid.get(s["pid"], 0.0) + own[s["id"]] + leaf
    main = per_pid.pop(root_pid)
    return main + max(per_pid.values(), default=0.0)


def layer_metrics(spans: list[dict], output_bytes: int) -> dict[str, float]:
    """Per-layer values of LAYER_METRICS (all but trace.*) from spans."""
    own = self_times(spans)
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    leaf_calls: dict[str, int] = {}
    leaf_s: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        dur[name] = dur.get(name, 0.0) + s["end"] - s["start"]
        self_s[name] = self_s.get(name, 0.0) + own[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for lname, (n, t) in s.get("leaf", {}).items():
            leaf_calls[lname] = leaf_calls.get(lname, 0) + n
            leaf_s[lname] = leaf_s.get(lname, 0.0) + t

    def attr_sum(name, key, fn=lambda v: v):
        return sum(fn(s["attrs"][key]) for s in spans if s["name"] == name)

    madds = attr_sum("circles.validate_axioms", "p", lambda p: 2 * p**5)
    axioms_self = self_s.get("circles.validate_axioms", 0.0)

    tasks = [s for s in spans if s["name"] == "cli.scan_row"]
    last_end: dict[int, float] = {}
    for s in tasks:
        last_end[s["pid"]] = max(last_end.get(s["pid"], s["end"]), s["end"])
    tail_idle = max(last_end.values()) - min(last_end.values()) if last_end else 0.0

    return {
        "modular.make_modulus.s": dur.get("modular.make_modulus", 0.0),
        "modular.make_modulus.calls": calls.get("modular.make_modulus", 0),
        "modular.primes_3_mod_4.s": dur.get("modular.primes_3_mod_4", 0.0),
        "circles.scaled.calls": leaf_calls.get("circles.scaled", 0),
        "circles.scaled.s": leaf_s.get("circles.scaled", 0.0),
        "circles.scaled_table.s": dur.get("circles.scaled_table", 0.0),
        "circles.scaled_table.bytes": attr_sum(
            "circles.scaled_table", "p", lambda p: 4 * p**3
        ),
        "circles.validate_axioms.self_s": axioms_self,
        "circles.validate_axioms.madds": madds,
        "circles.validate_axioms.gmadds_per_s": (
            madds / axioms_self / 1e9 if axioms_self > 0 else 0.0
        ),
        "walk.build_kernel.s": dur.get("walk.build_kernel", 0.0),
        "walk.build_kernel.calls": calls.get("walk.build_kernel", 0),
        "walk.stationary.s": dur.get("walk.stationary", 0.0),
        "walk.detailed_balance.s": dur.get("walk.detailed_balance", 0.0),
        "walk.mixing_time.s": dur.get("walk.mixing_time", 0.0),
        "walk.mixing_time.steps": attr_sum("walk.mixing_time", "steps"),
        "bounds.spectrum.self_s": self_s.get("bounds.spectrum", 0.0),
        "bounds.default_paths.s": dur.get("bounds.default_paths", 0.0),
        "bounds.comparison_bound.s": dur.get("bounds.comparison_bound", 0.0),
        "bounds.default_cycles.s": dur.get("bounds.default_cycles", 0.0),
        "bounds.odd_cycle_bound.s": dur.get("bounds.odd_cycle_bound", 0.0),
        "bounds.coupling_bound.s": dur.get("bounds.coupling_bound", 0.0),
        "bounds.bound_report.s": dur.get("bounds.bound_report", 0.0),
        "bounds.bound_report.self_s": self_s.get("bounds.bound_report", 0.0),
        "cli.scan.worker_busy_s": sum(s["end"] - s["start"] for s in tasks),
        "cli.scan.tail_idle_s": tail_idle,
        "cli.cmd_constants.self_s": self_s.get("cli.cmd_constants", 0.0),
        "cli.output.bytes": output_bytes,
    }


def per_prime_rows(spans: list[dict]) -> list[dict]:
    """One row per bound_report span: each direct child stage's seconds."""
    own = self_times(spans)
    rows = []
    for s in spans:
        if s["name"] != "bounds.bound_report":
            continue
        row = {"p": s["attrs"]["p"], "pid": s["pid"],
               "bound_report_s": s["end"] - s["start"],
               "bound_report_self_s": own[s["id"]]}
        for k in spans:
            if k["parent"] == s["id"]:
                key = k["name"] + "_s"
                row[key] = row.get(key, 0.0) + k["end"] - k["start"]
        rows.append(row)
    return sorted(rows, key=lambda r: r["p"])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    if multiprocessing.get_start_method() != "fork":
        # spawned workers would not inherit the wrappers
        print("tracing needs the fork start method", file=sys.stderr)
        return 4
    rec = Recorder()
    # the import is the set-up every invocation pays; as a span of its own
    # it is accounted for rather than left in the gap before cli.main
    cli = rec.span("cli.import", importlib.import_module, ("circlewalk.cli",), {})
    install(rec)
    code = cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
