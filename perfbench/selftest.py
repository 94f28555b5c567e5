"""Self-test of the benchmark harness on primes <= 19; takes seconds.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that every metric BENCHMARK.json
declares is emitted with its unit, that a corrupted output or a wrong exit
code counts as a failure, that trace self times add up to their parent
spans, that ``scan`` output is byte-identical at --jobs 1 and --jobs 2,
and that the benchmark refuses a directory without the package source.
Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import harness
import reference
import tracing

TOL = 1e-6
failures: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")
    if not ok:
        failures.append(label)


def check_metrics(refs: dict) -> dict:
    """Tiny timed and traced runs of every workload; returns the traces."""
    traces = {}
    for trace in (False, True):
        declared = harness.declared_metrics(trace)
        produced = set(tracing.LAYER_METRICS) if trace else {
            "wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
        check(f"declared {'per-layer' if trace else 'end-to-end'} metrics "
              "match what the harness computes", set(declared) == produced,
              f"{sorted(set(declared) ^ produced)}")
        for name, argv in harness.TINY.items():
            result = harness.run(f"tiny-{name}", 0, 1, trace, argv, refs[name])
            line = harness.summary_line(result)
            mode = "traced" if trace else "timed"
            check(f"{name} {mode}: outputs match the reference",
                  line["correct"] and line["failed"] == 0 and line["attempted"] >= 1)
            emitted = {k: v["unit"] for k, v in line["metrics"].items()
                       if isinstance(v["value"], (int, float))}
            check(f"{name} {mode}: every declared metric emitted with its unit",
                  emitted == declared)
            if trace:
                traces[name] = result
    return traces


def check_counts(traces: dict, refs: dict) -> None:
    scan, axioms, export = (traces[n]["metrics"] for n in ("scan", "axioms", "export"))
    primes = 3  # 7, 11, 19
    check("scan trace: one make_modulus and three build_kernel calls per prime",
          scan["modular.make_modulus.calls"] == primes
          and scan["walk.build_kernel.calls"] == 3 * primes)
    check("axioms trace: computed madds and table bytes",
          axioms["circles.validate_axioms.madds"] == 2 * 19**5
          and axioms["circles.scaled_table.bytes"] == 4 * 19**3)
    check("export trace: one scaled call per row, output bytes as referenced",
          export["circles.scaled.calls"] == 19**3
          and export["cli.output.bytes"] == refs["export"]["bytes"])


def check_self_times(traces: dict) -> None:
    for name, result in traces.items():
        spans = json.load(open(harness.OUT / f"trace-tiny-{name}-traced-seed0.json",
                               encoding="utf-8"))["spans"]
        own = tracing.self_times(spans)
        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["parent"] is None]  # cli.import, cli.main
        root_pid = roots[0]["pid"]
        leaf = {s["id"]: sum(a[1] for a in s.get("leaf", {}).values()) for s in spans}
        nested = all(
            by_id[s["parent"]]["start"] <= s["start"] <= s["end"] <= by_id[s["parent"]]["end"]
            for s in spans if s["parent"] is not None)
        check(f"{name} trace: every span lies inside its parent", nested)

        main = [s for s in spans if s["pid"] == root_pid]
        remote = [s for s in spans if s["pid"] != root_pid
                  and by_id[s["parent"]]["pid"] == root_pid]
        covered = tracing._union((s["start"], s["end"]) for s in remote)
        total = sum(own[s["id"]] + leaf[s["id"]] for s in main) + covered
        dur = sum(r["end"] - r["start"] for r in roots)
        check(f"{name} trace: self times add up to the root spans",
              [r["name"] for r in roots] == ["cli.import", "cli.main"]
              and abs(total - dur) < TOL, f"{total:.6f} vs {dur:.6f}")
        if remote:
            check(f"{name} trace: worker self times add up to each task span", all(
                abs(sum(own[s["id"]] + leaf[s["id"]] for s in spans
                        if s["pid"] == r["pid"] and _under(s, r, by_id))
                    - (r["end"] - r["start"])) < TOL
                for r in remote))
            check(f"{name} trace: worker spans returned to the parent",
                  all(s["name"] == "cli.scan_row" for s in remote) and len(remote) == 3)


def _under(span, ancestor, by_id) -> bool:
    while span is not None:
        if span["id"] == ancestor["id"]:
            return True
        span = by_id.get(span["parent"])
    return False


def check_failures(refs: dict) -> None:
    ref = refs["export"]
    out = harness.OUT / "selftest-corrupt.out"
    inv = harness.invoke(harness.cli_command(ref["argv"]), out)
    check("clean output matches", harness.matches(inv, ref))
    data = bytearray(out.read_bytes())
    data[len(data) // 2] ^= 0x01
    out.write_bytes(bytes(data))
    corrupted = dataclasses.replace(inv, sha256=harness.digest(out))
    check("a corrupted output counts as a failure", not harness.matches(corrupted, ref))
    wrong_exit = dataclasses.replace(inv, exit_code=4)
    check("a wrong exit code counts as a failure", not harness.matches(wrong_exit, ref))
    result = harness.timed_run("selftest-wrongref", ref["argv"],
                               {**ref, "sha256": "0" * 64}, 1)
    check("a run against a mismatching reference has failed_ratio 1",
          result["failed_ratio"] == 1.0 and result["failed"] == result["attempted"])


def check_jobs_identity(refs: dict) -> None:
    ref = refs["scan"]
    serial = harness.invoke(harness.cli_command(reference.serial(ref["argv"])),
                            harness.OUT / "selftest-serial.out")
    check("scan output is byte-identical at --jobs 1 and --jobs 2",
          harness.matches(serial, ref))


def check_bare_directory() -> None:
    bare = harness.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(harness.BENCHMARK, bare / "BENCHMARK.json")
    for path in harness.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "export", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check("a directory without src/ exits non-zero with no result",
          proc.returncode != 0 and '"correct"' not in proc.stdout)
    shutil.rmtree(bare)


def main() -> int:
    harness.check_checkout()
    refs = harness.load_references()["tiny"]
    traces = check_metrics(refs)
    check_counts(traces, refs)
    check_self_times(traces)
    check_failures(refs)
    check_jobs_identity(refs)
    check_bare_directory()
    print(f"selftest: {'FAIL ' + ', '.join(failures) if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
