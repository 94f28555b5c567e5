"""Reference outputs: exit code and stdout sha256 of every workload.

    python3 perfbench/reference.py           # recompute and compare
    python3 perfbench/reference.py --write   # store as reference.json

Run from the root of a checkout. Each full and tiny workload runs once;
``scan`` runs at ``--jobs 1`` as well as at its workload's ``--jobs 2``,
and the two outputs must be byte-identical. Only ``--write`` changes
``reference.json``; do that only when a change to the output is intended.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def serial(argv: list[str]) -> list[str]:
    i = argv.index("--jobs")
    return [*argv[: i + 1], "1", *argv[i + 2:]]


def compute() -> dict:
    refs = {}
    for group, table in (("workloads", harness.WORKLOADS), ("tiny", harness.TINY)):
        refs[group] = {}
        for name, argv in table.items():
            out = harness.OUT / f"reference-{group}-{name}.out"
            inv = harness.invoke(harness.cli_command(argv), out)
            entry = {"argv": argv, "exit": inv.exit_code, "sha256": inv.sha256,
                     "bytes": inv.bytes}
            if "--jobs" in argv:
                alt = harness.invoke(harness.cli_command(serial(argv)), out)
                entry["jobs1_identical"] = alt.sha256 == inv.sha256
            refs[group][name] = entry
            print(f"{group}/{name}: exit={inv.exit_code} bytes={inv.bytes} "
                  f"sha256={inv.sha256} wall_s={inv.wall_s:.2f}"
                  + (f" jobs1_identical={entry['jobs1_identical']}"
                     if "jobs1_identical" in entry else ""), flush=True)
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    harness.check_checkout()
    refs = compute()
    identical = all(e.get("jobs1_identical", True)
                    for group in refs.values() for e in group.values())
    if args.write:
        if not identical:
            print("scan output differs between --jobs 1 and --jobs 2; not written",
                  file=sys.stderr)
            return 1
        with open(harness.HERE / "reference.json", "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")
        return 0
    stored = harness.load_references()
    ok = identical and refs == stored
    print("reference check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
