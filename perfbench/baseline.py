"""Print every benchmark metric and the ROADMAP "Baseline" figures.

    python3 perfbench/baseline.py

Run from the root of a checkout; takes about three minutes. Makes one
timed and one traced run of each workload (one invocation each), prints
every end-to-end and per-layer metric by name with its unit, the
failed_ratio of each run, the check that the traced self times account
for the untraced wall time, and the figures the ROADMAP's Baseline cites:
validate_axioms(103), the bound_report(499) stage split, scan 7..499 and
constants --p 103. Everything printed is also written to
``.perfbench_out/baseline.json``.
"""

from __future__ import annotations

import json
import sys

import harness


def main() -> int:
    harness.check_checkout()
    results = {}
    for name in harness.WORKLOADS:
        for trace in (False, True):
            results[(name, trace)] = harness.run(name, 0, 1, trace)
            print(f"ran {name} {'traced' if trace else 'timed'}", file=sys.stderr)

    prov = results[("scan", False)]["provenance"]
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    for trace, title in ((False, "end-to-end"), (True, "per-layer")):
        print(f"\n{title} metrics")
        for name in harness.WORKLOADS:
            r = results[(name, trace)]
            print(f"  [{name}] samples={r['samples']} attempted={r['attempted']} "
                  f"failed_ratio={r['failed_ratio']}")
            for metric, unit in r["units"].items():
                print(f"    {metric:34s} {r['metrics'][metric]:>16.6g} {unit}")

    print("\ntraced self times vs untraced wall (|unaccounted| <= |overhead| + setup)")
    for name in harness.WORKLOADS:
        r = results[(name, True)]
        m = r["metrics"]
        print(f"  {name:7s} untraced_wall_s={r['untraced_wall_s']:.3f} "
              f"accounted_s={m['trace.accounted_s']:.3f} "
              f"unaccounted_s={r['unaccounted_s']:.3f} "
              f"overhead_s={m['trace.overhead_s']:.3f} setup_s={r['setup_s']:.3f} "
              f"{'PASS' if r['accounting_ok'] else 'FAIL'}")

    axioms = results[("axioms", True)]["metrics"]
    scan = results[("scan", False)]["metrics"]
    export = results[("export", False)]["metrics"]
    p499 = next(row for row in results[("scan", True)]["per_prime"] if row["p"] == 499)
    figures = {
        "validate_axioms(103)_s": axioms["circles.validate_axioms.self_s"]
        + axioms["circles.scaled_table.s"],
        "validate_axioms(103)_gmadds_per_s": axioms["circles.validate_axioms.gmadds_per_s"],
        "bound_report(499)_stages_s": {k: v for k, v in p499.items() if k not in ("p", "pid")},
        "scan_7..499_wall_s": scan["wall_s"],
        "scan_7..499_cpu_s": scan["cpu_s"],
        "scan_argv": harness.WORKLOADS["scan"],
        "constants_103_wall_s": export["wall_s"],
    }
    print("\nbaseline figures")
    for key, value in figures.items():
        if isinstance(value, dict):
            print(f"  {key}:")
            for stage, secs in value.items():
                print(f"    {stage:34s} {secs:.4f} s")
        elif isinstance(value, float):
            print(f"  {key:34s} {value:.4f}")
        else:
            print(f"  {key:34s} {value}")

    with open(harness.OUT / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "figures": figures,
                   "runs": {f"{n}-{'traced' if t else 'timed'}": r
                            for (n, t), r in results.items()}}, fh, indent=1)
    failed = sum(r["failed"] for r in results.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
