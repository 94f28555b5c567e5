"""Benchmark entry point: one workload, one run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. ``--trace 0`` times back-to-back CLI
invocations and reports the end-to-end metrics; ``--trace 1`` makes the
separate traced run and reports the per-layer metrics. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. The full
result, with provenance and samples, goes to
``.perfbench_out/result-<workload>-<mode>-seed<seed>.json``.

The workloads take no random input; the seed is recorded in the result.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        harness.check_checkout()
    except harness.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# workload={args.workload} seed={args.seed} mode={result['mode']} "
          f"samples={result['samples']} failed_ratio={result['failed_ratio']}")
    if args.trace:
        print(f"# untraced wall_s={result['untraced_wall_s']:.4f} "
              f"unaccounted_s={result['unaccounted_s']:.4f} "
              f"accounting_ok={result['accounting_ok']}")
    print(json.dumps(harness.summary_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
