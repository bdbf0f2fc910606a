#!/usr/bin/env python3
"""Self-tests of the benchmark's tracing shim.

    python3 perfbench/selftest.py [--seed N]

For a few ops of each workload: the outputs of two traced runs must be
bitwise identical to the untraced outputs, and the two traced runs must
record identical counts (calls, callback evaluations, scalar calls,
safeguard hits) for every traced name.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (pins the thread pools first)

run.use_checkout()
import workloads  # noqa: E402
from tracer import Stat  # noqa: E402

# a cheap slice of each workload: its first ops of the first cycle
SLICES = {
    "coop-frontier": (1, 2),  # one Exp-fee preset solve
    "classical-sweep": (0, 6),  # the five presets and one random draw
    "cli-presets": (0, 2),
}
COUNT_KEYS = [k for k in Stat.__slots__ if not k.endswith("_s")]


def counts(stats: dict) -> dict:
    return {name: {k: d[k] for k in COUNT_KEYS} for name, d in sorted(stats.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = ap.parse_args(argv)
    os.makedirs(run.OUT_DIR, exist_ok=True)

    failures = 0
    for workload, (lo, hi) in SLICES.items():
        ops = workloads.build(workload, args.seed, 1)[0][lo:hi]
        plain = run.run_plain(ops)[0]
        tag = f"selftest-{workload}"
        first = run.run_under_tracer(workload, ops, tag)
        second = run.run_under_tracer(workload, ops, tag)
        diff = run.mismatches(ops, plain, first[0]) + run.mismatches(ops, plain, second[0])
        same_counts = counts(first[2]) == counts(second[2])
        traced_calls = sum(d["calls"] for d in first[2].values())
        ok = not diff and same_counts and traced_calls > 0
        failures += not ok
        print(
            f"{workload}: {len(ops)} ops, {traced_calls} traced calls; "
            f"bitwise identical: {'yes' if not diff else 'NO ' + ', '.join(diff)}; "
            f"counts repeat: {'yes' if same_counts else 'NO'} -> "
            + ("PASS" if ok else "FAIL")
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
