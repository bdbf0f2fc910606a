#!/usr/bin/env python3
"""Build ``perfbench/baseline.json`` from the run records in ``perfbench/out/``.

    python3 perfbench/baseline.py

For every workload: each end-to-end metric over the untraced runs (values
by seed, median, quartiles and spread, the quartile distance over the
median), ops attempted and failed with reasons, the traced run's per-layer
metrics, and per-call medians of the ROADMAP's Open-items rows.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

# ROADMAP Open-items rows: (row, workload of the traced run, traced name)
ROWS = (
    ("sumrate_simultaneous", "classical-sweep", "classical_simul.sumrate_simultaneous"),
    ("mdrb_simultaneous", "classical-sweep", "classical_simul.mdrb_simultaneous"),
    ("mdrb_sic", "classical-sweep", "classical_sic.mdrb_sic"),
    ("sic_sumrate_numeric", "classical-sweep", "classical_sic.sic_sumrate_numeric"),
    ("coop_solve_general", "coop-frontier", "coop_mac.coop_solve_general"),
    ("oracle_simul_sumrate (verify fig3a)", "cli-presets", "oracle.oracle_simul_sumrate"),
    ("oracle_sic_sumrate (verify fig4b)", "cli-presets", "oracle.oracle_sic_sumrate"),
    ("oracle_coop_weighted (verify fig5a)", "cli-presets", "oracle.oracle_coop_weighted"),
)


def _summary(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return {
        "median": med,
        "q1": q[0],
        "q3": q[2],
        "spread": (q[2] - q[0]) / med if med else None,
        "values": values,
    }


def main() -> int:
    records = []
    for path in sorted(glob.glob(os.path.join(OUT_DIR, "*-trace[01].json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        print("no run records under perfbench/out/", file=sys.stderr)
        return 1

    out = {"environment": records[0]["environment"], "workloads": {}}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        entry = {"seeds": [r["seed"] for r in runs]}
        if runs:
            names = runs[0]["result"]["metrics"]
            entry["end_to_end"] = {
                n: {"unit": runs[0]["result"]["metrics"][n]["unit"],
                    **_summary([r["result"]["metrics"][n]["value"] for r in runs])}
                for n in names
            }
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            reasons: dict[str, int] = {}
            for r in runs:
                for k, v in r["failure_reasons"].items():
                    reasons[k] = reasons.get(k, 0) + v
            entry["ops_attempted"] = attempted
            entry["ops_failed"] = failed
            entry["failed_share"] = failed / attempted
            entry["failure_reasons"] = reasons
            entry["all_correct"] = all(r["result"]["correct"] for r in runs)
            entry["op_tail_percentiles"] = sorted(
                {round(r["detail"]["op_tail_percentile"], 1) for r in runs}
            )
            if workload == "cli-presets":
                lat: dict[str, list] = {}
                for r in runs:
                    for op in r["detail"]["ops"]:
                        lat.setdefault(op["label"], []).append(op["wall_s"])
                entry["cli_latency_median_s"] = {
                    k: statistics.median(v) for k, v in sorted(lat.items())
                }
        if traced:
            t = traced[0]
            entry["traced"] = {
                "seed": t["seed"],
                "ops": len(t["detail"]["ops"]),
                "per_layer": {k: v["value"] for k, v in t["result"]["metrics"].items()},
                "per_call_medians": t["detail"]["per_call_medians"],
            }
        out["workloads"][workload] = entry

    rows = {}
    for row, workload, name in ROWS:
        t = out["workloads"].get(workload, {}).get("traced")
        if t and name in t["per_call_medians"]:
            rows[row] = {
                "workload": workload,
                "traced_median_s": t["per_call_medians"][name]["median_s"],
                "calls": t["per_call_medians"][name]["calls"],
                "trace_overhead_ratio": t["per_layer"]["trace.overhead_ratio"],
            }
    cli = out["workloads"].get("cli-presets", {})
    for label, v in cli.get("cli_latency_median_s", {}).items():
        rows[f"cli {label} (untraced process, wall)"] = {
            "workload": "cli-presets", "median_s": v,
        }
    out["open_items_rows"] = rows

    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote baseline.json from {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
