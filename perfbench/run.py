#!/usr/bin/env python3
"""swipt-mac benchmark: one closed loop, one client, one op at a time.

    python3 perfbench/run.py --workload coop-frontier --seed 7101 \
        --seconds 30 --trace 0

Workloads: coop-frontier, classical-sweep, cli-presets (see workloads.py),
or ``all`` to run the three in turn.  With ``--trace 0`` the timed loop runs
the whole cycles of the workload that take about ``--seconds`` at the seed
commit (their number depends on ``--seconds`` alone, so a faster program
finishes sooner), then checks every output and prints the end-to-end
metrics, timed in CPU seconds (see README.md).  With ``--trace 1`` it runs
the first cycle once untraced and once traced, requires bitwise-identical
outputs, and prints the per-layer metrics.  The last line of standard output is the
result as one JSON object; a fuller record, with the commit, ``nproc`` and
library versions, goes to ``perfbench/out/``.

Run from the root of a checkout of the repository; the package is imported
from ``src/``.
"""

from __future__ import annotations

import os
import sys

# pin BLAS/OpenMP pools before numpy loads, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("coop-frontier", "classical-sweep", "cli-presets")
SETUP_PROBES = 7
DEFAULT_SEED = 7101  # the suite uses 20260331, 20260808 and 20260909
CHECK_SEED = 7202  # a second seed for checking a claimed gain

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "objective_mean_bits": "bits",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("share") or name.endswith("ratio"):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(workload: str, seed: int, n_cycles: int):
    """Median import and set-up CPU time over fresh interpreters."""
    import workloads

    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed),
             str(n_cycles)],
            capture_output=True, text=True, env=workloads.child_env(), cwd=ROOT,
            check=True, timeout=workloads.CHILD_TIMEOUT_S,
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (
        statistics.median(r["setup_s"] for r in runs),
        statistics.median(r["import_s"] for r in runs),
    )


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    i = max(n - 11, 0)
    return xs[i], 100.0 * (i + 1) / n, n


def run_checks(pairs):
    import workloads

    verdicts = [workloads.check(op, out) for op, out in pairs]
    reasons: dict[str, int] = {}
    for v in verdicts:
        if not v.ok:
            reasons[v.reason] = reasons.get(v.reason, 0) + 1
    return verdicts, reasons


def objective_mean(pairs, verdicts, workload: str):
    """Mean optimum over the ops, leaving out the seeded draws so that the
    value is the same on every seed; the draws are still checked against
    the oracles."""
    import workloads

    vals = []
    for (op, out), v in zip(pairs, verdicts):
        if op.meta.get("seeded"):
            continue
        if workload == "cli-presets":
            vals += workloads.cli_optima(op, out)
        elif v.objective is not None:
            vals.append(v.objective)
    return sum(vals) / len(vals)


def run_untraced(workload, cycles):
    import workloads

    pairs, lat, wall = [], [], []
    t_start, c_start = time.perf_counter(), cpu_s()
    for cycle in cycles:
        for op in cycle:
            out, dt, dw = _timed_op(op)
            lat.append(dt)
            wall.append(dw)
            pairs.append((op, workloads.compact(op, out)))
    busy = cpu_s() - c_start
    elapsed = time.perf_counter() - t_start
    who = resource.RUSAGE_CHILDREN if workload == "cli-presets" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    verdicts, reasons = run_checks(pairs)
    t_val, t_pct, t_n = tail(lat)
    metrics = {
        "ops_per_s": len(lat) / busy,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": t_val,
        "peak_rss_mb": peak_rss_mb,
        "objective_mean_bits": objective_mean(pairs, verdicts, workload),
    }
    detail = {
        "cpu_s": busy,
        "elapsed_s": elapsed,
        "wall_ops_per_s": len(wall) / elapsed,
        "wall_op_p50_s": statistics.median(wall),
        "wall_op_tail_s": tail(wall)[0],
        "cycles": len(cycles),
        "op_tail_percentile": t_pct,
        "op_samples": t_n,
        "ops": [
            {"label": op.label, "cpu_s": dt, "wall_s": dw, "ok": v.ok,
             "reason": v.reason}
            for (op, _), dt, dw, v in zip(pairs, lat, wall, verdicts)
        ],
    }
    return metrics, verdicts, reasons, detail


def cpu_s() -> float:
    """User + system seconds of this process and of its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _timed_op(op, trace_out=None):
    """(output, CPU seconds, wall seconds) of one op; a raised exception is
    the output."""
    import workloads

    t0, c0 = time.perf_counter(), cpu_s()
    try:
        out = workloads.run_op(op, trace_out)
    except Exception as err:  # recorded as a failed op with its reason
        out = err
    return out, cpu_s() - c0, time.perf_counter() - t0


def run_plain(ops):
    """(fingerprints, compact outputs, seconds in the ops), untraced."""
    import workloads

    prints, outs, busy = [], [], 0.0
    for op in ops:
        out, dt, _ = _timed_op(op)
        busy += dt
        prints.append(workloads.fingerprint(out))
        outs.append(workloads.compact(op, out))
    return prints, outs, busy


def run_under_tracer(workload, ops, tag, spans_path=None):
    """The ops under the tracer: (fingerprints, seconds in the ops, stats,
    durations, child times).

    Library ops are traced in this process; each CLI op is a traced child
    that writes its own record."""
    import swipt_mac
    import workloads
    from tracer import Tracer, merge_stats

    tracer = Tracer()
    stats, durations = {}, {}
    child = {"import_s": [], "main_s": [], "process_s": []}
    prints, busy = [], 0.0
    tmp = os.path.join(OUT_DIR, f"{tag}-child.json")
    cli = workload == "cli-presets"
    if not cli:
        tracer.install(swipt_mac)
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            out, dt, dw = _timed_op(op, tmp if cli else None)
            busy += dt
            prints.append(workloads.fingerprint(out))
            if not cli:
                continue
            child["process_s"].append(dw)
            with open(tmp, encoding="utf-8") as fh:
                rec = json.load(fh)
            os.remove(tmp)
            child["import_s"].append(rec["import_s"])
            child["main_s"].append(rec["main_s"])
            merge_stats(stats, rec["stats"])
            for name, d in rec["durations"].items():
                durations.setdefault(name, []).extend(d)
    finally:
        tracer.uninstall()
    if not cli:
        merge_stats(stats, tracer.summary())
        durations = tracer.durations()
        if spans_path:
            tracer.write_spans(spans_path)
    return prints, busy, stats, durations, child


def mismatches(ops, prints_a, prints_b):
    """Labels of ops whose two outputs are not bitwise identical."""
    return [op.label for op, a, b in zip(ops, prints_a, prints_b) if a != b]


def run_traced(workload, cycles, import_s, tag):
    import workloads
    from tracer import layer_metrics, per_call_medians

    ops = [op for cycle in cycles[: workloads.TRACE_CYCLES] for op in cycle]
    plain_prints, plain, untraced_s = run_plain(ops)
    traced_prints, traced_s, stats, durations, child = run_under_tracer(
        workload, ops, tag, os.path.join(OUT_DIR, f"{tag}-spans.jsonl.gz")
    )
    verdicts, reasons = run_checks(list(zip(ops, plain)))
    mismatched = mismatches(ops, plain_prints, traced_prints)
    if mismatched:
        reasons["traced output differs from untraced"] = len(mismatched)

    metrics = layer_metrics(stats)
    if workload == "cli-presets":
        for k in ("import_s", "main_s", "process_s"):
            metrics[f"cli.{k}"] = statistics.median(child[k])
    else:
        metrics["cli.import_s"] = import_s
        metrics["cli.main_s"] = 0.0
        metrics["cli.process_s"] = 0.0
    metrics["trace.overhead_ratio"] = untraced_s / traced_s
    detail = {
        "ops": [op.label for op in ops],
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "mismatched": mismatched,
        "stats": stats,
        "per_call_medians": per_call_medians(durations),
        "cli_children": child if workload == "cli-presets" else None,
    }
    return metrics, verdicts, reasons, detail, bool(mismatched)


def use_checkout():
    """Import the package from this checkout's src/ and the benchmark's own
    modules from here."""
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    use_checkout()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    n_cycles = workloads.cycles_for(workload, seconds)
    setup_s, import_s = measure_setup(workload, seed, n_cycles)
    cycles = workloads.build(workload, seed, n_cycles)

    _timed_op(cycles[0][workloads.WARMUP_INDEX[workload]])  # untimed warm-up

    broken = False
    if trace:
        metrics, verdicts, reasons, detail, broken = run_traced(
            workload, cycles, import_s, tag
        )
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics, verdicts, reasons, detail = run_untraced(workload, cycles)
        metrics = {"setup_s": setup_s, **metrics}
        units = UNITS
    correct = not broken and all(v.ok or v.known for v in verdicts)
    result = {
        "correct": correct,
        "attempted": len(verdicts),
        "failed": sum(1 for v in verdicts if not v.ok),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "setup": {"setup_s": setup_s, "import_s": import_s},
        "failure_reasons": reasons, "result": result, "detail": detail,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for k, v in metrics.items():
        print(f"  {k:45s} {v:.6g} {units[k]}")
    if not trace:
        print(f"  op_tail_s is p{detail['op_tail_percentile']:.1f} of "
              f"{detail['op_samples']} samples")
    print(f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    for reason, count in sorted(reasons.items()):
        print(f"    failed x{count}: {reason}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (use {CHECK_SEED} as a second seed "
                    "when checking a claimed gain)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "swipt_mac", "__init__.py")):
        print(f"error: no swipt_mac package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            combined["metrics"][w] = res["metrics"]
        print(json.dumps(combined))
        return 0

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
