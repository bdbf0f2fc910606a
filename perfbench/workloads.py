"""Inputs, operations and output checks of the three benchmark workloads.

Every workload is a list of cycles built from the seed before timing starts.
A cycle holds the same kinds of operation in the same order on every seed;
the seed draws the random networks (and, on ``cli-presets``, the order of
the commands).  A run executes a number of whole cycles fixed by
``--seconds`` (see ``CYCLE_S``), so every run of one length measures the
same mix of work and checks the same number of ops, whatever its seed and
however fast the program is.

``coop-frontier``  one op = one ``coop_solve_general(params, mu1, mu2)``
    call with the default scan.  A cycle is the fig5d network with LogCost
    or LinCost user fees (the fixed-point path; the family alternates
    between cycles), ten points of the fig5a-fig5d preset weight grid, and
    one random Exp-fee network drawn like acceptance criterion 8.
``classical-sweep``  one op = ``sumrate_simultaneous``,
    ``sic_sumrate_numeric``, ``mdrb_simultaneous`` and ``mdrb_sic`` on one
    channel.  A cycle is the fig3a-fig3d and fig4 preset channels plus two
    random draws for each of the four fee families and each harvester.  The
    Exp and Lin draws come from the seed; the Log and Const draws, which
    can trip the single-order SIC defect, come from the fixed ``PANEL_SEED``
    so that the number of ops failing it is the same on every run.
``cli-presets``  one op = one ``swipt-mac`` subprocess: ``region`` on
    fig3a-fig3d, ``sumrate`` on fig4a/fig4b, ``verify`` on fig3a, fig4b and
    fig5a.

Checks run after the timed loop, against the package's brute-force oracles.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import swipt_mac as sm
from swipt_mac import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# points of the fig5 preset weight grid (weight_count = 25, mu1 = t,
# mu2 = 1 - t): every network at t = 6/24 and 18/24, two at t = 12/24
_PRESET_WEIGHTS = [
    (name, k / 24.0)
    for k in (6, 18)
    for name in ("fig5a", "fig5b", "fig5c", "fig5d")
] + [("fig5a", 0.5), ("fig5c", 0.5)]
# failures of the parent commit that are recorded, not hidden: an op that
# fails only for these reasons counts as failed but keeps `correct` true
_SIC_DEFECT = "single-order SIC sweep"
_FIXED_POINT_DEFECT = "fixed-point user budget left unspent at a zero fresh power"

# nominal CPU seconds of one cycle at the seed commit (2-vCPU x86-64 VM,
# Python 3.11; measured 30-31, 6.5-7.5 and 7.1-8.9): a run of --seconds S
# executes round(S / CYCLE_S) whole cycles, at least one, so its op count
# depends on S alone -- 1, 4 and 4 cycles at S = 30
CYCLE_S = {"coop-frontier": 31.0, "classical-sweep": 7.0, "cli-presets": 7.5}
# the untimed warm-up op: an Exp-fee solve on coop-frontier (not the slow
# fixed-point op), otherwise the first op of the first cycle
WARMUP_INDEX = {"coop-frontier": 1, "classical-sweep": 0, "cli-presets": 0}
# ops of the traced run (run once untraced, once traced): the first cycle
TRACE_CYCLES = 1
# seed of the LogCost and ConstCost draws of classical-sweep (see above)
PANEL_SEED = 5150


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[workload]))


@dataclass
class Op:
    kind: str
    label: str
    args: tuple
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _preset(name: str, **over) -> cli.RunConfig:
    kv = dict(cli.PRESETS[name])
    kv.update(over)
    return cli.ingest_config(kv)


def _draw_coop_exp(rng):
    """A random Exp-fee network, drawn as acceptance criterion 8 draws."""
    eh_iv = sm.LogisticEh(q1=1500.0, q2=0.0022, p_max_dc=0.024)
    while True:
        beta = 10.0 ** rng.uniform(-3.0, -1.7)
        b = 10.0 ** rng.uniform(0.0, 1.5)
        c = 10.0 ** rng.uniform(0.0, 1.5)
        if beta * beta * b * c <= 0.5:
            break
    n1 = n2 = 1e-6
    eh = eh_iv if rng.random() < 0.5 else sm.LinearEh(eta=rng.uniform(0.4, 1.0))
    params = sm.CoopParams(
        h1=rng.uniform(0.05, 0.3),
        h2=rng.uniform(0.05, 0.3),
        h12=math.sqrt(b * n2),
        h21=math.sqrt(c * n1),
        n1=n1,
        n2=n2,
        n=1e-6,
        n_p=1e-3,
        p_u1_budget=rng.uniform(0.2, 1.0),
        p_u2_budget=rng.uniform(0.2, 1.0),
        eh=eh,
        cost_dest=sm.ExpCost(beta=beta),
        cost_user1=sm.ExpCost(beta=beta),
        cost_user2=sm.ExpCost(beta=beta),
    )
    return params, float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))


def _coop_cycles(seed: int, n_cycles: int):
    rng = np.random.default_rng([seed, 1])
    presets = {
        name: _preset(name).coop for name in ("fig5a", "fig5b", "fig5c", "fig5d")
    }
    fixed_point = {
        fam: _preset("fig5d", cost_user_model=fam).coop for fam in ("log", "lin")
    }
    cycles = []
    for k in range(n_cycles):
        fam = ("log", "lin")[k % 2]
        ops = [Op("coop", f"fig5d-user-{fam}", (fixed_point[fam], 0.5, 0.5),
                  {"exp_users": False})]
        for name, t in _PRESET_WEIGHTS:
            ops.append(Op("coop", f"{name}@t={t:g}", (presets[name], t, 1.0 - t),
                          {"exp_users": True}))
        params, mu1, mu2 = _draw_coop_exp(rng)
        ops.append(Op("coop", f"random-exp-{k}", (params, mu1, mu2),
                      {"exp_users": True, "seeded": True}))
        cycles.append(ops)
    return cycles


_FAMILIES = (sm.ExpCost, sm.LogCost, sm.LinCost, sm.ConstCost)


def _draw_classical(rng, family, logistic: bool):
    """A random channel, drawn as acceptance criterion 8 draws, with the fee
    family and harvester given (the cycle holds every combination)."""
    h1 = rng.uniform(0.02, 0.2)
    h2 = rng.uniform(0.02, 0.2)
    level = 10.0 ** rng.uniform(-3.2, -1.5)
    cost = family(level)
    eh = (
        sm.LogisticEh(q1=1500.0, q2=0.0022, p_max_dc=0.024)
        if logistic
        else sm.LinearEh(eta=rng.uniform(0.3, 1.0))
    )
    return sm.ClassicalParams(
        h1_sq=h1 * h1,
        h2_sq=h2 * h2,
        p1=rng.uniform(0.1, 1.0),
        p2=rng.uniform(0.1, 1.0),
        n=1e-6,
        n_p=1e-3,
        eh=eh,
        cost=cost,
    )


def _classical_cycles(seed: int, n_cycles: int):
    rng = np.random.default_rng([seed, 2])
    presets = [
        (name, _preset(name).classical)
        for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig4a")
    ]
    cycles = []
    for k in range(n_cycles):
        panel = np.random.default_rng([PANEL_SEED, k])
        ops = [Op("classical", name, (p,), {"family": type(p.cost).__name__})
               for name, p in presets]
        for family in _FAMILIES:
            seeded = family in (sm.ExpCost, sm.LinCost)
            for logistic in (True, False):
                for i in range(2):
                    p = _draw_classical(rng if seeded else panel, family, logistic)
                    ops.append(Op(
                        "classical",
                        f"random-{family.__name__}-{'logistic' if logistic else 'linear'}-{k}.{i}",
                        (p,),
                        {"family": family.__name__, "seeded": seeded},
                    ))
        cycles.append(ops)
    return cycles


CLI_OPS = (
    ("region", "fig3a"),
    ("region", "fig3b"),
    ("region", "fig3c"),
    ("region", "fig3d"),
    ("sumrate", "fig4a"),
    ("sumrate", "fig4b"),
    ("verify", "fig3a"),
    ("verify", "fig4b"),
    ("verify", "fig5a"),
)


def _cli_cycles(seed: int, n_cycles: int):
    rng = np.random.default_rng([seed, 3])
    cycles = []
    for _ in range(n_cycles):
        order = rng.permutation(len(CLI_OPS))
        cycles.append([
            Op("cli", f"{CLI_OPS[i][0]} {CLI_OPS[i][1]}",
               (CLI_OPS[i][0], "--preset", CLI_OPS[i][1]))
            for i in order
        ])
    return cycles


BUILDERS = {
    "coop-frontier": _coop_cycles,
    "classical-sweep": _classical_cycles,
    "cli-presets": _cli_cycles,
}


def build(workload: str, seed: int, n_cycles: int):
    return BUILDERS[workload](seed, n_cycles)


# ---------------------------------------------------------------------------
# running one op
# ---------------------------------------------------------------------------


# a CLI op that runs this long is broken; the child is killed and the op fails
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(op: Op, trace_out: str | None = None):
    """Execute one op and return its raw output (exceptions are outputs)."""
    if op.kind == "coop":
        return sm.coop_solve_general(*op.args)
    if op.kind == "classical":
        (p,) = op.args
        out = {}
        for key, fn in (
            ("simul", sm.sumrate_simultaneous),
            ("sic", sm.sic_sumrate_numeric),
        ):
            try:
                out[key] = fn(p)
            except sm.InfeasibleRegionError as err:
                out[key] = err
        out["mdrb_simul"] = sm.mdrb_simultaneous(p)
        out["mdrb_sic"] = sm.mdrb_sic(p)
        return out
    if trace_out is None:
        cmd = [sys.executable, "-m", "swipt_mac.cli", *op.args]
    else:
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_out, *op.args]
    proc = subprocess.run(
        cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S
    )
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


# ---------------------------------------------------------------------------
# fingerprints (bitwise comparison of traced and untraced outputs)
# ---------------------------------------------------------------------------


def _plain(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer, bool, str)) or x is None:
        return repr(x)
    if isinstance(x, dict):
        items = sorted(x.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{k!r}:{_plain(v)}" for k, v in items) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_plain(v) for v in x) + "]"
    if isinstance(x, np.ndarray):
        return _plain(x.tolist())
    if isinstance(x, BaseException):
        return f"{type(x).__name__}({x})"
    if hasattr(x, "__dataclass_fields__"):
        return type(x).__name__ + _plain({k: getattr(x, k) for k in x.__dataclass_fields__})
    return repr(x)


def fingerprint(out) -> str:
    if isinstance(out, dict) and "stdout" in out:
        return f"{out['rc']}:" + hashlib.sha256(out["stdout"]).hexdigest()
    return hashlib.sha256(_plain(out).encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

with open(os.path.join(HERE, "cli_hashes.json"), encoding="utf-8") as _fh:
    CLI_HASHES = json.load(_fh)


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    objective: float | None = None
    known: bool = False  # a recorded defect of the parent commit


def _max_curve_sum(curve):
    if not curve.points:
        return None
    return max(p.r1 + p.r2 for p in curve.points)


def compact(op: Op, out):
    """What the checks need of an output.  Classical outputs carry two
    512-point curves; keeping them whole would make the run's memory grow
    with the number of ops."""
    if op.kind != "classical" or isinstance(out, BaseException):
        return out
    small = {}
    for key in ("simul", "sic"):
        rep = out[key]
        small[key] = rep if isinstance(rep, BaseException) else {
            "sum_rate": rep.sum_rate,
            "relabeled": rep.notes.get("relabeled", False),
        }
    for key in ("mdrb_simul", "mdrb_sic"):
        small[key] = _max_curve_sum(out[key])
    return small


def _check_classical(op: Op, out) -> Verdict:
    (p,) = op.args
    orc = {
        "simul": sm.oracle_simul_sumrate(p, 1e-5),
        "sic": sm.oracle_sic_sumrate(p, 1e-5),
    }
    problems = []
    sums = []
    for key in ("simul", "sic"):
        rep, best = out[key], orc[key].sum_rate
        if isinstance(rep, sm.InfeasibleRegionError):
            sums.append(0.0)
            if best != 0.0:
                problems.append((f"{key}: infeasible but oracle finds {best:.6g} bits", False))
            continue
        sums.append(rep["sum_rate"])
        gap = rep["sum_rate"] - best
        if abs(gap) > 1e-4:
            # the solver sweeps one decoding order only (stronger user
            # first); when the oracle's best uses the other order and the
            # solver falls short, that is the documented defect
            solver_first = "user2_first" if rep["relabeled"] else "user1_first"
            known = (
                key == "sic"
                and gap < 0.0
                and not orc["sic"].notes["branch"].startswith(solver_first)
            )
            reason = _SIC_DEFECT if known else f"{key} sum-rate gap {gap:+.3g} bits"
            problems.append((reason, known))
    for key, okey in (("mdrb_simul", "simul"), ("mdrb_sic", "sic")):
        top, best = out[key], orc[okey].sum_rate
        if top is None:
            if best != 0.0:
                problems.append((f"{key}: empty region but oracle finds {best:.6g} bits", False))
        elif top > best + 1e-4:
            problems.append((f"{key}: r1+r2 {top:.6g} exceeds oracle {best:.6g}", False))
    objective = sum(sums) / len(sums)
    if not problems:
        return Verdict(True, objective=objective)
    known = all(k for _, k in problems)
    return Verdict(False, "; ".join(r for r, _ in problems), objective, known)


def _check_coop(op: Op, sol) -> Verdict:
    params, mu1, mu2 = op.args
    res = sol.constraint_residuals
    problems = []
    known = []
    for k in ("budget1_w", "budget2_w"):
        if not abs(res[k]) < 1e-9:
            # the fixed-point elimination of non-Exp user fees stops where
            # the other user's fresh power reaches 0 instead of at the
            # budget equality, leaving budget unspent
            defect = (
                not op.meta["exp_users"]
                and res[k] > 0.0
                and min(sol.alloc.p12, sol.alloc.p21) < 1e-12
            )
            problems.append(_FIXED_POINT_DEFECT if defect else f"{k} residual {res[k]:.3g}")
            known.append(defect)
    # non-negative up to the 1e-9 the package's own tests allow
    for k in ("dest_cost_w", "sum_mi_bits"):
        if not res[k] >= -1e-9:
            problems.append(f"{k} slack {res[k]:.3g}")
    if op.meta["exp_users"]:
        orc = sm.oracle_coop_weighted(params, mu1, mu2, grid=201)
        gap = sol.weighted_rate - orc.weighted_rate
        if not -1e-9 <= gap <= 5e-2:
            problems.append(f"solver-minus-grid {gap:+.3g} bits")
    if problems:
        is_known = len(known) == len(problems) and all(known)
        reason = "; ".join(dict.fromkeys(problems))
        return Verdict(False, reason, sol.weighted_rate, is_known)
    return Verdict(True, objective=sol.weighted_rate)


def _check_cli(op: Op, out) -> Verdict:
    cmd, _, preset = op.args
    if out["rc"] != 0:
        tail = out["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        return Verdict(False, f"exit code {out['rc']}: {' '.join(tail)}")
    if cmd == "verify":
        if b"overall: PASS" not in out["stdout"]:
            return Verdict(False, "verify did not print 'overall: PASS'")
        return Verdict(True)
    want = CLI_HASHES[f"{cmd} {preset}"]
    got = hashlib.sha256(out["stdout"]).hexdigest()
    if got != want:
        return Verdict(False, "CSV differs from the recorded SHA-256")
    return Verdict(True)


def cli_optima(op: Op, out) -> list:
    """Optima a CLI op prints: the sweep's ``opt`` row, the analytic line
    of ``verify``.  ``region`` prints none."""
    if not isinstance(out, dict) or out["rc"] != 0:
        return []
    text = out["stdout"].decode()
    if op.args[0] == "sumrate":
        last = text.strip().splitlines()[-1].split(",")
        return [float(last[1])] if last[-1] == "opt" else []
    if op.args[0] == "verify":
        m = re.search(r"^analytic: rho=\S+ (?:sum|weighted)=(\S+)", text, re.M)
        return [float(m.group(1))] if m else []
    return []


def check(op: Op, out) -> Verdict:
    if isinstance(out, BaseException):
        return Verdict(False, f"raised {type(out).__name__}: {out}")
    if op.kind == "coop":
        return _check_coop(op, out)
    if op.kind == "classical":
        return _check_classical(op, out)
    return _check_cli(op, out)
