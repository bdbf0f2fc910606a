"""Command-line front end.

    swipt-mac region  --config run.cfg [--preset fig3a] [--out region.csv]
    swipt-mac sumrate --preset fig4a [--out sweep.csv]
    swipt-mac coop    --preset fig5a [--out table.csv]
    swipt-mac verify  --config run.cfg

Config files are flat ``key = value`` lines (``#`` comments).  Any numeric
value may carry a ``dB``/``dBW`` suffix and is converted as 10^(x/10) watts
(decibels relative to 1 W).  A preset seeds the key set; explicit config
keys override it.  Output is CSV (stdout unless --out), floats printed with
%.12g so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .models import (
    ClassicalParams,
    ConstCost,
    CoopParams,
    ExpCost,
    LinCost,
    LinearEh,
    LogCost,
    LogisticEh,
    ModelDomainError,
)
from .numerics import ScanConfig
from .classical_simul import (
    InfeasibleRegionError,
    mdrb_simultaneous,
    rate_bound_sum,
    sumrate_simultaneous,
)
from .classical_sic import mdrb_sic, sic_max_sum_at_rho, sic_sumrate_numeric
from .coop_mac import _P12_STEPS, _ZOOM, _check_weights, _solve, coop_mdrb, coop_solve_general
from .oracle import (
    _MAX_GRID, _MAX_POINTS, _rho_points, oracle_coop_weighted, oracle_sic_sumrate,
    oracle_simul_sumrate,
)

__all__ = ["ConfigError", "RunConfig", "ingest_config", "PRESETS", "main"]


class ConfigError(ValueError):
    """Raised for missing/unknown/ill-typed configuration keys."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_BASE = {
    "eh_model": "logistic",
    "eh_q1": "1500",
    "eh_q2": "0.0022",
    "eh_p_max_dc": "0.024",
    "d1": "3",
    "d2": "3",
    "alpha": "2",
    "p1": "0.5",
    "p2": "0.5",
    "n": "-60dB",
    "n_p": "-30dB",
}

_SWEEP = {**_BASE, "cost_model": "exp", "cost_beta": "0.1", "rho_points": "1001",
          "rho_max": "0.95"}
_COOP = {**_BASE, "scenario": "coop", "cost_model": "exp", "h_u": "0.008",
         "weight_count": "25"}

PRESETS = {
    # rate-region comparisons, one cost family each
    "fig3a": {**_BASE, "scenario": "classical-simul", "cost_model": "exp", "cost_beta": "0.001"},
    "fig3b": {**_BASE, "scenario": "classical-simul", "cost_model": "log", "cost_beta": "0.001"},
    "fig3c": {**_BASE, "scenario": "classical-simul", "cost_model": "lin", "cost_beta": "0.001"},
    "fig3d": {**_BASE, "scenario": "classical-simul", "cost_model": "const", "cost_phi0": "0.013"},
    # sum-rate-vs-rho sweeps (saturation showcase); the curve dips toward
    # rho=1 so the sweep stops at 0.95
    "fig4a": {**_SWEEP, "scenario": "classical-simul"},
    "fig4b": {**_SWEEP, "scenario": "classical-sic"},
    # cooperation vs classical at increasing decoding-cost slopes
    "fig5a": {**_COOP, "cost_beta": "-30dB"},
    "fig5b": {**_COOP, "cost_beta": "-27dB"},
    "fig5c": {**_COOP, "cost_beta": "-24dB"},
    "fig5d": {**_COOP, "cost_beta": "-21dB"},
}

_ANY = (-math.inf, math.inf)

# run knobs: name -> (type, least, most).  An int knob lies in [least, most],
# a float knob in (least, most].  A knob that sizes an array holds it to the
# oracles' ceiling of _MAX_POINTS points.  For oracle_rho_step that ceiling
# bounds the one rho grid array and the run time: the classical oracles'
# working arrays hold one block of 8192 points, so their tracemalloc peaks
# are 1.3 and 1.8 MiB at the default 1e-5 and the grid plus 1 MiB at 1e-6.
_KNOBS = {
    "rho_points": (int, 1, _MAX_POINTS),
    "rho_max": (float, 0.0, 1.0),
    "region_points": (int, 2, (_MAX_POINTS - 2) // 4),  # mdrb_sic: 4n + 2 intercepts
    "weight_count": (int, 1, _MAX_POINTS),
    # the cooperative p12 grid holds _P12_STEPS * (scan_points - 1) + 1 points
    "scan_points": (int, 3, (_MAX_POINTS - 1) // _P12_STEPS + 1),
    # 0 and 1 give one zoom level, each 2 more one more (past about ten a
    # level bisects nothing)
    "scan_refine": (int, 0, 128),
    "mu1": (float, *_ANY),  # the pair also meets the solvers' weight rule
    "mu2": (float, *_ANY),
    "oracle_rho_step": (float, 0.0, 1.0),
    "oracle_grid": (int, 2, _MAX_GRID),
}

_KNOWN_KEYS = {
    "scenario",
    "eh_model", "eh_q1", "eh_q2", "eh_p_max_dc", "eh_eta",
    "cost_model", "cost_beta", "cost_phi0",
    "cost_user_model", "cost_user_beta", "cost_user_phi0",
    "d1", "d2", "alpha",
    "h1_sq", "h2_sq", "h1", "h2", "h12", "h21", "h_u",
    "p1", "p2", "p_u1_budget", "p_u2_budget",
    "n", "n_p", "n1", "n2",
    "out", *_KNOBS,
}


@dataclass
class RunConfig:
    """Validated run description: scenario, built parameter record, knobs."""

    scenario: str
    classical: ClassicalParams | None = None
    coop: CoopParams | None = None
    rho_points: int = 1001
    rho_max: float = 1.0
    region_points: int = 512
    weight_count: int = 25
    scan_points: int = 61
    scan_refine: int = 24
    mu1: float = 0.5
    mu2: float = 0.5
    oracle_rho_step: float = 1e-5
    oracle_grid: int = 201
    out: str | None = None

    @property
    def scan(self) -> ScanConfig:
        return ScanConfig(grid_points=self.scan_points, refine_iters=self.scan_refine)


def _parse_number(key: str, raw: str) -> float:
    txt = raw.strip()
    scale_db = False
    for suffix in ("dBW", "dbw", "dB", "db"):
        if txt.endswith(suffix):
            txt = txt[: -len(suffix)].strip()
            scale_db = True
            break
    try:
        val = float(txt)
        if scale_db:
            val = 10.0 ** (val / 10.0)
    except (ValueError, OverflowError) as err:
        raise ConfigError(key, f"expected a number, got {raw!r}") from err
    if not math.isfinite(val):
        raise ConfigError(key, f"expected a finite number, got {raw!r}")
    return val


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError("<file>", f"cannot read config file {path!r}: {err}")
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(
                "<file>", f"{path}:{lineno}: expected 'key = value', got {body!r}"
            )
        key, _, value = body.partition("=")
        out[key.strip()] = value.strip()
    return out


# model families: config name -> (class, its parameters, each read from
# the config key <prefix>_<parameter>)
_EH_MODELS = {"logistic": (LogisticEh, ("q1", "q2", "p_max_dc")), "linear": (LinearEh, ("eta",))}
_COST_MODELS = {
    "exp": (ExpCost, ("beta",)),
    "log": (LogCost, ("beta",)),
    "lin": (LinCost, ("beta",)),
    "const": (ConstCost, ("phi0",)),
}


def _build_model(kv: dict, prefix: str, family: str, models: dict):
    model = kv.get(f"{prefix}_model")
    if model is None:
        raise ConfigError(f"{prefix}_model", "missing required key")
    model = model.lower()
    if model not in models:
        raise ConfigError(f"{prefix}_model", f"unknown {family} model {model!r}")
    cls, names = models[model]
    keys = [f"{prefix}_{name}" for name in names]
    for key in keys:
        if key not in kv:
            raise ConfigError(key, f"required by {prefix}_model={model}")
    return cls(**{name: _parse_number(key, kv[key]) for name, key in zip(names, keys)})


def _get_num(kv, key, default=None):
    if key in kv:
        return _parse_number(key, kv[key])
    if default is None:
        raise ConfigError(key, "missing required key")
    return default


def _gains(kv: dict, keys: tuple, power: float) -> list:
    """The destination gains named by keys, or d^(-power*alpha) from the
    distances d1, d2 when neither is given."""
    if any(key in kv for key in keys):
        return [_get_num(kv, key) for key in keys]
    alpha = _get_num(kv, "alpha")
    return [_get_num(kv, d) ** (-power * alpha) for d in ("d1", "d2")]


def _read_knob(key: str, raw: str, kind, least, most):
    if kind is float:
        val = _parse_number(key, raw)
        if not least < val <= most:
            raise ConfigError(key, f"must lie in ({least:g}, {most:g}]")
        return val
    try:
        val = int(raw)
    except ValueError as err:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from err
    if val < least:
        raise ConfigError(key, f"must be >= {least}")
    if val > most:
        raise ConfigError(key, f"must be <= {most}")
    return val


def ingest_config(kv: dict) -> RunConfig:
    """Validate a flat key/value mapping into a RunConfig.

    Channel gains derive from distances (|h|^2 = d^(-2*alpha)) unless given
    explicitly; dB-suffixed values are watts relative to 1 W.
    """
    for key in kv:
        if key not in _KNOWN_KEYS:
            raise ConfigError(key, "unknown config key")
    scenario = kv.get("scenario")
    if scenario is None:
        raise ConfigError("scenario", "missing required key")
    if scenario not in ("classical-simul", "classical-sic", "coop"):
        raise ConfigError("scenario", f"unknown scenario {scenario!r}")

    eh = _build_model({"eh_model": "logistic", **kv}, "eh", "EH", _EH_MODELS)
    cost = _build_model(kv, "cost", "cost", _COST_MODELS)
    n = _get_num(kv, "n")
    n_p = _get_num(kv, "n_p")

    cfg = RunConfig(scenario=scenario, out=kv.get("out"))
    for key, rule in _KNOBS.items():
        if key in kv:
            setattr(cfg, key, _read_knob(key, kv[key], *rule))
    # the library's own rules, checked before anything is allocated or solved
    try:
        _rho_points(cfg.oracle_rho_step)
    except ValueError as err:
        raise ConfigError("oracle_rho_step", str(err)) from None
    try:
        _check_weights(cfg.mu1, cfg.mu2)
    except ValueError as err:  # named by the negative weight, else by mu1
        raise ConfigError("mu2" if cfg.mu1 >= 0 > cfg.mu2 else "mu1", str(err)) from None

    if scenario != "coop":
        h1_sq, h2_sq = _gains(kv, ("h1_sq", "h2_sq"), 2.0)
        cfg.classical = ClassicalParams(
            h1_sq=h1_sq,
            h2_sq=h2_sq,
            p1=_get_num(kv, "p1"),
            p2=_get_num(kv, "p2"),
            n=n,
            n_p=n_p,
            eh=eh,
            cost=cost,
        )
        return cfg

    # the trace holds 2 * weight_count rows of the p12 grid or of a zoom level
    points = max(_P12_STEPS * (cfg.scan_points - 1) + 1, _ZOOM.size)
    if 2 * cfg.weight_count * points > _MAX_POINTS:
        raise ConfigError("weight_count", f"2 * weight_count rows of {points} scan points "
                          f"exceed the ceiling of {_MAX_POINTS}")
    # cooperation: destination amplitudes + inter-user amplitudes
    h1, h2 = _gains(kv, ("h1", "h2"), 1.0)
    if "h_u" in kv:
        h12 = h21 = _get_num(kv, "h_u")
    else:
        h12 = _get_num(kv, "h12")
        h21 = _get_num(kv, "h21")
    if "cost_user_model" in kv:
        # a user-fee parameter left out is the destination fee's, if given
        fallback = {k.replace("cost_", "cost_user_"): kv[k]
                    for k in ("cost_beta", "cost_phi0") if k in kv}
        cost_user = _build_model({**fallback, **kv}, "cost_user", "cost", _COST_MODELS)
    else:
        cost_user = cost
    # budgets default to the classical per-user powers so the shared presets
    # cover both scenario families
    bud1, bud2 = (_get_num(kv, f"p_u{i}_budget" if f"p_u{i}_budget" in kv else f"p{i}")
                  for i in (1, 2))
    cfg.coop = CoopParams(
        h1=h1,
        h2=h2,
        h12=h12,
        h21=h21,
        n1=_get_num(kv, "n1", n),
        n2=_get_num(kv, "n2", n),
        n=n,
        n_p=n_p,
        p_u1_budget=bud1,
        p_u2_budget=bud2,
        eh=eh,
        cost_dest=cost,
        cost_user1=cost_user,
        cost_user2=cost_user,
    )
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _weights(cfg: RunConfig) -> list:
    """The weight pairs (t, 1 - t) at weight_count even steps of t over [0, 1]."""
    return [(float(t), float(1.0 - t)) for t in np.linspace(0.0, 1.0, cfg.weight_count)]


def cmd_region(cfg: RunConfig, out_path: str | None) -> int:
    header = "r2_bits,r1_bits,rho,order_or_weights,hulled"
    if cfg.scenario == "coop":
        curve = coop_mdrb(cfg.coop, weights=_weights(cfg), scan=cfg.scan)
        tag = lambda m: f"mu1={_fmt(m.get('mu1', ''))};mu2={_fmt(m.get('mu2', ''))}"
    else:
        simul = cfg.scenario == "classical-simul"
        curve = (mdrb_simultaneous if simul else mdrb_sic)(cfg.classical,
                                                          n_points=cfg.region_points)
        tag = lambda m: m.get("order", m.get("segment", ""))
    lines = [header]
    if not len(curve):
        lines.append(f"# empty: {curve.empty_reason or 'no feasible rate pair'}")
    hulled = "1" if curve.hulled else "0"
    tags = [tag(m) for m in curve.labels]
    for r2, r1, rho, k in zip(curve.r2.tolist(), curve.r1.tolist(), curve.rho.tolist(),
                              curve.label.tolist()):
        lines.append(f"{_fmt(r2)},{_fmt(r1)},{_fmt(rho)},{tags[k]},{hulled}")
    _emit(lines, out_path)
    return 0


def cmd_sumrate(cfg: RunConfig, out_path: str | None) -> int:
    if cfg.scenario == "coop":
        raise ConfigError("scenario", "sumrate sweeps apply to classical scenarios")
    params = cfg.classical
    simul = cfg.scenario == "classical-simul"
    rhos = np.linspace(0.0, cfg.rho_max, cfg.rho_points)
    lines = ["rho,sum_rate_bits,binding_constraint"]
    if simul:
        bound = rate_bound_sum(params, rhos)
        psi = params.eh.eval(rhos * params.a)
        sums = params.cost.rate_cap(psi, bound)
        for rho, s_val, b_val in zip(rhos, sums, bound):
            binding = "cost" if s_val < b_val - 1e-15 else "rate"
            lines.append(f"{_fmt(float(rho))},{_fmt(float(s_val))},{binding}")
    else:
        for rho in rhos:
            s_val, binding = sic_max_sum_at_rho(params, float(rho))
            lines.append(f"{_fmt(float(rho))},{_fmt(s_val)},{binding}")
    opt = (sumrate_simultaneous if simul else sic_sumrate_numeric)(params)
    lines.append(f"{_fmt(opt.rho_opt)},{_fmt(opt.sum_rate)},opt")
    _emit(lines, out_path)
    return 0


def cmd_coop(cfg: RunConfig, out_path: str | None) -> int:
    if cfg.scenario != "coop":
        raise ConfigError("scenario", "the coop command needs scenario=coop")
    lines = ["mu1,mu2,r1_bits,r2_bits,rho,p12,p21,pu1,pu2,weighted_rate,source,valid"]
    # every weight pair out of one trace of the network
    for sol in _solve(cfg.coop, _weights(cfg), cfg.scan):
        a = sol.alloc
        nums = (sol.mu1, sol.mu2, sol.r1, sol.r2, sol.rho, a.p12, a.p21, a.pu1, a.pu2,
                sol.weighted_rate)
        lines.append(",".join([*map(_fmt, nums), sol.source,
                               "1" if sol.cooperation_valid else "0"]))
    _emit(lines, out_path)
    return 0


def cmd_verify(cfg: RunConfig, out_path: str | None) -> int:
    lines = [f"verify scenario={cfg.scenario}"]
    fails = 0

    def check(name, value, tol):
        nonlocal fails
        ok = value <= tol
        fails += 0 if ok else 1
        lines.append(
            f"{name}: {_fmt(float(value))} (tol {_fmt(float(tol))}) -> "
            + ("PASS" if ok else "FAIL")
        )

    if cfg.scenario == "coop":
        if not isinstance(cfg.coop.cost_user1, ExpCost):  # the oracle's rule
            key = "cost_model" if cfg.coop.cost_user1 is cfg.coop.cost_dest else "cost_user_model"
            raise ConfigError(key, "the cooperative grid oracle needs Exp user costs")
        sol = coop_solve_general(cfg.coop, cfg.mu1, cfg.mu2, cfg.scan)
        orc = oracle_coop_weighted(cfg.coop, cfg.mu1, cfg.mu2, cfg.oracle_grid)
        lines.append(
            f"analytic: rho={_fmt(sol.rho)} weighted={_fmt(sol.weighted_rate)}"
            f" source={sol.source}"
        )
        lines.append(
            f"oracle:   rho={_fmt(orc.rho)} weighted={_fmt(orc.weighted_rate)}"
        )
        # one-sided: only a solver short of its oracle fails
        check(
            "weighted_rate_gap_bits",
            max(orc.weighted_rate - sol.weighted_rate, 0.0),
            5e-3,
        )
        for key in ("budget1", "budget2", "dest_cost"):
            check(f"{key}_residual_w", abs(sol.constraint_residuals[f"{key}_w"]), 1e-9)
    else:
        simul = cfg.scenario == "classical-simul"
        ana = (sumrate_simultaneous if simul else sic_sumrate_numeric)(cfg.classical)
        orc = (oracle_simul_sumrate if simul else oracle_sic_sumrate)(
            cfg.classical, cfg.oracle_rho_step
        )
        lines.append(f"analytic: rho={_fmt(ana.rho_opt)} sum={_fmt(ana.sum_rate)}")
        lines.append(f"oracle:   rho={_fmt(orc.rho_opt)} sum={_fmt(orc.sum_rate)}")
        check("sum_rate_gap_bits", abs(ana.sum_rate - orc.sum_rate), 1e-4)
        res = ana.residuals.get("cost_balance_w", 0.0)
        check("cost_balance_residual_w", abs(res), 1e-9)
    lines.append("overall: " + ("PASS" if fails == 0 else f"FAIL ({fails})"))
    _emit(lines, out_path)
    return 0 if fails == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _load_run(args) -> RunConfig:
    kv: dict = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                "preset",
                f"unknown preset {args.preset!r}; available: "
                + ", ".join(sorted(PRESETS)),
            )
        kv.update(PRESETS[args.preset])
    if args.config:
        kv.update(_read_config_file(args.config))
    if not kv:
        raise ConfigError("<args>", "need --config and/or --preset")
    return ingest_config(kv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swipt-mac",
        description="Rate regions and optimal power splitting for two-user "
        "SWIPT multiple-access channels with decoding costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_txt in (
        ("region", "trace a maximum departure region boundary to CSV"),
        ("sumrate", "sweep the max sum rate over the PS factor to CSV"),
        ("coop", "tabulate cooperative weighted-rate solutions to CSV"),
        ("verify", "cross-check the analytic optimum against its grid oracle"),
    ):
        p = sub.add_parser(name, help=help_txt)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--preset", help="named parameter preset (fig3a..fig5d)")
        p.add_argument("--out", help="output path (default stdout)")
    args = parser.parse_args(argv)

    try:
        try:
            cfg = _load_run(args)
        except ModelDomainError as err:  # a value outside a model's domain
            raise ConfigError("<params>", str(err)) from err
        out_path = args.out or cfg.out
        if args.command == "region":
            return cmd_region(cfg, out_path)
        if args.command == "sumrate":
            return cmd_sumrate(cfg, out_path)
        if args.command == "coop":
            return cmd_coop(cfg, out_path)
        return cmd_verify(cfg, out_path)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InfeasibleRegionError as err:
        print(f"error: infeasible: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
