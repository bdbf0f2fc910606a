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
from dataclasses import dataclass, field

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
from .coop_mac import _solve, coop_mdrb, coop_solve_general
from .oracle import (
    _MAX_GRID, _rho_points, oracle_coop_weighted, oracle_sic_sumrate, oracle_simul_sumrate,
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

PRESETS = {
    # rate-region comparisons, one cost family each
    "fig3a": {**_BASE, "scenario": "classical-simul", "cost_model": "exp", "cost_beta": "0.001"},
    "fig3b": {**_BASE, "scenario": "classical-simul", "cost_model": "log", "cost_beta": "0.001"},
    "fig3c": {**_BASE, "scenario": "classical-simul", "cost_model": "lin", "cost_beta": "0.001"},
    "fig3d": {**_BASE, "scenario": "classical-simul", "cost_model": "const", "cost_phi0": "0.013"},
    # sum-rate-vs-rho sweeps (saturation showcase); the curve dips toward
    # rho=1 so the sweep stops at 0.95
    "fig4a": {
        **_BASE,
        "scenario": "classical-simul",
        "cost_model": "exp",
        "cost_beta": "0.1",
        "rho_points": "1001",
        "rho_max": "0.95",
    },
    "fig4b": {
        **_BASE,
        "scenario": "classical-sic",
        "cost_model": "exp",
        "cost_beta": "0.1",
        "rho_points": "1001",
        "rho_max": "0.95",
    },
    # cooperation vs classical at increasing decoding-cost slopes
    "fig5a": {
        **_BASE,
        "scenario": "coop",
        "cost_model": "exp",
        "cost_beta": "-30dB",
        "h_u": "0.008",
        "weight_count": "25",
    },
    "fig5b": {
        **_BASE,
        "scenario": "coop",
        "cost_model": "exp",
        "cost_beta": "-27dB",
        "h_u": "0.008",
        "weight_count": "25",
    },
    "fig5c": {
        **_BASE,
        "scenario": "coop",
        "cost_model": "exp",
        "cost_beta": "-24dB",
        "h_u": "0.008",
        "weight_count": "25",
    },
    "fig5d": {
        **_BASE,
        "scenario": "coop",
        "cost_model": "exp",
        "cost_beta": "-21dB",
        "h_u": "0.008",
        "weight_count": "25",
    },
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
    "rho_points", "rho_max", "region_points",
    "weight_count", "scan_points", "scan_refine",
    "mu1", "mu2", "oracle_rho_step", "oracle_grid",
    "out",
}

_INT_KEYS = {"rho_points", "region_points", "weight_count", "scan_points",
             "scan_refine", "oracle_grid"}


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
    raw: dict = field(default_factory=dict)

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


def _build_eh(kv: dict):
    model = kv.get("eh_model", "logistic").lower()
    if model == "logistic":
        for need in ("eh_q1", "eh_q2", "eh_p_max_dc"):
            if need not in kv:
                raise ConfigError(need, "required by eh_model=logistic")
        return LogisticEh(
            q1=_parse_number("eh_q1", kv["eh_q1"]),
            q2=_parse_number("eh_q2", kv["eh_q2"]),
            p_max_dc=_parse_number("eh_p_max_dc", kv["eh_p_max_dc"]),
        )
    if model == "linear":
        if "eh_eta" not in kv:
            raise ConfigError("eh_eta", "required by eh_model=linear")
        return LinearEh(eta=_parse_number("eh_eta", kv["eh_eta"]))
    raise ConfigError("eh_model", f"unknown EH model {model!r}")


def _build_cost(kv: dict, prefix: str = "cost"):
    model = kv.get(f"{prefix}_model")
    if model is None:
        raise ConfigError(f"{prefix}_model", "missing required key")
    model = model.lower()
    if model in ("exp", "log", "lin"):
        key = f"{prefix}_beta"
        if key not in kv:
            raise ConfigError(key, f"required by {prefix}_model={model}")
        beta = _parse_number(key, kv[key])
        return {"exp": ExpCost, "log": LogCost, "lin": LinCost}[model](beta=beta)
    if model == "const":
        key = f"{prefix}_phi0"
        if key not in kv:
            raise ConfigError(key, f"required by {prefix}_model=const")
        return ConstCost(phi0=_parse_number(key, kv[key]))
    raise ConfigError(f"{prefix}_model", f"unknown cost model {model!r}")


def _get_num(kv, key, default=None):
    if key in kv:
        return _parse_number(key, kv[key])
    if default is None:
        raise ConfigError(key, "missing required key")
    return default


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

    eh = _build_eh(kv)
    cost = _build_cost(kv, "cost")
    n = _get_num(kv, "n")
    n_p = _get_num(kv, "n_p")

    cfg = RunConfig(scenario=scenario, raw=dict(kv))
    for key in _INT_KEYS:
        if key in kv:
            try:
                setattr(cfg, key, int(kv[key]))
            except ValueError as err:
                raise ConfigError(key, f"expected an integer, got {kv[key]!r}") from err
    for key in ("rho_max", "mu1", "mu2", "oracle_rho_step"):
        if key in kv:
            setattr(cfg, key, _parse_number(key, kv[key]))
    cfg.out = kv.get("out")
    for key in ("rho_max", "oracle_rho_step"):
        if not 0.0 < getattr(cfg, key) <= 1.0:
            raise ConfigError(key, "must lie in (0, 1]")
    for key, least in (("rho_points", 1), ("region_points", 2), ("weight_count", 1),
                       ("scan_points", 3), ("oracle_grid", 2)):
        if getattr(cfg, key) < least:
            raise ConfigError(key, f"must be >= {least}")
    if cfg.oracle_grid > _MAX_GRID:
        raise ConfigError("oracle_grid", f"must be <= {_MAX_GRID}")
    try:  # the oracle's own ceiling, checked without allocating the grid
        _rho_points(cfg.oracle_rho_step)
    except ValueError as err:
        raise ConfigError("oracle_rho_step", str(err)) from None

    if scenario in ("classical-simul", "classical-sic"):
        if "h1_sq" in kv or "h2_sq" in kv:
            h1_sq = _get_num(kv, "h1_sq")
            h2_sq = _get_num(kv, "h2_sq")
        else:
            alpha = _get_num(kv, "alpha")
            h1_sq = _get_num(kv, "d1") ** (-2.0 * alpha)
            h2_sq = _get_num(kv, "d2") ** (-2.0 * alpha)
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

    # cooperation: destination amplitudes + inter-user amplitudes
    if "h1" in kv or "h2" in kv:
        h1 = _get_num(kv, "h1")
        h2 = _get_num(kv, "h2")
    else:
        alpha = _get_num(kv, "alpha")
        h1 = _get_num(kv, "d1") ** (-alpha)
        h2 = _get_num(kv, "d2") ** (-alpha)
    if "h_u" in kv:
        h12 = h21 = _get_num(kv, "h_u")
    else:
        h12 = _get_num(kv, "h12")
        h21 = _get_num(kv, "h21")
    if "cost_user_model" in kv:
        user_kv = dict(kv)
        user_kv.setdefault("cost_user_beta", kv.get("cost_beta", ""))
        user_kv.setdefault("cost_user_phi0", kv.get("cost_phi0", ""))
        cost_user = _build_cost(user_kv, "cost_user")
    else:
        cost_user = cost
    # budgets default to the classical per-user powers so the shared presets
    # cover both scenario families
    bud1 = (
        _parse_number("p_u1_budget", kv["p_u1_budget"])
        if "p_u1_budget" in kv
        else _get_num(kv, "p1")
    )
    bud2 = (
        _parse_number("p_u2_budget", kv["p_u2_budget"])
        if "p_u2_budget" in kv
        else _get_num(kv, "p2")
    )
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


def cmd_region(cfg: RunConfig, out_path: str | None) -> int:
    header = "r2_bits,r1_bits,rho,order_or_weights,hulled"
    if cfg.scenario == "classical-simul":
        curve = mdrb_simultaneous(cfg.classical, n_points=cfg.region_points)
        tag = lambda m: m.get("segment", "")
    elif cfg.scenario == "classical-sic":
        curve = mdrb_sic(cfg.classical, n_points=cfg.region_points)
        tag = lambda m: m.get("order", m.get("segment", ""))
    else:
        ts = np.linspace(0.0, 1.0, cfg.weight_count)
        weights = [(float(t), float(1.0 - t)) for t in ts]
        curve = coop_mdrb(cfg.coop, weights=weights, scan=cfg.scan)
        tag = lambda m: f"mu1={_fmt(m.get('mu1', ''))};mu2={_fmt(m.get('mu2', ''))}"
    lines = [header]
    if not len(curve):
        lines.append(f"# empty: {curve.empty_reason or 'no feasible rate pair'}")
    hulled = "1" if curve.hulled else "0"
    for pt, m in zip(curve.points, curve.metadata):
        lines.append(
            f"{_fmt(pt.r2)},{_fmt(pt.r1)},{_fmt(pt.rho)},{tag(m)},{hulled}"
        )
    _emit(lines, out_path)
    return 0


def cmd_sumrate(cfg: RunConfig, out_path: str | None) -> int:
    if cfg.scenario == "coop":
        raise ConfigError("scenario", "sumrate sweeps apply to classical scenarios")
    params = cfg.classical
    rhos = np.linspace(0.0, cfg.rho_max, cfg.rho_points)
    lines = ["rho,sum_rate_bits,binding_constraint"]
    if cfg.scenario == "classical-simul":
        bound = rate_bound_sum(params, rhos)
        psi = params.eh.eval(rhos * params.a)
        sums = params.cost.rate_cap(psi, bound)
        for rho, s_val, b_val in zip(rhos, sums, bound):
            binding = "cost" if s_val < b_val - 1e-15 else "rate"
            lines.append(f"{_fmt(float(rho))},{_fmt(float(s_val))},{binding}")
        opt = sumrate_simultaneous(params)
    else:
        for rho in rhos:
            s_val, binding = sic_max_sum_at_rho(params, float(rho))
            lines.append(f"{_fmt(float(rho))},{_fmt(s_val)},{binding}")
        opt = sic_sumrate_numeric(params)
    lines.append(f"{_fmt(opt.rho_opt)},{_fmt(opt.sum_rate)},opt")
    _emit(lines, out_path)
    return 0


def cmd_coop(cfg: RunConfig, out_path: str | None) -> int:
    if cfg.scenario != "coop":
        raise ConfigError("scenario", "the coop command needs scenario=coop")
    ts = np.linspace(0.0, 1.0, cfg.weight_count)
    lines = [
        "mu1,mu2,r1_bits,r2_bits,rho,p12,p21,pu1,pu2,weighted_rate,source,valid"
    ]
    # every weight pair (t, 1-t) out of one trace of the network
    for sol in _solve(cfg.coop, [(float(t), float(1.0 - t)) for t in ts], cfg.scan):
        lines.append(
            ",".join(
                [
                    _fmt(sol.mu1),
                    _fmt(sol.mu2),
                    _fmt(sol.r1),
                    _fmt(sol.r2),
                    _fmt(sol.rho),
                    _fmt(sol.alloc.p12),
                    _fmt(sol.alloc.p21),
                    _fmt(sol.alloc.pu1),
                    _fmt(sol.alloc.pu2),
                    _fmt(sol.weighted_rate),
                    sol.source,
                    "1" if sol.cooperation_valid else "0",
                ]
            )
        )
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

    if cfg.scenario == "classical-simul":
        ana = sumrate_simultaneous(cfg.classical)
        orc = oracle_simul_sumrate(cfg.classical, cfg.oracle_rho_step)
        lines.append(f"analytic: rho={_fmt(ana.rho_opt)} sum={_fmt(ana.sum_rate)}")
        lines.append(f"oracle:   rho={_fmt(orc.rho_opt)} sum={_fmt(orc.sum_rate)}")
        check("sum_rate_gap_bits", abs(ana.sum_rate - orc.sum_rate), 1e-4)
        res = ana.residuals.get("cost_balance_w", 0.0)
        check("cost_balance_residual_w", abs(res), 1e-9)
    elif cfg.scenario == "classical-sic":
        ana = sic_sumrate_numeric(cfg.classical)
        orc = oracle_sic_sumrate(cfg.classical, cfg.oracle_rho_step)
        lines.append(f"analytic: rho={_fmt(ana.rho_opt)} sum={_fmt(ana.sum_rate)}")
        lines.append(f"oracle:   rho={_fmt(orc.rho_opt)} sum={_fmt(orc.sum_rate)}")
        check("sum_rate_gap_bits", abs(ana.sum_rate - orc.sum_rate), 1e-4)
        res = ana.residuals.get("cost_balance_w", 0.0)
        check("cost_balance_residual_w", abs(res), 1e-9)
    else:
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
        check("budget1_residual_w", abs(sol.constraint_residuals["budget1_w"]), 1e-9)
        check("budget2_residual_w", abs(sol.constraint_residuals["budget2_w"]), 1e-9)
        check("dest_cost_residual_w", abs(sol.constraint_residuals["dest_cost_w"]), 1e-9)
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
