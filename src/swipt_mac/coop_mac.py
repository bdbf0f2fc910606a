"""Two-user PS-SWIPT MAC with decode-and-forward user cooperation.

Each user splits its budget P_Ui between a fresh message beamed to its
partner (p12 from user 1, p21 from user 2), a coherently combined common
message (pu1, pu2), and the power burnt decoding the partner's fresh
message.  Fresh-message rates are pinned to the inter-user links,
r1 = 1/2*log2(1+b*p12) and r2 = 1/2*log2(1+c*p21), and the destination must
both cover its decoding cost from the harvested stream and satisfy the
sum mutual-information bound with the coherent power

    S = h1^2*(p12+pu1) + h2^2*(p21+pu2) + 2*h1*h2*sqrt(pu1*pu2).

Weighted-rate solves:

* ``coop_solve_closed_form`` evaluates the linear-system shortcut obtained
  by clearing the denominators of the reduced objective's stationarity
  conditions.  That clearing is degenerate: the cleared pair forces the
  spurious root 1+b*P12 = 1+c*P21 = 0, so its unique solution is always
  P12 = -1/b, P21 = -1/c, Pu1 = P_U1 + 1/b + beta (shown symbolically; see
  the regression tests).  The routine reproduces those formulas faithfully
  and its validity screen (all powers >= 0, rho in [0,1]) therefore rejects
  the result for every parameter set with mu1*mu2 > 0 and beta^2*b*c != 1.
* ``coop_solve_general`` is the load-bearing numeric solver.  It
  parametrises operating points by (rho, pu2, p12); the budget equalities
  then give the rest explicitly for every fee family,

      r1 = 1/2*log2(1+b*p12),   p21 = P_U2 - pu2 - phi2(r1),
      r2 = 1/2*log2(1+c*p21),   pu1 = P_U1 - p12 - phi1(r2),

  so both budgets are spent exactly.  Two branches compete: the box
  maximum of the rho-free weighted rate J(p12, pu2), screened at the
  minimal covering rho (the "interior" branch, optimal when the sum bound
  is slack), and a search over (rho, pu2) slices with p12 rooted on the
  destination-cost equality (the "balanced"/"cost-tight" branch).  Since
  pu2 is gridded while p12 is rooted, the network is solved in both user
  orientations, as given and with the users swapped, and the better one
  wins.  Both orientations run as one lockstep search: every row of a
  batch carries its orientation's constants, so each search step is one
  numpy batch over the candidates of both; all slices are rooted at once
  by ``bracket_roots``, and zoom grids run in lockstep across rows.
  ``ScanConfig`` sets the rho grid and the rho zoom depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import (
    ClassicalParams,
    CoopParams,
    ExpCost,
    LinearEh,
    NoInverseError,
    PowerAllocation,
    RatePoint,
    SaturationError,
    cost_rate_cap,
)
from .numerics import (
    RootConfig,
    ScanConfig,
    SingularMatrixError,
    bracket_roots,
    solve_2x2,
)
from .region import BoundaryCurve, upper_hull

__all__ = [
    "NonUniqueSolutionError",
    "CoopSolution",
    "coop_constraints_eval",
    "coop_solve_closed_form",
    "coop_solve_general",
    "coop_mdrb",
    "classicalized",
]

_LOG2 = math.log(2.0)
_ROOT = RootConfig(abs_tol=1e-11, max_iter=150)
_SEEDS = 9  # p12 seeds per slice that locate the cost-equality crossings
_T = np.linspace(0.0, 1.0, _SEEDS)  # the seeds in the slice coordinate
_GRID = 17  # coarse grid of every zoom search
_ZOOM = 9  # points per zoom level; each level narrows the bracket 4x
_FEAS = 1e-12  # pu1 and sum-MI tolerance of a feasible point


def _zoom_levels(golden_iters: int) -> int:
    """Zoom levels leaving a bracket no wider than golden_iters golden steps."""
    return math.ceil(golden_iters * math.log((1.0 + 5.0 ** 0.5) / 2.0) / math.log(4.0))


_PU2_LEVELS = _zoom_levels(28)
_INTERIOR_LEVELS = _zoom_levels(40)


class NonUniqueSolutionError(ValueError):
    """The linear power system is singular (beta^2*b*c = 1 or an extreme
    weight pair); the optimal powers are not unique."""


@dataclass
class CoopSolution:
    """One weighted-sum-rate operating point of the cooperative MAC.

    constraint_residuals holds signed slacks: budget1_w/budget2_w [W]
    (budget minus spending, fees charged at the reported rates),
    dest_cost_w [W] (harvest minus destination decoding cost) and
    sum_mi_bits (sum MI bound minus r1+r2).  cooperation_valid reflects
    power non-negativity and rho in [0,1]; the sum bound is tracked
    separately in sum_bound_satisfied.
    """

    alloc: PowerAllocation
    rho: float
    r1: float
    r2: float
    weighted_rate: float
    mu1: float
    mu2: float
    constraint_residuals: dict
    cooperation_valid: bool
    sum_bound_satisfied: bool
    coop_a: float | None = None
    coop_b: float | None = None
    source: str = "general"
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


class _Ctx:
    """Per-solve constants of one user labelling."""

    __slots__ = (
        "p", "b", "c", "h1", "h2", "hh1", "hh2", "hh12", "n", "n_p",
        "bud1", "bud2", "phi1", "phi2", "phid", "eh", "exp_cut",
    )

    def __init__(self, params: CoopParams):
        self.p = params
        self.b = params.b
        self.c = params.c
        self.h1 = params.h1
        self.h2 = params.h2
        # the coefficients of _s_total, rounded as h1*h1*(...) would round
        self.hh1 = self.h1 * self.h1
        self.hh2 = self.h2 * self.h2
        self.hh12 = 2.0 * self.h1 * self.h2
        self.n = params.n
        self.n_p = params.n_p
        self.bud1 = params.p_u1_budget
        self.bud2 = params.p_u2_budget
        self.phi1 = params.cost_user1.eval
        self.phi2 = params.cost_user2.eval
        self.phid = params.cost_dest.eval
        self.eh = params.eh
        # Exp user fees make pu1 affine in p12: pu1 = bud1 - beta1*c*q2 - k*p12
        u1, u2 = params.cost_user1, params.cost_user2
        self.exp_cut = None
        if isinstance(u1, ExpCost) and isinstance(u2, ExpCost):
            self.exp_cut = (u1.beta, 1.0 - u1.beta * u2.beta * self.b * self.c)


# rows of _Pair.table, one column per orientation
_FIELDS = (
    "b", "c", "hh1", "hh2", "hh12", "bud1", "bud2", "beta1", "k", "mu1", "mu2", "o",
)


class _Pair:
    """Both user orientations of one solve: o = 0 is the network as given,
    o = 1 the user-swapped network with the weights swapped too.

    Each orientation keeps its own _Ctx, so derived constants (exp_cut's k
    among them) round exactly as in a solve of that orientation alone;
    ``table`` stacks them with the weights, one column per orientation.
    The destination side (noises, harvester, fee) is the same in both.
    """

    def __init__(self, params: CoopParams, mu1: float, mu2: float):
        self.ctx = (_Ctx(params), _Ctx(params.swapped()))
        self.users = (params.cost_user1, params.cost_user2)
        self.same_fees = params.cost_user1 == params.cost_user2
        self.exp = self.ctx[0].exp_cut is not None  # both orientations alike
        cols = []
        for o, (ctx, mu) in enumerate(zip(self.ctx, ((mu1, mu2), (mu2, mu1)))):
            beta1, k = ctx.exp_cut or (math.nan, math.nan)
            cols.append([
                ctx.b, ctx.c, ctx.hh1, ctx.hh2, ctx.hh12, ctx.bud1, ctx.bud2,
                beta1, k, mu[0], mu[1], float(o),
            ])
        self.table = np.array(cols).T

    def rows(self, o) -> "_Rows":
        """Constants at the orientation ids o (an int array of any shape)."""
        return _Rows(self, self.table[:, o])


class _Rows:
    """Constants of a batch of rows, each in its own orientation: the
    attributes of _Ctx (plus the weights) as arrays shaped like the rows.
    ``tab`` holds them stacked in _FIELDS order; rows past those are
    ignored."""

    __slots__ = ("pair", "tab", "n", "n_p", "eh", "phid") + _FIELDS

    def __init__(self, pair: _Pair, tab):
        self.pair, self.tab = pair, tab
        ctx = pair.ctx[0]
        self.n, self.n_p, self.eh, self.phid = ctx.n, ctx.n_p, ctx.eh, ctx.phid
        (
            self.b, self.c, self.hh1, self.hh2, self.hh12, self.bud1, self.bud2,
            self.beta1, self.k, self.mu1, self.mu2, self.o,
        ) = tab[:len(_FIELDS)]

    def take(self, idx) -> "_Rows":
        return _Rows(self.pair, self.tab[:, idx])

    def col(self) -> "_Rows":
        """The same rows as a column, to broadcast against points per row."""
        return _Rows(self.pair, self.tab[..., None])

    def fee_of(self, user: int, fn):
        """fn(fee model) of user 1 (user=0) or 2 (user=1) of each row's
        orientation; the swapped orientation exchanges the two models."""
        models = self.pair.users
        if self.pair.same_fees:
            return fn(models[0])
        return np.where(self.o == 0.0, fn(models[user]), fn(models[1 - user]))

    def phi1(self, r):
        return self.fee_of(0, lambda m: m.eval(r))

    def phi2(self, r):
        return self.fee_of(1, lambda m: m.eval(r))


def _rate(x):
    return np.log1p(x) / (2.0 * _LOG2)


def _s_total(ctx: _Ctx | _Rows, p12, p21, pu1, pu2):
    return (
        ctx.hh1 * (p12 + pu1)
        + ctx.hh2 * (p21 + pu2)
        + ctx.hh12 * np.sqrt(pu1 * pu2)
    )


def _mi_sum(ctx: _Ctx | _Rows, rho, s):
    y = 1.0 - rho
    return 0.5 * np.log2(1.0 + y * s / (y * ctx.n + ctx.n_p))


def _alloc(ctx: _Ctx | _Rows, pu2, p12):
    """Budget elimination at (pu2, p12), arrays broadcast.  pu1 may come
    out negative (infeasible); p21 is clipped at 0 against roundoff, the
    p12 span keeps it non-negative otherwise."""
    r1 = _rate(ctx.b * p12)
    p21 = np.maximum(ctx.bud2 - pu2 - ctx.phi2(r1), 0.0)
    r2 = _rate(ctx.c * p21)
    pu1 = ctx.bud1 - p12 - ctx.phi1(r2)
    return {"p12": p12, "p21": p21, "pu1": pu1, "pu2": pu2, "r1": r1, "r2": r2}


def _tight_eval(ctx: _Ctx | _Rows, rho, pu2, p12):
    """_alloc plus the coherent power s and the destination-cost residual."""
    ev = _alloc(ctx, pu2, p12)
    ev["s"] = _s_total(ctx, p12, ev["p21"], np.maximum(ev["pu1"], 0.0), pu2)
    ev["rho"] = rho
    ev["cost_res"] = ctx.eh.eval(rho * (ev["s"] + ctx.n)) - ctx.phid(ev["r1"] + ev["r2"])
    return ev


def _p12_span(rows: _Rows, pu2):
    """p12 range of each pu2 slice; hi < lo marks an empty slice.

    p21 >= 0 caps r1 at phi2^-1(q2) for every fee family.  With Exp user
    fees pu1 >= 0 is an affine cut as well; other families are screened
    point by point.
    """
    q2 = rows.bud2 - pu2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r_cap = rows.fee_of(1, lambda m: cost_rate_cap(m, q2, np.inf))
        hi = np.minimum(rows.bud1, np.expm1(2.0 * _LOG2 * r_cap) / rows.b)
        lo = np.zeros_like(hi)
        if rows.pair.exp:
            k = rows.k
            a = rows.bud1 - rows.beta1 * rows.c * q2
            cut = a / k
            hi = np.where(k > 0.0, np.minimum(hi, cut), hi)
            lo = np.where(k < 0.0, np.maximum(lo, cut), lo)  # the cut floors p12
            hi = np.where((k == 0.0) & ~(a >= 0.0), -1.0, hi)
    return lo, hi


def _covering_rho(ctx: _Ctx, fee: float, s: float):
    """Smallest rho whose harvest covers the destination fee, or None."""
    if fee <= 0.0:
        return 0.0
    try:
        p_req = ctx.eh.inverse(fee)
    except (SaturationError, NoInverseError):
        return None
    tot = s + ctx.n
    if tot <= 0.0:
        return None
    rho = p_req / tot
    if rho > 1.0 + 1e-12:
        return None
    return min(rho, 1.0)


def _take(rec: dict, idx) -> dict:
    return {k: v[idx] for k, v in rec.items()}


def _scalar(rec: dict) -> dict:
    return {k: float(v) for k, v in rec.items()}


def _row_best(rec: dict, x) -> dict:
    """Per-row argmax of rec["J"] over the last axis, with x recorded."""
    rec = {
        k: v if np.shape(v) == x.shape else np.broadcast_to(v, x.shape)
        for k, v in rec.items()
    }
    rec["x"] = x
    col = np.argmax(rec["J"], axis=1)
    return _take(rec, (np.arange(x.shape[0]), col))


def _zoom_rows(evaluate, lo, hi, levels: int) -> dict:
    """Row-wise grid maximisation on [lo_r, hi_r], all rows in lockstep.

    evaluate(x, rows) returns a record of arrays shaped like x (points of
    the given rows) whose "J" is -inf where infeasible.  A coarse _GRID
    grid is followed by `levels` levels of _ZOOM points centred on each
    row's incumbent.  Rows without a finite coarse sample are dropped.
    Returns the best record of every row; the result is never worse than
    the row's best coarse sample.
    """
    x = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, _GRID)
    rows = np.arange(lo.size)
    best = _row_best(evaluate(x, rows), x)
    h = (hi - lo) / (_GRID - 1)
    rows = np.nonzero(np.isfinite(best["J"]))[0]
    offsets = np.linspace(-1.0, 1.0, _ZOOM)
    for _ in range(levels):
        if rows.size == 0:
            break
        x = np.clip(
            best["x"][rows, None] + h[rows, None] * offsets,
            lo[rows, None],
            hi[rows, None],
        )
        new = _row_best(evaluate(x, rows), x)
        up = new["J"] > best["J"][rows]
        for k, v in best.items():
            v[rows[up]] = new[k][up]
        h = h / 4.0
    return best


# ---------------------------------------------------------------------------
# general solver branches
# ---------------------------------------------------------------------------


def _interior_candidates(pair: _Pair) -> list:
    """Box maximum of the rho-free weighted rate in each orientation,
    screened against the destination constraints at the minimal covering
    rho.

    J(p12, pu2) is maximised by a nested zoom, one outer row per
    orientation: pu2 outer, p12 inner on each slice's span.  An
    orientation's candidate is None when the destination cannot cover the
    resulting fee or the sum MI bound fails at the covering rho.
    """

    def over_p12(pu2, rows):
        flat = pu2.ravel()
        cons = pair.rows(np.broadcast_to(rows[:, None], pu2.shape).ravel())
        lo, hi = _p12_span(cons, flat)
        empty = hi < lo

        def j_at(p12, sub):
            at = cons.take(sub).col()
            ev = _alloc(at, flat[sub, None], p12)
            ok = (ev["pu1"] >= -_FEAS) & ~empty[sub, None]
            ev["J"] = np.where(ok, at.mu1 * ev["r1"] + at.mu2 * ev["r2"], -np.inf)
            return ev

        rec = _zoom_rows(j_at, lo, np.maximum(hi, lo), _INTERIOR_LEVELS)
        return {k: v.reshape(pu2.shape) for k, v in rec.items() if k != "x"}

    bud2 = np.array([ctx.bud2 for ctx in pair.ctx])
    rec = _zoom_rows(over_p12, np.zeros(2), bud2, _INTERIOR_LEVELS)
    return [
        _covered(ctx, _scalar(_take(rec, o))) if np.isfinite(rec["J"][o]) else None
        for o, ctx in enumerate(pair.ctx)
    ]


def _covered(ctx: _Ctx, cand: dict):
    """An interior candidate at its minimal covering rho, or None when the
    fee is uncoverable or the sum bound binds (the balanced branch owns
    that case)."""
    cand["pu1"] = max(cand["pu1"], 0.0)
    r_sum = cand["r1"] + cand["r2"]
    s = float(_s_total(ctx, cand["p12"], cand["p21"], cand["pu1"], cand["pu2"]))
    rho = _covering_rho(ctx, ctx.phid(r_sum), s)
    if rho is None or _mi_sum(ctx, rho, s) < r_sum - 1e-12:
        return None
    cand.update(rho=rho, source="interior")
    return cand


# the record of a cost-tight point (besides "J")
_TIGHT_KEYS = ("p12", "p21", "pu1", "pu2", "r1", "r2", "rho", "mi_res")


def _tight_best(pair: _Pair, o, rho, pu2) -> dict:
    """Best destination-cost-tight point inside the sum MI bound on each
    (rho, pu2) slice; row r of pu2 holds pu2 values at orientation o[r]
    and rho[r].  "J" is -inf where there is none.

    _SEEDS seeds across each slice's p12 span mark the sign changes of
    the cost residual, bracket_roots roots all of them at once from the
    seed values, and each slice keeps its best feasible root.
    """
    shape = pu2.shape
    o, rho = np.repeat(o, shape[1]), np.repeat(rho, shape[1])
    pu2 = pu2.ravel()
    cons = pair.rows(o)
    lo, hi = _p12_span(cons, pu2)
    span = np.maximum(hi - lo, 0.0)
    ev = _tight_eval(
        cons.col(), rho[:, None], pu2[:, None], lo[:, None] + span[:, None] * _T
    )
    ok = (ev["pu1"] >= -_FEAS) & (hi >= lo)[:, None]
    f = ev["cost_res"]
    pairs = ok[:, :-1] & ok[:, 1:] & (f[:, :-1] * f[:, 1:] <= 0.0)
    i, j = np.nonzero(pairs)
    # per bracket: its slice's constants, then rho, pu2, lo and span
    tab = np.concatenate([cons.tab[:, i], [rho[i], pu2[i], lo[i], span[i]]])
    rec = np.full((len(_TIGHT_KEYS), i.size + 1), np.nan)  # NaN column: no root
    J = np.full(pairs.shape, -np.inf)
    if i.size:

        def residual(x, k):
            at = tab if k.size == i.size else tab[:, k]
            rho_k, pu2_k, lo_k, span_k = at[-4:]
            ev = _tight_eval(_Rows(pair, at), rho_k, pu2_k, lo_k + span_k * x)
            return ev["cost_res"]

        # rooted in t, not p12: pu1 can move |k| >> 1 times faster than p12,
        # while t tracks pu1 (affinely, for Exp user fees)
        t_root = bracket_roots(
            residual, _T[j], _T[j + 1], _ROOT, f_lo=f[i, j], f_hi=f[i, j + 1]
        )
        at = _Rows(pair, tab)
        ev = _tight_eval(at, rho[i], pu2[i], lo[i] + span[i] * t_root)
        r_sum = ev["r1"] + ev["r2"]
        ev["mi_res"] = _mi_sum(at, rho[i], ev["s"]) - r_sum
        ok = (ev["pu1"] >= -_FEAS) & (ev["mi_res"] >= -_FEAS)
        J[i, j] = np.where(ok, at.mu1 * ev["r1"] + at.mu2 * ev["r2"], -np.inf)
        for row, key in zip(rec, _TIGHT_KEYS):
            row[:-1] = ev[key]
    # each slice's best root
    col = np.argmax(J, axis=1)
    pick = np.full(pairs.shape, i.size)
    pick[i, j] = np.arange(i.size)
    slices = np.arange(col.size)
    best = dict(zip(_TIGHT_KEYS, rec[:, pick[slices, col]].reshape(-1, *shape)))
    best["J"] = J[slices, col].reshape(shape)
    return best


def _pu2_floor(ctx: _Ctx, rho):
    """The rho values where positive rates are coverable, and the floor
    bud2 - 1.02*q2_cap of the global pu2 window at each.

    q2_cap is the largest q2 = bud2 - pu2 any feasible point at the rho can
    spend.  Necessary cap, not an estimate: both rates are limited by the
    sum MI bound at the maximal receive power and by the fee the maximal
    harvest can cover, and q2 buys p21 plus user 2's decode fee, both
    increasing in those rates.  Large decode-cost slopes push all
    positive-rate points into a thin band of small q2; without this cap a
    uniform pu2 grid steps straight over that band.
    """
    rt = ctx.h1 * math.sqrt(ctx.bud1) + ctx.h2 * math.sqrt(ctx.bud2)
    s_max = rt * rt
    r_cap = cost_rate_cap(
        ctx.p.cost_dest, ctx.eh.eval(rho * (s_max + ctx.n)), _mi_sum(ctx, rho, s_max)
    )
    r_cap = np.maximum(r_cap, 0.0)
    cap = np.expm1(2.0 * _LOG2 * r_cap) / ctx.c + ctx.phi2(r_cap)
    live = cap > 0.0  # elsewhere only zero rates are coverable
    return rho[live], np.maximum(0.0, ctx.bud2 - 1.02 * cap[live])


def _pu2_search(pair: _Pair, blocks: list) -> list:
    """Best cost-tight point over pu2 in [lo_r, hi_r] at each rho_r, for
    the row blocks (o, rho, lo, hi) of orientations o at once.

    All rows share one lockstep zoom.  Returns each block's best record,
    or None where the block holds no feasible point.
    """
    o = np.concatenate([np.full(blk[1].size, blk[0]) for blk in blocks])
    rho, lo, hi = (np.concatenate(v) for v in list(zip(*blocks))[1:])
    best = _zoom_rows(
        lambda x, rows: _tight_best(pair, o[rows], rho[rows], x),
        lo,
        hi,
        _PU2_LEVELS,
    )
    out, start = [], 0
    for blk in blocks:
        stop = start + blk[1].size
        i = start + int(np.argmax(best["J"][start:stop]))
        out.append(_scalar(_take(best, i)) if np.isfinite(best["J"][i]) else None)
        start = stop
    return out


def _balanced_search(ctx: _Ctx, scan: ScanConfig):
    """Best cost-tight candidate over (rho, pu2) of one orientation, or
    None.

    A generator: it yields the (rho, lo, hi) rows of each pu2 search it
    needs, is sent their best record (None when they hold no feasible
    point), and returns its candidate.  _balanced_candidates runs both
    orientations in lockstep, one _pu2_search per step.

    Stage 1 grids rho at scan.grid_points values and searches pu2 at each
    over [_pu2_floor(rho), bud2].  Stage 2 zooms rho around the
    incumbent for _zoom_levels(scan.refine_iters) levels.  Each level also
    searches a local pu2 window around the incumbent, halved every level:
    the optimum can sit where the feasible pu2 band at a rho narrows to a
    sliver that the global grid steps over.  A new best on the edge of the
    rho bracket does not count as a level: the bracket moves there with
    its step doubled (at most as many such moves as levels), since the
    value can rise in rho up to a cliff further away than the zoom reaches.
    """
    rho, lo = _pu2_floor(ctx, np.linspace(0.0, 1.0, scan.grid_points))
    if not rho.size:
        return None
    inc = yield rho, lo, np.full(rho.size, ctx.bud2)
    if inc is None:
        return None
    h_rho = 1.0 / (scan.grid_points - 1)
    w = ctx.bud2 / 16.0
    offsets = np.linspace(-1.0, 1.0, _ZOOM)
    levels = walks = _zoom_levels(scan.refine_iters)
    while levels > 0:
        rho = np.clip(inc["rho"] + h_rho * offsets, 0.0, 1.0)
        g_rho, g_lo = _pu2_floor(ctx, rho)
        best = yield (  # global windows, then the local ones
            np.concatenate([g_rho, rho]),
            np.concatenate([g_lo, np.full(rho.size, max(0.0, inc["pu2"] - w))]),
            np.concatenate([
                np.full(g_rho.size, ctx.bud2),
                np.full(rho.size, min(ctx.bud2, inc["pu2"] + w)),
            ]),
        )
        if best is not None and best["J"] > inc["J"]:
            inc = best
            if walks and inc["rho"] in (rho[0], rho[-1]) and 0.0 < inc["rho"] < 1.0:
                walks -= 1  # see docstring: move on at twice the step
                h_rho *= 2.0
                continue
        levels -= 1
        h_rho /= 4.0
        w /= 2.0
    inc["pu1"] = max(inc["pu1"], 0.0)
    inc["source"] = "balanced" if abs(inc["mi_res"]) < 1e-6 else "cost-tight"
    return inc


def _balanced_candidates(pair: _Pair, scan: ScanConfig) -> list:
    """_balanced_search of both orientations in lockstep: each step merges
    the row blocks of the searches still running into one _pu2_search."""
    found = [None, None]
    running = {}

    def advance(o, search, best):
        try:
            running[o] = (search, search.send(best))
        except StopIteration as stop:
            found[o] = stop.value
            running.pop(o, None)

    for o, ctx in enumerate(pair.ctx):
        advance(o, _balanced_search(ctx, scan), None)
    while running:
        step = list(running.items())
        bests = _pu2_search(pair, [(o, *rows) for o, (_, rows) in step])
        for (o, (search, _)), best in zip(step, bests):
            advance(o, search, best)
    return found


def _build_solution(ctx: _Ctx, mu1, mu2, cand, extra_notes=None) -> CoopSolution:
    p12, p21 = cand["p12"], cand["p21"]
    pu1, pu2 = cand["pu1"], cand["pu2"]
    rho = cand["rho"]
    r1, r2 = cand["r1"], cand["r2"]
    s = float(_s_total(ctx, p12, p21, pu1, pu2))
    residuals = {
        "budget1_w": ctx.bud1 - (p12 + pu1 + ctx.phi1(r2)),
        "budget2_w": ctx.bud2 - (p21 + pu2 + ctx.phi2(r1)),
        "dest_cost_w": ctx.eh.eval(max(rho, 0.0) * (s + ctx.n)) - ctx.phid(r1 + r2),
        "sum_mi_bits": float(_mi_sum(ctx, rho, s)) - (r1 + r2)
        if 0.0 <= rho <= 1.0
        else math.nan,
    }
    valid = min(p12, p21, pu1, pu2) >= -1e-9 and -1e-12 <= rho <= 1.0 + 1e-12
    sum_ok = residuals["sum_mi_bits"] >= -1e-9  # False for NaN
    notes = dict(extra_notes or {})
    return CoopSolution(
        alloc=PowerAllocation(p12=p12, p21=p21, pu1=pu1, pu2=pu2),
        rho=rho,
        r1=r1,
        r2=r2,
        weighted_rate=mu1 * r1 + mu2 * r2,
        mu1=mu1,
        mu2=mu2,
        constraint_residuals=residuals,
        cooperation_valid=valid,
        sum_bound_satisfied=sum_ok,
        source=cand.get("source", "general"),
        notes=notes,
    )


def _pick(ctx: _Ctx, found) -> tuple:
    """Best candidate of one orientation: interior branch, balanced branch,
    and the all-common backstop (zero rates, always feasible)."""
    cands = [cc for cc in found if cc is not None] or [{
        "J": 0.0, "p12": 0.0, "p21": 0.0, "pu1": ctx.bud1, "pu2": ctx.bud2,
        "r1": 0.0, "r2": 0.0, "rho": 0.0, "source": "zero",
    }]
    cand = max(cands, key=lambda cc: cc["J"])
    return cand, sorted(cc["source"] for cc in cands)


def _swap_candidate(cand: dict) -> dict:
    out = dict(cand)
    out["p12"], out["p21"] = cand["p21"], cand["p12"]
    out["pu1"], out["pu2"] = cand["pu2"], cand["pu1"]
    out["r1"], out["r2"] = cand["r2"], cand["r1"]
    return out


def coop_solve_general(
    params: CoopParams, mu1: float, mu2: float, scan: ScanConfig | None = None
) -> CoopSolution:
    """Numeric weighted-sum-rate solve for any EH/cost combination.

    Operating points are parametrised by (rho, pu2, p12), and the budget
    equalities give p21 and pu1 explicitly (see module docstring), so both
    budgets are spent exactly for every fee family.  Two branches compete:

    * interior: the box maximum of the rho-free J(p12, pu2) by a nested
      zoom, kept when the minimal covering rho also satisfies the sum MI
      bound;
    * balanced: p12 rooted on the destination-cost equality on batches of
      (rho, pu2) slices at once, the best root inside the sum MI bound
      kept, and the best slice searched by lockstep zoom grids.

    ``scan.grid_points`` is the size of the stage-1 rho grid and
    ``scan.refine_iters`` sets the number of stage-2 rho zoom levels (9
    points each, 4x narrower per level), chosen so the last rho bracket is
    no wider than refine_iters golden-section steps would leave; an
    incumbent on the bracket edge moves the bracket instead.  The
    all-common allocation (zero rates) backstops both branches, so a
    solution always exists.

    pu2 is gridded while p12 is rooted exactly, so the grid favours one
    user.  The network is therefore solved in both user orientations, as
    given and user-swapped (weights swapped too), and the better one wins
    (notes["mirrored"]; notes["branches"] lists the winner's branches).
    That keeps the solver exactly symmetric under a user swap and restores
    accuracy at extreme weights.  The two orientations run as one search:
    each batch holds the rows of both, every row with its own
    orientation's constants and fee families, and in the stage-2 rho zoom
    each orientation keeps its own incumbent and bracket, so an
    orientation that needs more levels runs on alone.  Merging changes no
    result: every row is computed exactly as a search of its orientation
    alone would compute it.
    """
    if mu1 < 0 or mu2 < 0 or mu1 + mu2 <= 0:
        raise ValueError("weights must be non-negative and not both zero")
    scan = scan or ScanConfig(grid_points=61, refine_iters=24)

    pair = _Pair(params, mu1, mu2)
    found = zip(_interior_candidates(pair), _balanced_candidates(pair, scan))
    (cand, branches), (cand_m, branches_m) = (
        _pick(ctx, cands) for ctx, cands in zip(pair.ctx, found)
    )
    mirrored = cand_m["J"] > cand["J"]
    if mirrored:
        cand, branches = _swap_candidate(cand_m), branches_m

    return _build_solution(
        pair.ctx[0],
        mu1,
        mu2,
        cand,
        extra_notes={
            "rho_scan_points": scan.grid_points,
            "branches": branches,
            "mirrored": mirrored,
        },
    )


# ---------------------------------------------------------------------------
# linear-system shortcut
# ---------------------------------------------------------------------------


def coop_solve_closed_form(params: CoopParams, mu1: float, mu2: float) -> CoopSolution:
    """Linear-system shortcut for the all-Exp, common-beta, linear-EH case.

    Solves the cleared stationarity system for (pu1, pu2), recovers
    (p12, p21) from the budget equalities and sets rho from the
    destination-cost equality.  Clearing the denominators of the
    stationarity conditions makes the system degenerate (see module
    docstring): its solution always sits at 1+b*p12 = 1+c*p21 = 0, so the
    validity screen rejects it whenever mu1*mu2 > 0 and beta^2*b*c != 1.
    Kept exact and faithful precisely so that screening-and-rerouting
    behaviour is testable.
    """
    costs = (params.cost_dest, params.cost_user1, params.cost_user2)
    if not all(isinstance(cm, ExpCost) for cm in costs):
        raise TypeError("linear-system shortcut needs Exp costs at all nodes")
    beta = params.cost_dest.beta
    if any(abs(cm.beta - beta) > 1e-12 * max(beta, cm.beta) for cm in costs):
        raise TypeError("linear-system shortcut needs a common beta")
    if not isinstance(params.eh, LinearEh):
        raise TypeError("linear-system shortcut needs the linear EH model")
    if mu1 < 0 or mu2 < 0 or mu1 + mu2 <= 0:
        raise ValueError("weights must be non-negative and not both zero")

    b, c = params.b, params.c
    k = 1.0 - beta * beta * b * c
    if abs(k) <= 1e-12 * max(1.0, beta * beta * b * c):
        raise NonUniqueSolutionError(
            "beta^2*b*c = 1: the power system is singular, solutions non-unique"
        )
    bud1, bud2 = params.p_u1_budget, params.p_u2_budget
    coop_a = bud1 - beta * c * bud2
    coop_b = bud2 - beta * b * bud1

    cc = beta * b * b * c * (mu1 + mu2)
    dd = b * c * (mu1 + mu2 * beta * beta * b * c)
    ee = b * c * (mu2 + mu1 * beta * beta * b * c)
    ff = beta * b * c * c * (mu1 + mu2)
    c1 = mu1 * b * (k + c * coop_b) - mu2 * beta * b * c * (k + b * coop_a)
    c2 = mu2 * c * (k + b * coop_a) - mu1 * beta * b * c * (k + c * coop_b)

    try:
        pu1, pu2 = solve_2x2(-cc, dd, ee, -ff, c1, c2)
    except SingularMatrixError as err:
        # determinant is b^2 c^2 mu1 mu2 k^2: extreme weights land here
        raise NonUniqueSolutionError(str(err)) from err
    p12 = (coop_a - pu1 + beta * c * pu2) / k
    p21 = (coop_b - pu2 + beta * b * pu1) / k

    arg1 = 1.0 + b * p12
    arg2 = 1.0 + c * p21
    degenerate = arg1 <= 1e-12 or arg2 <= 1e-12
    r1 = 0.5 * math.log2(arg1) if arg1 > 1e-12 else 0.0
    r2 = 0.5 * math.log2(arg2) if arg2 > 1e-12 else 0.0

    s = (
        params.h1 ** 2 * (p12 + pu1)
        + params.h2 ** 2 * (p21 + pu2)
        + 2.0 * params.h1 * params.h2 * math.sqrt(max(pu1, 0.0) * max(pu2, 0.0))
    )
    eta = params.eh.eta
    num = beta * (b * p12 + c * p21 + b * c * p12 * p21)
    denom = eta * (s + params.n)
    rho = num / denom if denom > 0.0 else math.inf

    def phi(r):  # the common Exp fee, also at the negative rates of the ray
        return beta * math.expm1(2.0 * _LOG2 * r)

    in_unit = 0.0 <= rho <= 1.0
    residuals = {
        "budget1_w": bud1 - (p12 + pu1 + phi(r2)),
        "budget2_w": bud2 - (p21 + pu2 + phi(r1)),
        "dest_cost_w": (
            params.eh.eval(rho * (s + params.n)) - phi(r1 + r2)
            if in_unit
            else math.nan
        ),
        "sum_mi_bits": (
            float(_mi_sum(_Ctx(params), rho, s)) - (r1 + r2) if in_unit else math.nan
        ),
    }
    valid = min(p12, p21, pu1, pu2) >= -1e-12 and 0.0 <= rho <= 1.0
    sum_ok = (
        not math.isnan(residuals["sum_mi_bits"])
        and residuals["sum_mi_bits"] >= -1e-9
    )
    return CoopSolution(
        alloc=PowerAllocation(p12=p12, p21=p21, pu1=pu1, pu2=pu2),
        rho=rho,
        r1=r1,
        r2=r2,
        weighted_rate=mu1 * r1 + mu2 * r2,
        mu1=mu1,
        mu2=mu2,
        constraint_residuals=residuals,
        cooperation_valid=valid,
        sum_bound_satisfied=sum_ok,
        coop_a=coop_a,
        coop_b=coop_b,
        source="closed-form",
        notes={
            "degenerate_log": degenerate,
            "log_args": (arg1, arg2),
            "system_residuals": (
                -cc * pu1 + dd * pu2 - c1,
                ee * pu1 - ff * pu2 - c2,
            ),
            # budget identities in expanded power form (exact even when the
            # rate-based fee breaks down at nonpositive log arguments)
            "budget_power_residuals": (
                bud1 - (p12 + pu1 + beta * c * p21),
                bud2 - (p21 + pu2 + beta * b * p12),
            ),
            "rho_consistency_w": num - eta * rho * (s + params.n)
            if math.isfinite(rho)
            else math.nan,
            "coefficients": {
                "C": cc, "D": dd, "E": ee, "F": ff, "C1": c1, "C2": c2,
            },
        },
    )


# ---------------------------------------------------------------------------
# constraint evaluation and the weighted frontier
# ---------------------------------------------------------------------------


def coop_constraints_eval(
    params: CoopParams, alloc: PowerAllocation, rho: float, r1: float, r2: float
) -> dict:
    """Signed slacks of all six operating constraints at a candidate point.

    Positive means satisfied with room: link1/link2 in bits, sum MI in
    bits, destination cost in W, and the two user budgets in W.
    """
    ctx = _Ctx(params)
    p12, p21, pu1, pu2 = alloc.p12, alloc.p21, alloc.pu1, alloc.pu2
    s = float(_s_total(ctx, p12, p21, max(pu1, 0.0), max(pu2, 0.0)))
    slacks = {
        "link1_bits": _rate(ctx.b * max(p12, 0.0)) - r1,
        "link2_bits": _rate(ctx.c * max(p21, 0.0)) - r2,
        "sum_mi_bits": _mi_sum(ctx, rho, s) - (r1 + r2),
        "dest_cost_w": ctx.eh.eval(rho * (s + ctx.n)) - ctx.phid(r1 + r2),
        "budget1_w": ctx.bud1 - (p12 + pu1 + ctx.phi1(r2)),
        "budget2_w": ctx.bud2 - (p21 + pu2 + ctx.phi2(r1)),
    }
    return {k: float(v) for k, v in slacks.items()}


def classicalized(params: CoopParams) -> ClassicalParams:
    """The same destination link without cooperation: budgets become
    transmit powers, the destination keeps its cost model."""
    return ClassicalParams(
        h1_sq=params.h1 ** 2,
        h2_sq=params.h2 ** 2,
        p1=params.p_u1_budget,
        p2=params.p_u2_budget,
        n=params.n,
        n_p=params.n_p,
        eh=params.eh,
        cost=params.cost_dest,
    )


def _classical_best(params: CoopParams, mu1, mu2, cache):
    """Best weighted point over the classical MDRBs (vertices suffice for a
    linear objective over a polygonal region)."""
    if "curves" not in cache:
        from .classical_simul import mdrb_simultaneous
        from .classical_sic import mdrb_sic

        cp = classicalized(params)
        cache["curves"] = [mdrb_simultaneous(cp), mdrb_sic(cp)]
    best = (0.0, RatePoint(0.0, 0.0, 0.0))
    for curve in cache["curves"]:
        for pt in curve.points:
            val = mu1 * pt.r1 + mu2 * pt.r2
            if val > best[0]:
                best = (val, pt)
    return best[1]


def coop_mdrb(
    params: CoopParams,
    weights=None,
    solver: str = "general",
    scan: ScanConfig | None = None,
) -> BoundaryCurve:
    """Weighted-sum-rate sweep of the cooperative frontier.

    solver="closed" tries the linear-system shortcut first and reroutes to
    the general solver whenever the screen rejects it (in practice always;
    see module docstring).  Weight pairs whose solves come back invalid
    fall back to the best classical point and are flagged in metadata.
    """
    if solver not in ("closed", "general"):
        raise ValueError(f"unknown solver {solver!r}")
    if weights is None:
        ts = np.linspace(0.0, 1.0, 101)
        weights = [(float(t), float(1.0 - t)) for t in ts]
    cache: dict = {}
    pts, meta = [], []
    for mu1, mu2 in weights:
        if mu1 < 0 or mu2 < 0 or mu1 + mu2 <= 0:
            raise ValueError("weights must be non-negative and not both zero")
        sol = None
        if solver == "closed":
            try:
                cand = coop_solve_closed_form(params, mu1, mu2)
                if cand.cooperation_valid and cand.sum_bound_satisfied:
                    sol = cand
            except (TypeError, NonUniqueSolutionError):
                sol = None
        if sol is None:
            sol = coop_solve_general(params, mu1, mu2, scan)
        if not sol.cooperation_valid:
            pt = _classical_best(params, mu1, mu2, cache)
            pts.append(RatePoint(pt.r1, pt.r2, pt.rho))
            meta.append(
                {"mu1": mu1, "mu2": mu2, "source": "classical", "rho": pt.rho}
            )
            continue
        pts.append(RatePoint(sol.r1, sol.r2, sol.rho))
        meta.append(
            {
                "mu1": mu1,
                "mu2": mu2,
                "source": sol.source,
                "rho": sol.rho,
                "p12": sol.alloc.p12,
                "p21": sol.alloc.p21,
                "pu1": sol.alloc.pu1,
                "pu2": sol.alloc.pu2,
                "weighted_rate": sol.weighted_rate,
            }
        )
    return upper_hull(pts, meta)
