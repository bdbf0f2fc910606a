"""Two-user PS-SWIPT MAC with decode-and-forward user cooperation.

Each user splits its budget P_Ui between a fresh message beamed to its
partner (p12 from user 1, p21 from user 2), a coherently combined common
message (pu1, pu2), and the power burnt decoding the partner's fresh
message.  Fresh-message rates are pinned to the inter-user links,
r1 = 1/2*log2(1+b*p12) and r2 = 1/2*log2(1+c*p21), and the destination must
both cover its decoding cost from the harvested stream and satisfy the
sum mutual-information bound with the coherent power

    S = h1^2*(p12+pu1) + h2^2*(p21+pu2) + 2*h1*h2*sqrt(pu1*pu2).

``coop_solve_general`` is the weighted-rate solver.  More common power
only raises S, so an optimum spends both budgets, and the fresh powers
(p12, p21) fix everything else:

    pu1 = P_U1 - p12 - phi1(r2),   pu2 = P_U2 - p21 - phi2(r1).

Raising either fresh power raises both rates and lowers pu1, pu2 and S
(every fee phi is non-decreasing).  The destination fee needs
rho >= rho_min = psi^-1(phi_d(r1+r2)) / (S+n), which rises in both
powers, and the sum MI bound needs rho <= rho_max =
1 - q*n_p/(S - q*n) with q = 2^(2(r1+r2)) - 1, which falls in both.  So
(p12, p21) is feasible iff pu1 >= 0, pu2 >= 0, rho_hi =
min(1, rho_max) >= 0 and psi(rho_hi*(S+n)) >= phi_d(r1+r2): a
closed-form test whose feasible set is downward closed.  The weighted
rate rises in both powers, so every optimum lies on the upper boundary
p21*(p12) of that set (monotonic optimisation: H. Tuy, "Monotonic
optimization: problems and solution approaches", SIAM J. Optim. 11(2),
2000).  The paper's joint optimal PS factor is then any rho in
[max(0, rho_min), rho_hi] at the optimal powers.

The solver traces that boundary: one bisection on the feasibility test
per p12 of a grid, then zoom grids in p12 around the best point, each
zoom point bracketed by its neighbours since p21* is non-increasing.
The trace runs in both user orientations, as given and with the users
swapped, so the boundary is met from both axes; the rows of both run as
one numpy batch, each with its own orientation's constants and fee
families, and the better orientation wins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .models import (
    ClassicalParams,
    CoopParams,
    NoInverseError,
    PowerAllocation,
    SaturationError,
)
from .numerics import ConvergenceError, ScanConfig
from .region import BoundaryCurve, frontier
from .classical_simul import _snr_bound

__all__ = [
    "CoopSolution",
    "coop_constraints_eval",
    "coop_solve_general",
    "coop_mdrb",
    "classicalized",
]

_LOG2 = math.log(2.0)
_BITS = 46  # each bisection stops at a bracket of 2^-_BITS of its axis
# a bracket within its axis closes to 2^-_BITS of it in about _BITS + 1
# passes; _bisect raises on one still open after _MAX_PASSES
_MAX_PASSES = 4 * _BITS
_TOL_FLOOR = math.ulp(0.0)  # the smallest subnormal float (see _tol)
_P12_STEPS = 8  # p12 grid steps per ScanConfig grid step
_ZOOM = np.linspace(-1.0, 1.0, 33)  # a zoom level: 16 points on each side
# the constraints the answer can stop at, in the order _trace tests them,
# and the CoopSolution.source each one maps to
_SOURCE = {"budget1": "interior", "budget2": "interior", "fee": "cost-tight",
           "sum-mi": "balanced", "fee+sum-mi": "balanced", "none": "interior"}


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
    source: str = "general"
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _rate(x):
    return np.log1p(x) / (2.0 * _LOG2)


def _s_total(bt, p12, p21, pu1, pu2):
    return (
        bt.hh1 * (p12 + pu1)
        + bt.hh2 * (p21 + pu2)
        + bt.hh12 * np.sqrt(pu1 * pu2)
    )


class _Batch:
    """Rows of a trace, each in one user orientation of `params`: rows
    [0, split) as given, rows [split, R) user-swapped.  b, c, the
    coefficients of _s_total (rounded as h1*h1*(...) would round) and the
    budgets are (R, 1) columns, so points lie along axis 1; each row pays
    its own orientation's fees.  The models are bound as their unchecked
    kernels: _test hands them non-negative arrays by construction."""

    def __init__(self, params: CoopParams, orient):
        self.split = int(np.count_nonzero(orient == 0))
        rows = [
            (p.b, p.c, p.h1 * p.h1, p.h2 * p.h2, 2.0 * p.h1 * p.h2,
             p.p_u1_budget, p.p_u2_budget)
            for p in (params, params.swapped())
        ]
        self.b, self.c, self.hh1, self.hh2, self.hh12, self.bud1, self.bud2 = (
            np.array(col)[orient, None] for col in zip(*rows)
        )
        # the destination side is the same in both orientations
        self.n, self.n_p = params.n, params.n_p
        self.psi, self.phid = params.eh.kernel, params.cost_dest.kernel
        u1, u2 = params.cost_user1, params.cost_user2
        self.phi1, self.phi2 = self._per_row(u1, u2), self._per_row(u2, u1)

    def _per_row(self, a, b):
        """Fee a on rows [0, split), fee b on the rest."""
        if a == b:
            return a.kernel
        split = self.split
        return lambda r: np.concatenate([a.kernel(r[:split]), b.kernel(r[split:])])


def _test(bt: _Batch, p12, p21, pre=None, parts=False) -> dict:
    """The closed-form feasibility test at the points (p12, p21).

    pre = (r1, phi2(r1)) saves their evaluation when p12 is fixed.
    rec["ok"] is the verdict; parts=True adds each constraint's own.
    """
    r1, fee2 = pre or (_rate(bt.b * p12), bt.phi2(_rate(bt.b * p12)))
    r2 = _rate(bt.c * p21)
    pu1 = bt.bud1 - p12 - bt.phi1(r2)
    pu2 = bt.bud2 - p21 - fee2
    s = _s_total(bt, p12, p21, np.maximum(pu1, 0.0), np.maximum(pu2, 0.0))
    r = r1 + r2
    q = np.expm1(2.0 * _LOG2 * r)
    d = s - q * bt.n
    mi = q * bt.n_p <= d  # the sum MI bound holds at rho = 0
    rho_hi = np.where(mi, 1.0 - q * bt.n_p / np.where(mi & (d > 0.0), d, 1.0), 0.0)
    fee = bt.phid(r)
    joint = bt.psi(rho_hi * (s + bt.n)) >= fee
    rec = {
        "ok": (pu1 >= 0.0) & (pu2 >= 0.0) & mi & joint,
        "r1": r1, "r2": r2, "pu1": pu1, "pu2": pu2, "s": s, "rho_hi": rho_hi,
    }
    if parts:  # keyed by _SOURCE; "fee" at rho = 1, the MI bound aside
        rec.update({
            "budget1": pu1 >= 0.0, "budget2": pu2 >= 0.0, "sum-mi": mi,
            "fee": bt.psi(s + bt.n) >= fee, "fee+sum-mi": joint,
        })
    return rec


def _bisect(bt: _Batch, p12, lo, hi, tol):
    """Boundary p21*(p12) at every point: bisects the feasibility test on
    [lo, hi] until hi - lo <= tol, lo feasible throughout and hi
    infeasible (or p21* itself).  Each point stops on its own, so its
    result does not depend on the rest of the batch.  Returns lo, hi and
    the number of test batches run; raises ConvergenceError when a bracket
    is still open after _MAX_PASSES batches."""
    r1 = _rate(bt.b * p12)
    pre = r1, bt.phi2(r1)
    passes = 0
    act = hi - lo > tol
    while act.any():
        if passes == _MAX_PASSES:
            raise ConvergenceError(
                f"{np.count_nonzero(act)} boundary brackets still wider than "
                f"their tolerance after {passes} passes"
            )
        mid = 0.5 * (lo + hi)
        ok = _test(bt, p12, mid, pre)["ok"]
        lo = np.where(act & ok, mid, lo)
        hi = np.where(act & ~ok, mid, hi)
        act = hi - lo > tol
        passes += 1
    return lo, hi, passes


def _tol(axis):
    """The bisection tolerance on an axis of length `axis`: 2^-_BITS of it,
    or the smallest subnormal float where that underflows to 0 (an axis
    of 2^-1029 or less).  A bracket of two adjacent subnormals has its
    midpoint on an end, so a zero tolerance would never let it close;
    every bracket wider than the tolerance has its midpoint inside."""
    return np.maximum(axis * 2.0 ** -_BITS, _TOL_FLOOR)


def _neighbours(x, lo, hi, J):
    """Each row's best point (column 1) and its left and right neighbours
    (columns 0 and 2; the point itself at an end), as (x, lo, hi)."""
    best = np.argmax(J, axis=1)
    cols = np.stack([np.maximum(best - 1, 0), best, np.minimum(best + 1, J.shape[1] - 1)], 1)
    rows = np.arange(J.shape[0])[:, None]
    return x[rows, cols], lo[rows, cols], hi[rows, cols]


def _zoom_points(nb):
    """A zoom level's points and brackets from each row's neighbours.

    The points split the two cells around the incumbent 16 ways each.
    Since p21* is non-increasing, a point left of the incumbent lies in
    [lo of the incumbent, hi of the left neighbour], and one right of it
    in [lo of the right neighbour, hi of the incumbent]; the old points
    keep their own brackets.
    """
    (xl, xm, xr), (ll, lm, lr), (hl, hm, hr) = (
        (v[:, :1], v[:, 1:2], v[:, 2:]) for v in nb
    )
    u = _ZOOM
    x = np.where(u < 0.0, xm + (xm - xl) * u, xm + (xr - xm) * u)
    x = np.where(u == -1.0, xl, np.where(u == 1.0, xr, x))
    lo = np.where(u < 0.0, lm, lr)
    lo = np.where(u == -1.0, ll, np.where(u == 0.0, lm, lo))
    hi = np.where(u > 0.0, hm, hl)
    hi = np.where(u == 1.0, hr, np.where(u == 0.0, hm, hi))
    return x, lo, hi


@functools.lru_cache(maxsize=8)
def _boundary(params: CoopParams, scan: ScanConfig) -> tuple:
    """The weight-independent stages of the trace, for both orientations
    as rows: the axis ends p21_end (p12_end is its reverse) and p21*(x)
    bracketed by [lo, hi] to tol on the p12 grid x, with the number of
    test batches they took.  The arrays are read-only, since the memo hands
    them to every later solve of the network.  It keeps no per-network
    constants: a solve takes those from its own params, which can differ
    from the key they hit while comparing equal (a budget of -0.0 leaves
    pu1 = -0.0)."""
    both = _Batch(params, np.array([0, 1]))

    # the axes: p21* at p12 = 0 in each orientation, capped by the budgets;
    # orientation o's p12 axis ends where orientation 1-o's p21 axis does
    with np.errstate(over="ignore"):
        r_cap = np.array([params.cost_user1.rate_cap(params.p_u1_budget, np.inf),
                          params.cost_user2.rate_cap(params.p_u2_budget, np.inf)])
        cap = np.minimum(both.bud2[:, 0], np.expm1(2.0 * _LOG2 * r_cap) / both.c[:, 0])
    cap = cap[:, None]
    zero = np.zeros_like(cap)
    p21_end, _, passes = _bisect(both, zero, zero, cap, _tol(cap))
    p12_end = p21_end[::-1]

    # the grid: p21*(p12) at every p12 step of both orientations
    x = p12_end * np.linspace(0.0, 1.0, _P12_STEPS * (scan.grid_points - 1) + 1)
    tol = _tol(p21_end)
    lo = np.zeros_like(x)
    lo[:, :1] = p21_end  # p21*(0) is the axis end
    lo, hi, k = _bisect(both, x, lo, np.broadcast_to(p21_end, x.shape), tol)
    arrays = (p21_end, p12_end, x, tol, lo, hi)
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, passes + k)


def _trace(params: CoopParams, weights: np.ndarray, scan: ScanConfig) -> list:
    """Best boundary point of each weight pair (rows of `weights`) in both
    orientations, as candidate records of the network as given."""
    try:
        hash(params)
    except TypeError:  # a custom model that cannot be hashed: no memo
        boundary = _boundary.__wrapped__
    else:
        boundary = _boundary
    p21_end, p12_end, x, tol, lo, hi, passes = boundary(params, scan)

    # every weight pair of both orientations is a row from here on
    n_w = weights.shape[0]
    orient = np.repeat([0, 1], n_w)
    mu = np.concatenate([weights, weights[:, ::-1]])[:, :, None]
    bt = _Batch(params, orient)
    xs, los = x[orient], lo[orient]
    J = mu[:, 0] * _rate(bt.b * xs) + mu[:, 1] * _rate(bt.c * los)
    nb = _neighbours(xs, los, hi[orient], J)
    tol = tol[orient]
    for _ in range(max(1, scan.refine_iters // 2)):
        x, lo, hi = _zoom_points(nb)
        lo, hi, k = _bisect(bt, x, lo, hi, tol)
        passes += k
        J = mu[:, 0] * _rate(bt.b * x) + mu[:, 1] * _rate(bt.c * lo)
        nb = _neighbours(x, lo, hi, J)

    # the answer of each row, and the tests a step of 2^-30 of both axes
    # outside it
    x, p21 = nb[0][:, 1:2], nb[1][:, 1:2]
    rec = _test(bt, x, p21)
    step = 2.0 ** -30
    out = _test(bt, x + p12_end[orient] * step, p21 + p21_end[orient] * step, parts=True)
    passes += 2
    J = mu[:, 0] * rec["r1"] + mu[:, 1] * rec["r2"]

    def rank(row):  # an exact tie in J goes to the larger point in own labels
        return J[row, 0], x[row, 0], p21[row, 0]

    found = []
    for w in range(n_w):
        o = int(rank(n_w + w) > rank(w))  # 1: the swapped orientation wins
        row = o * n_w + w
        cand = {k: float(v[row, 0]) for k, v in rec.items() if k != "ok"}
        cand.update(p12=float(x[row, 0]), p21=float(p21[row, 0]))
        cand["rho"] = _rho(params, cand)
        # the first constraint that fails just outside the answer
        binding = next((k for k in _SOURCE if k != "none" and not out[k][row, 0]), "none")
        cand["source"] = (
            "zero" if cand["p12"] == cand["p21"] == 0.0 else _SOURCE[binding]
        )
        cand["notes"] = {
            "binding": binding,
            "passes": passes,
            "mirrored": bool(o),
            "rho_interval": (cand["rho"], cand["rho_hi"]),
        }
        found.append(_swap_candidate(cand) if o else cand)
    return found


def _rho(params: CoopParams, cand: dict) -> float:
    """The low end max(0, rho_min) of the optimal PS-factor interval, where
    the harvest covers the destination fee exactly; held at or below
    rho_hi against roundoff.  Only the destination side, the same in
    both user orientations, enters."""
    rho_hi = cand["rho_hi"]
    fee = params.cost_dest.eval(cand["r1"] + cand["r2"])
    try:
        rho_lo = params.eh.inverse(fee) / (cand["s"] + params.n) if fee > 0.0 else 0.0
    except (SaturationError, NoInverseError):  # roundoff at a saturated fee
        rho_lo = rho_hi
    return min(max(rho_lo, 0.0), rho_hi)


def _build_solution(params, mu1, mu2, cand, notes) -> CoopSolution:
    alloc = PowerAllocation(cand["p12"], cand["p21"], cand["pu1"], cand["pu2"])
    rho, r1, r2 = cand["rho"], cand["r1"], cand["r2"]
    slacks = coop_constraints_eval(params, alloc, rho, r1, r2)
    return CoopSolution(
        alloc=alloc,
        rho=rho,
        r1=r1,
        r2=r2,
        weighted_rate=mu1 * r1 + mu2 * r2,
        mu1=mu1,
        mu2=mu2,
        constraint_residuals={
            k: slacks[k] for k in ("budget1_w", "budget2_w", "dest_cost_w", "sum_mi_bits")
        },
        cooperation_valid=alloc.min_power() >= -1e-9 and 0.0 <= rho <= 1.0,
        sum_bound_satisfied=slacks["sum_mi_bits"] >= -1e-9,
        source=cand["source"],
        notes=notes,
    )


_SWAP = {"p12": "p21", "p21": "p12", "pu1": "pu2", "pu2": "pu1", "r1": "r2", "r2": "r1"}


def _swap_candidate(cand: dict) -> dict:
    return {_SWAP.get(k, k): v for k, v in cand.items()}


def _check_weights(mu1, mu2):
    if mu1 < 0 or mu2 < 0 or mu1 + mu2 <= 0:
        raise ValueError("weights must be non-negative and not both zero")


def _solve(params: CoopParams, weights: list, scan: ScanConfig | None) -> list:
    """coop_solve_general at every weight pair, from one boundary trace."""
    for mu1, mu2 in weights:
        _check_weights(mu1, mu2)
    scan = scan or ScanConfig(grid_points=61, refine_iters=24)
    found = _trace(params, np.array(weights, dtype=float).reshape(-1, 2), scan)
    return [
        _build_solution(params, mu1, mu2, cand, cand.pop("notes"))
        for (mu1, mu2), cand in zip(weights, found)
    ]


def coop_solve_general(
    params: CoopParams, mu1: float, mu2: float, scan: ScanConfig | None = None
) -> CoopSolution:
    """Numeric weighted-sum-rate solve for any EH/cost combination.

    Traces the upper boundary p21*(p12) of the feasible fresh powers (see
    module docstring); both budgets are spent exactly.

    * The axis ends: p21* at p12 = 0 by bisection in each user
      orientation; one orientation's p21 axis is the other's p12 axis.
    * The grid: p21*(p12) by bisection at 8*(scan.grid_points-1)+1 evenly
      spaced p12 values, each bracket narrowed to 2^-46 of the p21 axis.
    * The zoom: scan.refine_iters // 2 levels (at least one), each
      splitting the two p12 cells around the incumbent 16 ways and
      bisecting every new point inside the bracket its neighbours give.

    The axis ends and the grid do not depend on the weights, so a small
    LRU memo keyed by the network and the scan keeps them (read-only) for
    the last few networks solved: a repeat solve of a network, at any
    weights, runs only the zoom, and returns what a first solve would,
    bit for bit.  A network whose models cannot be hashed is traced afresh
    on every solve; a model hashed by identity must not change after its
    first solve.

    The returned rho is the low end of the optimal PS-factor interval
    [max(0, rho_min), rho_hi] (notes["rho_interval"]), where the harvest
    covers the fee exactly.  notes["binding"] names the first of budget1,
    budget2, fee (not coverable even at rho = 1), sum-mi (the MI bound
    fails even at rho = 0) and fee+sum-mi (the interval closes) that fails
    a step of 2^-30 of both axes outside the answer, or none.  source maps
    it to the branch names of earlier solvers: interior for a budget or
    none, cost-tight for fee, balanced for sum-mi and fee+sum-mi, and zero
    for the all-common allocation.  notes["passes"] counts the batches of
    the feasibility test, the memoized stages' included.

    Both orientations, as given and user-swapped (weights swapped too),
    run as rows of one batch and the better wins (notes["mirrored"]), so
    the solver is exactly symmetric under a user swap.
    """
    return _solve(params, [(mu1, mu2)], scan)[0]


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
    p = params
    p12, p21, pu1, pu2 = alloc.p12, alloc.p21, alloc.pu1, alloc.pu2
    # S as _s_total rounds it, with no negative common power in any term
    c1, c2 = max(pu1, 0.0), max(pu2, 0.0)
    s = (p.h1 * p.h1 * (p12 + c1) + p.h2 * p.h2 * (p21 + c2)
         + 2.0 * p.h1 * p.h2 * math.sqrt(c1 * c2))
    slacks = {
        "link1_bits": _rate(p.b * max(p12, 0.0)) - r1,
        "link2_bits": _rate(p.c * max(p21, 0.0)) - r2,
        "sum_mi_bits": _snr_bound(s, p.n, p.n_p, rho) - (r1 + r2),
        "dest_cost_w": p.eh.eval(rho * (s + p.n)) - p.cost_dest.eval(r1 + r2),
        "budget1_w": p.p_u1_budget - (p12 + pu1 + p.cost_user1.eval(r2)),
        "budget2_w": p.p_u2_budget - (p21 + pu2 + p.cost_user2.eval(r1)),
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


def coop_mdrb(
    params: CoopParams, weights=None, scan: ScanConfig | None = None
) -> BoundaryCurve:
    """Weighted-sum-rate sweep of the cooperative frontier.

    The feasible boundary does not depend on the weights, so every weight
    pair comes out of one trace (see coop_solve_general).  Raises
    RuntimeError if a solve ever comes back invalid.
    """
    if weights is None:
        ts = np.linspace(0.0, 1.0, 101)
        weights = [(float(t), float(1.0 - t)) for t in ts]
    sols = _solve(params, weights, scan)
    for sol in sols:
        if not sol.cooperation_valid:
            raise RuntimeError(
                f"cooperative solve at weights ({sol.mu1}, {sol.mu2}) is invalid"
            )
    return frontier(
        *(
            ([sol.r1], [sol.r2], [sol.rho], {
                "mu1": sol.mu1, "mu2": sol.mu2, "source": sol.source,
                **asdict(sol.alloc), "weighted_rate": sol.weighted_rate,
            })
            for sol in sols
        ),
        hull=True,
    )
