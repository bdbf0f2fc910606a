"""Classical two-user PS-SWIPT MAC with simultaneous (joint) decoding.

The receiver splits its input power by rho; the harvested side must pay the
decoding cost of the *sum* rate, phi(R1+R2) <= psi(rho*a).  Together with
the three mutual-information pentagon constraints this yields a boundary
traced by two rho-parameterized sweeps that meet at a balancing PS factor
rho_c, where harvested power affords exactly the sum-rate bound.

All breakpoint equations are solved on the monotone cost-space residual
    psi(rho*a) - phi(bound(rho))
which is bracketed on [0,1] for every cost family and free of the numeric
blow-ups of the paper's literal balancing functions gamma_c, gamma_1 and
gamma_2 (the tests keep those as the reference the breakpoints are checked
against).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    ClassicalParams,
    ConstCost,
    ExpCost,
    LinearEh,
    RatePoint,
    SolveReport,
)
from .numerics import RootConfig, bisect_root
from .region import BoundaryCurve, envelope, frontier, sweeps

__all__ = [
    "InfeasibleRegionError",
    "SimulBreakpoints",
    "rate_bound_user1",
    "rate_bound_user2",
    "rate_bound_sum",
    "simul_feasible",
    "simul_breakpoints",
    "mdrb_simultaneous",
    "sumrate_simultaneous",
    "simul_closed_form",
]

_ROOT = RootConfig(abs_tol=1e-14, max_iter=200)


class InfeasibleRegionError(RuntimeError):
    """The achievable region is empty (harvest can never cover the cost)."""


@dataclass(frozen=True)
class SimulBreakpoints:
    """PS factors delimiting the two boundary sweeps.

    rho_c balances harvest against the sum-rate bound; rho_1 (resp. rho_2)
    is where the first (resp. second) user's rate hits zero on its sweep.
    rho_1 <= rho_c and rho_2 <= rho_c always.
    """

    rho_c: float
    rho_1: float
    rho_2: float


# ---------------------------------------------------------------------------
# rate bounds of the decoded (1-rho) stream
# ---------------------------------------------------------------------------


def _snr_bound(signal, noise, n_p, x):
    """(1/2)*log2(1 + (1-x)*signal / ((1-x)*noise + n_p)) for scalar/array x.

    Every solver's rate bound of the decoded (1-rho) stream goes through
    here; the oracles keep their own formulas on purpose.  A float x stays
    a Python float up to the log: its arithmetic rounds as float64's does,
    and costs a fraction of a numpy scalar's in the scalar root loops.
    """
    y = 1.0 - (x if isinstance(x, float) else np.asarray(x, dtype=float))
    out = 0.5 * np.log2(1.0 + y * signal / (y * noise + n_p))
    return out if out.ndim else float(out)


def rate_bound_user1(params: ClassicalParams, rho):
    """Single-user bound on R1 at PS factor rho."""
    return _snr_bound(params.h1_sq * params.p1, params.n, params.n_p, rho)


def rate_bound_user2(params: ClassicalParams, rho):
    """Single-user bound on R2 at PS factor rho."""
    return _snr_bound(params.h2_sq * params.p2, params.n, params.n_p, rho)


def rate_bound_sum(params: ClassicalParams, rho, drop_denominator_noise=False):
    """Sum-rate bound at PS factor rho.

    With drop_denominator_noise the decoded-stream noise reduces to n_p
    alone (the n << n_p worst case used by the linear-EH closed form).
    """
    noise = 0.0 if drop_denominator_noise else params.n
    return _snr_bound(params.a - params.n, noise, params.n_p, rho)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


def simul_feasible(params: ClassicalParams, point: RatePoint, tol=1e-12):
    """All four constraints at (r1, r2, rho): two individual rate bounds,
    the sum bound, and the harvested-power decoding-cost bound."""
    r1, r2, rho = point.r1, point.r2, point.rho
    if min(r1, r2, rho) < 0 or rho > 1:
        return False
    if r1 > rate_bound_user1(params, rho) + tol:
        return False
    if r2 > rate_bound_user2(params, rho) + tol:
        return False
    if r1 + r2 > rate_bound_sum(params, rho) + tol:
        return False
    # cost side, in watts (works for the indicator family too)
    return params.cost.eval(r1 + r2) <= params.eh.eval(rho * params.a) + tol


# ---------------------------------------------------------------------------
# breakpoints
# ---------------------------------------------------------------------------


def _cost_balance_root(params, bound_fn, what):
    """Root of psi(x*a) - phi(bound(x)) on [0,1]; monotone non-decreasing."""
    eh, cost, a = params.eh, params.cost, params.a

    def resid(x):
        return eh.eval(x * a) - cost.eval(bound_fn(x))

    lo, hi = resid(0.0), resid(1.0)
    if lo > 0.0:  # free decoding at rho=0 already covers the bound
        return 0.0
    if hi < 0.0:
        raise InfeasibleRegionError(
            f"harvest cannot cover the {what} decoding cost at any PS factor"
        )
    return bisect_root(resid, 0.0, 1.0, _ROOT)


def _const_threshold_rho(params, fee, what):
    """Smallest rho with psi(rho*a) >= fee (indicator-family logic)."""
    eh, a = params.eh, params.a
    if fee <= 0.0:
        return 0.0
    if eh.eval(a) < fee:
        raise InfeasibleRegionError(
            f"harvest psi(a) < {what} decoding fee: empty region"
        )
    return bisect_root(lambda x: eh.eval(x * a) - fee, 0.0, 1.0, _ROOT)


def simul_breakpoints(params: ClassicalParams) -> SimulBreakpoints:
    """Solve the three breakpoint equations by bracketed bisection.

    For the constant family all three collapse onto the one threshold where
    the harvested power first covers the fee.
    """
    if isinstance(params.cost, ConstCost):
        rho_c = _const_threshold_rho(params, params.cost.phi0, "joint")
        return SimulBreakpoints(rho_c=rho_c, rho_1=rho_c, rho_2=rho_c)
    rho_c = _cost_balance_root(
        params, lambda x: rate_bound_sum(params, x), "sum-rate"
    )
    rho_1 = _cost_balance_root(
        params, lambda x: rate_bound_user2(params, x), "second-user"
    )
    rho_2 = _cost_balance_root(
        params, lambda x: rate_bound_user1(params, x), "first-user"
    )
    return SimulBreakpoints(rho_c=rho_c, rho_1=rho_1, rho_2=rho_2)


# ---------------------------------------------------------------------------
# boundary curve
# ---------------------------------------------------------------------------


def _pentagon_curve(params, rho, n_points):
    """Frontier of the rate pentagon at one PS factor (indicator costs)."""
    b1 = rate_bound_user1(params, rho)
    b2 = rate_bound_user2(params, rho)
    bs = rate_bound_sum(params, rho)
    kink = max(bs - b1, 0.0)
    r2 = np.unique(
        np.concatenate([np.linspace(0.0, b2, max(n_points, 2)), [kink, b2]])
    )
    r2 = r2[bs - r2 >= -1e-15]
    r1 = np.where(bs - r2 < b1, bs - r2, b1)  # min(b1, bs - r2)
    return frontier(*sweeps((r1, r2, np.full(r2.size, rho), {"segment": "pentagon"})))


def _convexity_holds(params, p_lo, p_hi):
    """Numerical convexity check of phi^{-1}(psi(.)) on [p_lo, p_hi]."""
    if p_hi <= p_lo:
        return True
    p = np.linspace(p_lo, p_hi, 257)
    u = params.cost.rate_cap(params.eh.eval(p), np.inf)
    d2 = np.diff(u, 2)
    scale = max(1.0, float(np.max(np.abs(u))))
    return bool(np.all(d2 >= -1e-9 * scale))


def _sags_below_hull(curve):
    """True when some frontier point lies below the time-sharing envelope.

    The affordable-map convexity test does not bound the geometry of the
    parametric sweeps: even with a convex affordable map the pinned bound
    and the affordable sum fight over rho near the axis corners and can
    trace an arc that dips under its own chord.  Comparing against the
    envelope directly catches that.
    """
    r1, r2 = curve.r1, curve.r2
    hull_r1, hull_r2 = envelope(r1, r2)
    sag = np.interp(r2, hull_r2, hull_r1) - r1
    scale = max(1.0, float(hull_r1.max()))
    return bool(np.max(sag) > 1e-9 * scale)


def mdrb_simultaneous(params: ClassicalParams, n_points: int = 512):
    """Discretized boundary of the simultaneous-decoding departure region.

    Two rho sweeps (each fixing one user's bound at equality and giving the
    leftover affordable sum to the other) plus the slope -1 sum-rate face at
    rho_c.  If the affordable-sum map fails a numerical convexity check the
    time-sharing envelope is applied and the curve flagged hulled.
    """
    try:
        bp = simul_breakpoints(params)
    except InfeasibleRegionError as err:
        return BoundaryCurve(points=[], metadata=[], empty_reason=str(err))

    if isinstance(params.cost, ConstCost):
        return _pentagon_curve(params, bp.rho_c, n_points)

    eh, cost, a = params.eh, params.cost, params.a

    def affordable(rho_arr):
        return cost.rate_cap(eh.eval(np.asarray(rho_arr) * a), np.inf)

    # sweep with user 2 pinned at its individual bound (R1 grows from 0)
    rho1_grid = np.linspace(bp.rho_1, bp.rho_c, n_points)
    r2_seg = rate_bound_user2(params, rho1_grid)
    r1_seg = np.maximum(affordable(rho1_grid) - r2_seg, 0.0)

    # symmetric sweep with user 1 pinned
    rho2_grid = np.linspace(bp.rho_2, bp.rho_c, n_points)
    r1b_seg = rate_bound_user1(params, rho2_grid)
    r2b_seg = np.maximum(affordable(rho2_grid) - r1b_seg, 0.0)

    # sum-rate face at the balancing factor (slope -1 between sweep ends)
    s = float(affordable(np.array([bp.rho_c]))[0])
    b1c = rate_bound_user1(params, bp.rho_c)
    b2c = rate_bound_user2(params, bp.rho_c)
    face_lo = max(s - b1c, 0.0)
    r2_face = np.linspace(face_lo, min(b2c, s), max(n_points // 8, 2))
    r1_face = np.where(s - r2_face < 0.0, 0.0, s - r2_face)  # max(s - r2, 0.0)

    cloud = sweeps(
        (r1_seg, r2_seg, rho1_grid, {"segment": "user2-pinned"}),
        (r1b_seg, r2b_seg, rho2_grid, {"segment": "user1-pinned"}),
        (r1_face, r2_face, np.full(r2_face.size, bp.rho_c), {"segment": "sum-face"}),
    )
    lo = min(bp.rho_1, bp.rho_2) * a
    if _convexity_holds(params, lo, bp.rho_c * a):
        raw = frontier(*cloud)
        if not _sags_below_hull(raw):
            return raw
    return frontier(*cloud, hull=True)


# ---------------------------------------------------------------------------
# optimal sum rate
# ---------------------------------------------------------------------------


def sumrate_simultaneous(
    params: ClassicalParams, drop_denominator_noise: bool = False
) -> SolveReport:
    """Optimal PS factor and sum rate under simultaneous decoding.

    At the optimum the harvested power exactly covers the cost of the
    sum-rate bound: phi(sum_bound(rho)) = psi(rho*a).  The left side is
    decreasing and the right increasing in rho, so the root is unique and
    bracketed on [0,1].
    """
    eh, cost, a = params.eh, params.cost, params.a

    if isinstance(cost, ConstCost):
        rho = _const_threshold_rho(params, cost.phi0, "joint")
        sum_rate = rate_bound_sum(params, rho, drop_denominator_noise)
        return SolveReport(
            rho_opt=rho,
            sum_rate=sum_rate,
            residuals={"cost_balance_w": eh.eval(rho * a) - cost.phi0},
            bound=None,
            candidates=[(rho, sum_rate, "fee-threshold")],
            notes={"cost_family": "const"},
        )

    def bound(rho):
        return rate_bound_sum(params, rho, drop_denominator_noise)

    def resid(x):
        return cost.eval(bound(x)) - eh.eval(x * a)

    rho = bisect_root(resid, 0.0, 1.0, _ROOT)
    sum_rate = bound(rho)
    upper = cost.inverse(eh.eval(a))
    if sum_rate > upper + 1e-9:  # pragma: no cover - structural guarantee
        raise RuntimeError("sum rate exceeded its harvest ceiling")
    return SolveReport(
        rho_opt=rho,
        sum_rate=sum_rate,
        residuals={"cost_balance_w": resid(rho)},
        bound=upper,
        candidates=[(rho, sum_rate, "cost-balance-root")],
        notes={"drop_denominator_noise": drop_denominator_noise},
    )


def simul_closed_form(params: ClassicalParams):
    """(rho, sum_rate) in closed form for linear EH + convex-exponential cost
    with the denominator antenna noise dropped.

    The balance equation is linear in rho there:
        eta*rho*a*n_p = beta*(1-rho)*(a-n)
    giving rho = beta*(a-n) / (beta*(a-n) + eta*a*n_p).
    """
    if not isinstance(params.eh, LinearEh):
        raise TypeError("closed form needs the linear EH model")
    if not isinstance(params.cost, ExpCost):
        raise TypeError("closed form needs the convex-exponential cost")
    beta = params.cost.beta
    eta = params.eh.eta
    a, n, n_p = params.a, params.n, params.n_p
    rho = beta * (a - n) / (beta * (a - n) + eta * a * n_p)
    sum_rate = 0.5 * math.log2(1.0 + (1.0 - rho) * (a - n) / n_p)
    return rho, sum_rate
