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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .models import (
    ClassicalParams,
    ConstCost,
    ExpCost,
    LinearEh,
    ModelDomainError,
    SolveReport,
)
from .numerics import RootConfig, bisect_root
from .region import BoundaryCurve, frontier

__all__ = [
    "InfeasibleRegionError",
    "SimulBreakpoints",
    "rate_bound_user1",
    "rate_bound_user2",
    "rate_bound_sum",
    "simul_slacks",
    "simul_breakpoints",
    "mdrb_simultaneous",
    "sumrate_simultaneous",
    "simul_closed_form",
]

_ROOT = RootConfig(abs_tol=1e-14, max_iter=200)

# the two boundary sweeps of either scheme, each running from its start
# breakpoint up to rho_c: (pins user 1, segment label, start breakpoint)
_SWEEPS = ((False, "user2-pinned", "rho_1"), (True, "user1-pinned", "rho_2"))


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
# constraint slacks
# ---------------------------------------------------------------------------


def _check_point(r1, r2, rho):
    """Raise ModelDomainError on a negative or NaN rate, or a rho outside
    [0, 1], each a float or a float array."""
    if not (np.all(r1 >= 0.0) and np.all(r2 >= 0.0) and np.all((rho >= 0.0) & (rho <= 1.0))):
        raise ModelDomainError("rates must be >= 0 and rho in [0, 1]")


def simul_slacks(params: ClassicalParams, r1, r2, rho) -> dict:
    """Signed slacks at (r1, r2, rho), positive meaning room: the rate
    bounds rate1_bits, rate2_bits and sum_bits, and fee_w [W], the harvest
    minus the fee phi(r1 + r2).  Floats give floats; arrays broadcast."""
    _check_point(r1, r2, rho)
    return {
        "rate1_bits": rate_bound_user1(params, rho) - r1,
        "rate2_bits": rate_bound_user2(params, rho) - r2,
        "sum_bits": rate_bound_sum(params, rho) - (r1 + r2),
        "fee_w": params.eh.eval(rho * params.a) - params.cost.eval(r1 + r2),
    }


# ---------------------------------------------------------------------------
# breakpoints
# ---------------------------------------------------------------------------


def _balance_root(params, fee):
    """Smallest rho in [0, 1] whose harvest psi(rho*a) covers fee(rho), a
    non-increasing decoding fee in W: the root of the non-decreasing
    psi(rho*a) - fee(rho), by bisection; NaN when not even rho = 1 does."""
    eh, a = params.eh, params.a

    def resid(x):  # x*a >= 0, so psi skips eval's domain check
        return eh._scalar_kernel(x * a) - fee(x)

    if resid(0.0) >= 0.0:  # free decoding at rho=0 already covers the fee
        return 0.0
    if resid(1.0) < 0.0:
        return math.nan
    return bisect_root(resid, 0.0, 1.0, _ROOT)


def _fee(params, streams):
    """The fee of decoding streams at rho: phi of the _snr_bound of each
    (signal, noise) pair, summed; for ConstCost streams is the number of
    messages, each charged phi0 whatever its rate."""
    cost, n_p = params.cost, params.n_p
    if isinstance(cost, ConstCost):
        fee = streams * cost.phi0
        return lambda x: fee
    phi = cost._scalar_kernel  # a rate bound is >= 0
    if len(streams) == 1:
        ((s, m),) = streams
        return lambda x: phi(_snr_bound(s, m, n_p, x))
    (s1, m1), (s2, m2) = streams
    return lambda x: phi(_snr_bound(s1, m1, n_p, x)) + phi(_snr_bound(s2, m2, n_p, x))


@functools.lru_cache(maxsize=32)
def _shared_root(params, streams):
    """_balance_root of _fee(params, streams), memoized: a key fixes every
    float operation of its residual, so both schemes and both SIC orders
    share each root they have in common (equal params, p2 = 0.0 and -0.0,
    share one)."""
    return _balance_root(params, _fee(params, streams))


def _root(params, streams, what):
    """The balance root of the fee of streams (see _fee), solved once per
    (params, streams) (an unhashable model is solved afresh); raises
    InfeasibleRegionError naming the what decoding cost when the harvest
    never covers it."""
    try:
        hash(params)
        solve = _shared_root
    except TypeError:
        solve = _shared_root.__wrapped__
    rho = solve(params, streams)
    if math.isnan(rho):
        raise InfeasibleRegionError(
            f"harvest cannot cover the {what} decoding cost at any PS factor"
        )
    return rho


def _rho_c(params: ClassicalParams) -> float:
    """rho_c, where the harvest first covers the joint decoding fee: the
    region and the sum-rate optimum both end there."""
    if isinstance(params.cost, ConstCost):
        return _root(params, 1, "joint")
    return _root(params, ((params.a - params.n, params.n),), "sum-rate")


def simul_breakpoints(params: ClassicalParams) -> SimulBreakpoints:
    """Solve the three breakpoint equations by bracketed bisection.

    For the constant family all three collapse onto the one threshold where
    the harvested power first covers the fee.
    """
    rho_c = _rho_c(params)
    if isinstance(params.cost, ConstCost):
        return SimulBreakpoints(rho_c=rho_c, rho_1=rho_c, rho_2=rho_c)
    n = params.n
    return SimulBreakpoints(
        rho_c=rho_c,
        rho_1=_root(params, ((params.h2_sq * params.p2, n),), "second-user"),
        rho_2=_root(params, ((params.h1_sq * params.p1, n),), "first-user"),
    )


# ---------------------------------------------------------------------------
# boundary curve
# ---------------------------------------------------------------------------


def _check_n_points(n_points):
    if n_points < 2:
        raise ValueError("n_points must be >= 2")


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
    return frontier((r1, r2, np.full(r2.size, rho), {"segment": "pentagon"}))


def mdrb_simultaneous(params: ClassicalParams, n_points: int = 512):
    """Discretized boundary of the simultaneous-decoding departure region.

    Two rho sweeps (each fixing one user's bound at equality and giving the
    leftover affordable sum to the other) plus the slope -1 sum-rate face at
    rho_c, closed by time sharing: a smooth fee's region is the envelope of
    that cloud, flagged hulled, as mdrb_sic's is.  The indicator fee's
    region is the rate pentagon at its fee threshold, a raw frontier.
    """
    _check_n_points(n_points)
    try:
        bp = simul_breakpoints(params)
    except InfeasibleRegionError as err:
        return BoundaryCurve(empty_reason=str(err))

    if isinstance(params.cost, ConstCost):
        return _pentagon_curve(params, bp.rho_c, n_points)

    eh, cost, a = params.eh, params.cost, params.a

    def affordable(rho_arr):
        return cost.rate_cap(eh.eval(np.asarray(rho_arr) * a), np.inf)

    parts = []
    for pin_user1, segment, start in _SWEEPS:
        rho = np.linspace(getattr(bp, start), bp.rho_c, n_points)
        pinned = (rate_bound_user1 if pin_user1 else rate_bound_user2)(params, rho)
        other = np.maximum(affordable(rho) - pinned, 0.0)
        r1, r2 = (pinned, other) if pin_user1 else (other, pinned)
        parts.append((r1, r2, rho, {"segment": segment}))

    # sum-rate face at the balancing factor (slope -1 between sweep ends)
    s = float(affordable(np.array([bp.rho_c]))[0])
    b1c = rate_bound_user1(params, bp.rho_c)
    b2c = rate_bound_user2(params, bp.rho_c)
    face_lo = max(s - b1c, 0.0)
    r2_face = np.linspace(face_lo, min(b2c, s), max(n_points // 8, 2))
    r1_face = np.where(s - r2_face < 0.0, 0.0, s - r2_face)  # max(s - r2, 0.0)
    parts.append((r1_face, r2_face, np.full(r2_face.size, bp.rho_c), {"segment": "sum-face"}))
    return frontier(*parts, hull=True)


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
        rho = _rho_c(params)
        sum_rate = rate_bound_sum(params, rho, drop_denominator_noise)
        return SolveReport(
            rho_opt=rho,
            sum_rate=sum_rate,
            residuals={"cost_balance_w": eh.eval(rho * a) - cost.phi0},
            notes={"cost_family": "const"},
        )

    if drop_denominator_noise:
        rho = _root(params, ((a - params.n, 0.0),), "sum-rate")
    else:
        rho = _rho_c(params)
    sum_rate = rate_bound_sum(params, rho, drop_denominator_noise)
    upper = cost.inverse(eh.eval(a))
    if sum_rate > upper + 1e-9:  # pragma: no cover - structural guarantee
        raise RuntimeError("sum rate exceeded its harvest ceiling")
    return SolveReport(
        rho_opt=rho,
        sum_rate=sum_rate,
        residuals={"cost_balance_w": cost.eval(sum_rate) - eh.eval(rho * a)},
        bound=upper,
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
