"""Classical two-user PS-SWIPT MAC with successive interference cancellation.

The destination decodes one message treating the other as noise, strips it,
then decodes the second interference-free.  Each decoded message is charged
its own cost, so the harvested power must cover phi(R1)+phi(R2) — for convex
families that is cheaper than the joint charge phi(R1+R2) at the same pair,
for concave families dearer, and for the linear family identical.

Breakpoints again come from monotone cost-space residuals
    psi(rho*a) - sum of phi(bound(rho))
bracketed on [0,1]; the paper's literal balancing form
(1/rho)*psi^{-1}(...) is kept in the tests as their reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import (
    ClassicalParams,
    ConstCost,
    ExpCost,
    LinearEh,
    SolveReport,
)
from .numerics import ScanConfig, critical_points
from .classical_simul import (
    InfeasibleRegionError,
    _balance_root,
    _check_n_points,
    _check_point,
    _snr_bound,
)
from .region import BoundaryCurve, frontier

__all__ = [
    "DecodingOrder",
    "SicBreakpoints",
    "SicClosedForm",
    "sic_rate_bounds",
    "sic_slacks",
    "sic_breakpoints",
    "mdrb_sic",
    "sic_max_sum_at_rho",
    "sic_sumrate_numeric",
    "sic_sumrate_closed_form",
]


class DecodingOrder(str, Enum):
    USER1_FIRST = "user1_first"
    USER2_FIRST = "user2_first"


@dataclass(frozen=True)
class SicBreakpoints:
    """Sweep-delimiting PS factors for one decoding order.

    rho_c balances harvest against the cost of both corner rates; rho_1
    (resp. rho_2) is where R1 (resp. R2) vanishes on its sweep.  For the
    constant family with an unaffordable double fee rho_c is NaN.
    """

    rho_c: float
    rho_1: float
    rho_2: float
    decoding_order: DecodingOrder


@dataclass(frozen=True)
class SicClosedForm:
    """Closed-form optimum for linear EH + convex-exponential cost, n<<n_p.

    a_term/b_term are the received signal powers of the (relabeled) first
    and second decoded user, c_term their sum; delta the discriminant-like
    combination; rho_1/rho_2/rho_ceiling the feasibility-quadratic roots and
    the unconstrained critical ceiling, with rho_2 <= rho_opt <= rho_ceiling.
    """

    rho_opt: float
    sum_rate: float
    a_term: float
    b_term: float
    c_term: float
    delta: float
    rho_1: float
    rho_2: float
    rho_ceiling: float
    r1: float
    r2: float
    relabeled: bool
    noise_warning: bool


def sic_rate_bounds(params: ClassicalParams, rho, order: DecodingOrder):
    """(bound on R1, bound on R2) at rho for the given decoding order.

    The first-decoded message sees the other user as interference; the
    second is decoded on the cleaned signal.  Vectorizes over rho; a scalar
    rho gives floats.
    """
    s1, s2 = params.h1_sq * params.p1, params.h2_sq * params.p2
    first = order == DecodingOrder.USER1_FIRST
    s_first, s_second = (s1, s2) if first else (s2, s1)
    b_first = _snr_bound(s_first, s_second + params.n, params.n_p, rho)
    b_second = _snr_bound(s_second, params.n, params.n_p, rho)
    return (b_first, b_second) if first else (b_second, b_first)


def sic_slacks(params: ClassicalParams, r1, r2, rho, order: DecodingOrder) -> dict:
    """Signed slacks at (r1, r2, rho) in the given decoding order, positive
    meaning room: the rate bounds rate1_bits and rate2_bits, and fee_w [W],
    the harvest minus the fees phi(r1) + phi(r2).  Inputs as simul_slacks."""
    _check_point(r1, r2, rho)
    b1, b2 = sic_rate_bounds(params, rho, order)
    fee = params.cost.eval(r1) + params.cost.eval(r2)
    return {"rate1_bits": b1 - r1, "rate2_bits": b2 - r2,
            "fee_w": params.eh.eval(rho * params.a) - fee}


def sic_breakpoints(params: ClassicalParams, order: DecodingOrder) -> SicBreakpoints:
    """Solve the three sweep-delimiting equations for one decoding order,
    memoized on (params, order) (an unhashable model is solved afresh)."""
    try:
        hash(params)
        solve = _breakpoints
    except TypeError:
        solve = _breakpoints.__wrapped__
    return SicBreakpoints(*solve(params, order), decoding_order=order)


@functools.lru_cache(maxsize=8)
def _breakpoints(params: ClassicalParams, order: DecodingOrder) -> tuple:
    """(rho_c, rho_1, rho_2); equal params (p2 = 0.0 and -0.0) share one."""
    cost = params.cost
    if isinstance(cost, ConstCost):
        single = _balance_root(params, lambda x: cost.phi0, "single")
        try:
            both = _balance_root(params, lambda x: 2.0 * cost.phi0, "double")
        except InfeasibleRegionError:
            both = math.nan  # double fee never affordable
        return both, single, single

    def fee(*users):  # the fee of the messages of users (0: user 1, 1: user 2)
        def f(x):
            bounds = sic_rate_bounds(params, x, order)
            return sum(cost.eval(bounds[u]) for u in users)
        return f

    return (
        _balance_root(params, fee(0, 1), "two-message"),
        _balance_root(params, fee(1), "second-message"),
        _balance_root(params, fee(0), "first-message"),
    )


# ---------------------------------------------------------------------------
# boundary curve
# ---------------------------------------------------------------------------


def _order_segments(params, order, n_points):
    """Boundary sweeps of one decoding order as (r1, r2, rho, labels) parts."""
    eh, cost, a = params.eh, params.cost, params.a
    bp = sic_breakpoints(params, order)
    tag = order.value

    if isinstance(cost, ConstCost):
        b1s, b2s = sic_rate_bounds(params, bp.rho_1, order)
        parts = [([b1s, 0.0], [0.0, b2s], [bp.rho_1] * 2,
                  {"order": tag, "segment": "single-user"})]
        if not math.isnan(bp.rho_c):
            b1b, b2b = sic_rate_bounds(params, bp.rho_c, order)
            parts.append(([b1b], [b2b], [bp.rho_c], {"order": tag, "segment": "both"}))
        return parts

    psi = lambda rho_arr: eh.eval(np.asarray(rho_arr) * a)

    rho_a = np.linspace(bp.rho_1, bp.rho_c, n_points)
    b1_a, b2_a = sic_rate_bounds(params, rho_a, order)
    r1_a = cost.rate_cap(psi(rho_a) - cost.eval(b2_a), b1_a)

    rho_b = np.linspace(bp.rho_2, bp.rho_c, n_points)
    b1_b, b2_b = sic_rate_bounds(params, rho_b, order)
    r2_b = cost.rate_cap(psi(rho_b) - cost.eval(b1_b), b2_b)
    return [
        (r1_a, b2_a, rho_a, {"order": tag, "segment": "user2-pinned"}),
        (b1_b, r2_b, rho_b, {"order": tag, "segment": "user1-pinned"}),
    ]


def mdrb_sic(params: ClassicalParams, n_points: int = 512) -> BoundaryCurve:
    """Time-sharing envelope of both decoding orders' boundary sweeps."""
    _check_n_points(n_points)
    parts, errors = [], []
    for order in DecodingOrder:
        try:
            parts += _order_segments(params, order, n_points)
        except InfeasibleRegionError as err:
            errors.append(str(err))
    if not any(len(part[2]) for part in parts):
        return BoundaryCurve(empty_reason="; ".join(errors))
    return frontier(*parts, hull=True)


# ---------------------------------------------------------------------------
# optimal sum rate
# ---------------------------------------------------------------------------


def sic_max_sum_at_rho(params: ClassicalParams, rho: float):
    """(best sum rate, binding tag) at one PS factor.

    Candidates: the rate-corner pair when its summed cost is affordable
    ("rate"-limited), otherwise points on the cost face — each single-rate
    bound pinned in turn with the leftover inverted, plus the symmetric
    split that is optimal for strictly convex costs ("cost"-limited).
    Both decoding orders are examined.
    """
    eh, cost, a = params.eh, params.cost, params.a
    budget = eh.eval(rho * a)
    best, tag = 0.0, "cost"
    for order in DecodingOrder:
        b1, b2 = sic_rate_bounds(params, rho, order)
        if cost.eval(b1) + cost.eval(b2) <= budget + 1e-15:
            if b1 + b2 > best:
                best, tag = b1 + b2, "rate"
            continue
        if isinstance(cost, ConstCost):
            if budget >= cost.phi0 and max(b1, b2) > best:
                best, tag = max(b1, b2), "cost"
            continue
        # pin each bound in turn
        for pinned, other_cap in ((b2, b1), (b1, b2)):
            left = budget - cost.eval(pinned)
            if left < 0.0:
                continue
            cand = pinned + cost.rate_cap(left, other_cap)
            if cand > best:
                best, tag = cand, "cost"
        # symmetric split (interior optimum for convex families)
        half = cost.rate_cap(budget / 2.0, min(b1, b2))
        if 2.0 * half > best:
            best, tag = 2.0 * half, "cost"
    return best, tag


def sic_sumrate_numeric(params: ClassicalParams, scan: ScanConfig | None = None) -> SolveReport:
    """Optimal SIC sum rate by candidate enumeration over both decoding orders.

    Per order, the two sweep objectives (pin one user's rate bound, invert
    the leftover cost for the other) are maximized over their breakpoint
    intervals via endpoint + interior critical-point candidates.  The best
    candidate wins, USER1_FIRST on ties; notes["order"] records the winning
    order.
    """
    scan = scan or ScanConfig()
    eh, cost, a = params.eh, params.cost, params.a

    if isinstance(cost, ConstCost):
        return _sic_sumrate_const(params)

    def sweep(order, pin_user1):
        def f(rho, floor=-np.inf):
            """The objective at rho, with the harvest left after the pinned
            message raised to floor where that is higher."""
            b1, b2 = sic_rate_bounds(params, rho, order)
            pinned, cap = (b1, b2) if pin_user1 else (b2, b1)
            left = np.maximum(eh.eval(rho * a) - cost.eval(pinned), floor)
            return np.where(left < 0.0, -np.inf, pinned + cost.rate_cap(left, cap))

        return f

    candidates = []
    for order in DecodingOrder:
        bp = sic_breakpoints(params, order)
        for pin_user1, lo, label in (
            (False, bp.rho_1, "user2-pinned"),
            (True, bp.rho_2, "user1-pinned"),
        ):
            hi = bp.rho_c
            if hi < lo:
                continue
            f = sweep(order, pin_user1)
            rhos = [lo, hi]
            if hi > lo:
                rhos += critical_points(f, lo, hi, scan)
            # the ends are bisected balance points, where the harvest just
            # pays the pinned message: score them at that limit, since
            # roundoff leaves them short of it about half the time
            floor = np.where(np.arange(len(rhos)) < 2, 0.0, -np.inf)
            for rho, val in zip(rhos, f(np.array(rhos), floor)):
                candidates.append((float(rho), float(val), f"{order.value}:{label}"))

    rho_opt, sum_rate, label = max(candidates, key=lambda c: c[1])
    tag, pinned = label.split(":")
    b1, b2 = sic_rate_bounds(params, rho_opt, DecodingOrder(tag))
    if pinned == "user1-pinned":
        r1 = b1
        r2 = sum_rate - r1
    else:
        r2 = b2
        r1 = sum_rate - r2
    resid = eh.eval(rho_opt * a) - (cost.eval(r1) + cost.eval(r2))
    return SolveReport(
        rho_opt=rho_opt,
        sum_rate=sum_rate,
        residuals={"cost_balance_w": resid},
        notes={
            "order": tag,
            "grid_points": scan.grid_points,
            "branch": label,
            "r1": r1,
            "r2": r2,
        },
    )


def _sic_sumrate_const(params: ClassicalParams) -> SolveReport:
    """Indicator-cost special case: the best r1 + r2 of each fee-threshold
    part of the region, at that part's single rho."""
    if params.eh.eval(params.a) < params.cost.phi0:
        raise InfeasibleRegionError("single decoding fee unaffordable")
    candidates = [
        (rho[0], max(x + y for x, y in zip(r1, r2)), f"{tag['order']}:{tag['segment']}")
        for order in DecodingOrder
        for r1, r2, rho, tag in _order_segments(params, order, 2)  # n_points unused
    ]
    rho_opt, sum_rate, label = max(candidates, key=lambda c: c[1])
    return SolveReport(
        rho_opt=rho_opt, sum_rate=sum_rate, residuals={"cost_balance_w": 0.0},
        notes={"order": label.split(":")[0], "branch": label, "cost_family": "const"},
    )


def sic_sumrate_closed_form(params: ClassicalParams) -> SicClosedForm:
    """Closed-form SIC optimum for linear EH + convex-exponential cost.

    Valid in the n << n_p regime (checked loosely: warns above n_p/100).
    The optimum sits at the smaller root of the feasibility quadratic,
    where both per-message rate bounds hold with equality and the harvested
    power is fully consumed.
    """
    if not isinstance(params.eh, LinearEh):
        raise TypeError("closed form needs the linear EH model")
    if not isinstance(params.cost, ExpCost):
        raise TypeError("closed form needs the convex-exponential cost")
    # the closed form decodes the stronger user (larger |h|^2 P) first
    relabeled = params.h2_sq * params.p2 > params.h1_sq * params.p1
    work = params.swapped() if relabeled else params
    noise_warning = work.n > work.n_p / 100.0

    eta = work.eh.eta
    beta = work.cost.beta
    n_p = work.n_p
    a_term = work.h1_sq * work.p1  # first decoded (stronger) user
    b_term = work.h2_sq * work.p2  # second decoded user
    c_term = a_term + b_term
    a = work.a

    inside = (eta * a * b_term - beta * c_term) ** 2 + eta * a * (
        eta * a * n_p ** 2
        + 2.0 * eta * a * n_p * b_term
        + 2.0 * beta * c_term * n_p
        + 4.0 * beta * b_term ** 2
    )
    if inside < 0.0:  # pragma: no cover - nonnegative by construction
        raise RuntimeError("negative discriminant in SIC closed form")
    delta = n_p * math.sqrt(inside)

    denom = beta * b_term ** 2 + eta * a * n_p * b_term
    rho_1 = 0.5 * (
        1.0
        + (beta * b_term ** 2 + beta * c_term * n_p + eta * a * n_p ** 2 - delta)
        / denom
    )
    rho_2 = beta * b_term / (beta * b_term + eta * a * n_p)
    rho_ceiling = 0.5 * (
        1.0
        + (beta * b_term ** 2 + eta * a * n_p ** 2)
        / ((beta * b_term + eta * a * n_p) * b_term)
    )
    rho_opt = rho_1

    if not (rho_2 <= rho_opt + 1e-9 and rho_opt <= rho_ceiling + 1e-9):
        raise RuntimeError(
            "closed-form root ordering violated: "
            f"rho_2={rho_2}, rho_opt={rho_opt}, rho_ceiling={rho_ceiling}"
        )

    # second user at its clean bound; first from the exhausted harvest
    r2 = 0.5 * math.log2(1.0 + (1.0 - rho_opt) * b_term / n_p)
    r1 = 0.5 * math.log2(
        eta * rho_opt * a / beta + 1.0 - (1.0 - rho_opt) * b_term / n_p
    )
    return SicClosedForm(
        rho_opt=rho_opt,
        sum_rate=r1 + r2,
        a_term=a_term,
        b_term=b_term,
        c_term=c_term,
        delta=delta,
        rho_1=rho_1,
        rho_2=rho_2,
        rho_ceiling=rho_ceiling,
        r1=(r2 if relabeled else r1),
        r2=(r1 if relabeled else r2),
        relabeled=relabeled,
        noise_warning=noise_warning,
    )
