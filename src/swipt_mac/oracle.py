"""Brute-force grid oracles backing the analytic optimizers.

These deliberately share no solver machinery with the modules they check:
each one enumerates a dense grid of the raw decision variables and applies
the constraint definitions directly, so agreement is evidence rather than
tautology.  Accuracy is limited by the grid pitch; the documented bounds
the acceptance suite asserts are 1e-4 bits for the 1e-5 rho grids and,
for the 201^3 cooperative grid, one-sided: every grid point is feasible,
so the oracle is a lower bound the solver must meet or beat, and the
grid's own shortfall against the solver stays below 5e-2 bits (worst
cases sit near budget corners, where the pitch in each power variable
under-resolves the binding surfaces).
"""

from __future__ import annotations

import math

import numpy as np

from .models import (
    ClassicalParams,
    ConstCost,
    CoopParams,
    ExpCost,
    PowerAllocation,
    SolveReport,
)
from .coop_mac import CoopSolution, coop_constraints_eval

__all__ = [
    "oracle_simul_sumrate",
    "oracle_sic_sumrate",
    "oracle_coop_weighted",
]


def _rho_grid(rho_step: float):
    n = int(round(1.0 / rho_step)) + 1
    return np.linspace(0.0, 1.0, n)


def oracle_simul_sumrate(params: ClassicalParams, rho_step: float = 1e-5) -> SolveReport:
    """Max sum rate over a uniform rho grid, simultaneous decoding.

    At each rho the sum rate is min(sum MI bound, affordable rate from the
    harvested power); individual bounds never cut the sum (their sum always
    exceeds the joint bound).
    """
    rho = _rho_grid(rho_step)
    y = 1.0 - rho
    a, n, n_p = params.a, params.n, params.n_p
    bound = 0.5 * np.log2(1.0 + y * (a - n) / (y * n + n_p))
    psi = params.eh.eval(rho * a)
    sums = params.cost.rate_cap(psi, bound)
    i = int(np.argmax(sums))
    return SolveReport(
        rho_opt=float(rho[i]),
        sum_rate=float(sums[i]),
        residuals={},
        bound=float(bound[i]),
        notes={"rho_step": rho_step, "grid_points": rho.size},
    )


def oracle_sic_sumrate(params: ClassicalParams, rho_step: float = 1e-5) -> SolveReport:
    """Max sum rate over a uniform rho grid, SIC decoding, both orders.

    Per rho and order the candidates are: the rate corner (both bounds,
    when its summed cost is affordable), each bound pinned with the cost
    leftover inverted for the other user, and the symmetric cost split.
    Infeasible candidates are masked to -inf rather than clamped, so the
    maximum is never taken over an unaffordable point.
    """
    rho = _rho_grid(rho_step)
    y = 1.0 - rho
    n, n_p = params.n, params.n_p
    cost = params.cost
    psi = params.eh.eval(rho * params.a)
    neg = -np.inf * np.ones_like(rho)

    best_val, best_rho, best_tag = -math.inf, 0.0, ""
    s1, s2 = params.h1_sq * params.p1, params.h2_sq * params.p2
    for tag, first, second in (("user1_first", s1, s2), ("user2_first", s2, s1)):
        b_first = 0.5 * np.log2(1.0 + y * first / (y * (second + n) + n_p))
        b_second = 0.5 * np.log2(1.0 + y * second / (y * n + n_p))
        phi_f = cost.eval(b_first)
        phi_s = cost.eval(b_second)
        cands = {
            "corner": np.where(
                phi_f + phi_s <= psi, b_first + b_second, neg
            ),
            "pin-second": np.where(
                psi >= phi_s,
                b_second + cost.rate_cap(psi - phi_s, b_first),
                neg,
            ),
            "pin-first": np.where(
                psi >= phi_f,
                b_first + cost.rate_cap(psi - phi_f, b_second),
                neg,
            ),
            "symmetric": 2.0 * cost.rate_cap(psi / 2.0, np.minimum(b_first, b_second)),
        }
        if isinstance(cost, ConstCost):
            # symmetric split is meaningless for a fee; single-user points
            # are already covered by the pin candidates
            del cands["symmetric"]
        for label, vals in cands.items():
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val = float(vals[i])
                best_rho = float(rho[i])
                best_tag = f"{tag}:{label}"
    return SolveReport(
        rho_opt=best_rho,
        sum_rate=best_val,
        residuals={},
        notes={"rho_step": rho_step, "grid_points": rho.size, "branch": best_tag},
    )


def oracle_coop_weighted(
    params: CoopParams, mu1: float, mu2: float, grid: int = 201
) -> CoopSolution:
    """Exhaustive (rho, pu1, pu2) grid search of the cooperative problem.

    Fresh-message powers come from the budget equalities (affine for Exp
    user costs, which this oracle requires); the destination cost and sum
    MI bounds are checked directly on every rho plane, at every grid point
    whose weighted rate beats the best found so far (no other point can
    replace it).  The all-common corner (zero rates) is always feasible, so
    a maximizer always exists.
    """
    if not (
        isinstance(params.cost_user1, ExpCost)
        and isinstance(params.cost_user2, ExpCost)
    ):
        raise TypeError("the cooperative grid oracle needs Exp user costs")
    if mu1 < 0 or mu2 < 0 or mu1 + mu2 <= 0:
        raise ValueError("weights must be non-negative and not both zero")
    b, c = params.b, params.c
    beta1, beta2 = params.cost_user1.beta, params.cost_user2.beta
    k = 1.0 - beta1 * beta2 * b * c
    if abs(k) <= 1e-12:
        raise ValueError("beta1*beta2*b*c = 1: budget elimination is singular")

    bud1, bud2 = params.p_u1_budget, params.p_u2_budget
    pu1 = np.linspace(0.0, bud1, grid)[:, None]
    pu2 = np.linspace(0.0, bud2, grid)[None, :]
    q1, q2 = bud1 - pu1, bud2 - pu2
    p12 = (q1 - beta1 * c * q2) / k
    p21 = (q2 - beta2 * b * q1) / k
    mask = (p12 >= 0.0) & (p21 >= 0.0)
    p12c = np.clip(p12, 0.0, None)
    p21c = np.clip(p21, 0.0, None)
    r1 = 0.5 * np.log2(1.0 + b * p12c)
    r2 = 0.5 * np.log2(1.0 + c * p21c)
    sums = r1 + r2
    fee = params.cost_dest.eval(sums)
    s_tot = (
        params.h1 ** 2 * (p12c + pu1)
        + params.h2 ** 2 * (p21c + pu2)
        + 2.0 * params.h1 * params.h2 * np.sqrt(pu1 * pu2)
    )
    j_plane = np.where(mask, mu1 * r1 + mu2 * r2, -np.inf)
    j_flat, s_flat, fee_flat, sums_flat = (
        np.ravel(v) for v in (j_plane, s_tot, fee, sums)
    )

    best = (-math.inf, 0.0, 0, 0)  # J, rho, i, j
    for rho in np.linspace(0.0, 1.0, grid):
        # only a point above the incumbent can replace it; C order keeps the
        # first of equal maxima.  The sum-MI test is the cheaper one, so the
        # harvest is evaluated only where it passes.
        cand = np.flatnonzero(j_flat > best[0])
        s = s_flat[cand]
        cap = 0.5 * np.log2(
            1.0 + (1.0 - rho) * s / ((1.0 - rho) * params.n + params.n_p)
        )
        keep = sums_flat[cand] <= cap + 1e-12
        cand, s = cand[keep], s[keep]
        harvest = params.eh.eval(rho * (s + params.n))
        cand = cand[fee_flat[cand] <= harvest + 1e-12]
        if cand.size:
            k = int(cand[np.argmax(j_flat[cand])])
            best = (float(j_flat[k]), float(rho), *np.unravel_index(k, j_plane.shape))
    _, rho_b, i_b, j_b = best
    alloc = PowerAllocation(
        p12=float(p12c[i_b, j_b]),
        p21=float(p21c[i_b, j_b]),
        pu1=float(pu1[i_b, 0]),
        pu2=float(pu2[0, j_b]),
    )
    r1_b = float(r1[i_b, j_b])
    r2_b = float(r2[i_b, j_b])
    slacks = coop_constraints_eval(params, alloc, rho_b, r1_b, r2_b)
    return CoopSolution(
        alloc=alloc,
        rho=rho_b,
        r1=r1_b,
        r2=r2_b,
        weighted_rate=mu1 * r1_b + mu2 * r2_b,
        mu1=mu1,
        mu2=mu2,
        constraint_residuals={
            "budget1_w": slacks["budget1_w"],
            "budget2_w": slacks["budget2_w"],
            "dest_cost_w": slacks["dest_cost_w"],
            "sum_mi_bits": slacks["sum_mi_bits"],
        },
        cooperation_valid=True,
        sum_bound_satisfied=slacks["sum_mi_bits"] >= -1e-9,
        source="oracle-grid",
        notes={"grid": grid},
    )
