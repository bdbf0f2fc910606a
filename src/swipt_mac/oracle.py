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

Sizes: the 2^24-float ceiling bounds the classical oracles' one rho grid
array, and with it their run time, and each rho plane of the cooperative
grid; a finer rho grid or a larger cooperative grid raises ValueError
before anything is allocated.  The classical oracles evaluate their grid
in blocks of 8192 points, so every working array holds one block.  Their
tracemalloc peaks are 1.3 MiB (simultaneous) and 1.8 MiB (SIC) at the
default rho_step of 1e-5, and the grid's own 7.6 MiB plus at most 1 MiB
at 1e-6.
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


# the ceiling on the classical rho grid and on each cooperative plane: 2^24
# floats (128 MiB), which admits a rho_step down to about 6e-8 and a
# cooperative grid up to 4096
_MAX_POINTS = 2 ** 24
_MAX_GRID = 4096  # oracle_coop_weighted's rho planes hold grid^2 points
# rho points per working array of the classical oracles (8192 and 16384
# ran fastest of the blocks from 1024 to 32768 points, and faster than the
# whole 1e-5 grid at once)
_BLOCK = 8192


def _rho_points(rho_step: float) -> int:
    """Points of the uniform rho grid on [0, 1] nearest pitch rho_step;
    ValueError outside (0, 1] or above the ceiling, before any allocation."""
    if not 0.0 < rho_step <= 1.0:
        raise ValueError("rho_step must lie in (0, 1]")
    n = int(round(1.0 / rho_step)) + 1
    if n > _MAX_POINTS:
        raise ValueError(
            f"rho_step {rho_step!r} asks for {n} grid points, above the ceiling of {_MAX_POINTS}"
        )
    return n


def _rho_grid(rho_step: float):
    """The rho grid nearest pitch rho_step and the pitch it has, which
    differs from rho_step unless 1/rho_step is whole."""
    n = _rho_points(rho_step)
    return np.linspace(0.0, 1.0, n), 1.0 / (n - 1)


def _replaces(value, best) -> bool:
    """Whether a block's np.argmax value replaces best, the running
    (value, ...) of the blocks before it, so that the blocks together pick
    what one np.argmax over the whole grid picks: the first maximum wins,
    and NaN counts as the maximum."""
    return (
        best is None
        or value > best[0]
        or (math.isnan(value) and not math.isnan(best[0]))
    )


def oracle_simul_sumrate(params: ClassicalParams, rho_step: float = 1e-5) -> SolveReport:
    """Max sum rate over a uniform rho grid, simultaneous decoding.

    At each rho the sum rate is min(sum MI bound, affordable rate from the
    harvested power); individual bounds never cut the sum (their sum always
    exceeds the joint bound).
    """
    rho, pitch = _rho_grid(rho_step)
    a, n, n_p = params.a, params.n, params.n_p
    best = None  # (sum rate, sum bound, grid index)
    for lo in range(0, rho.size, _BLOCK):
        x = rho[lo:lo + _BLOCK]
        y = 1.0 - x
        bound = 0.5 * np.log2(1.0 + y * (a - n) / (y * n + n_p))
        sums = params.cost.rate_cap(params.eh.eval(x * a), bound)
        i = int(np.argmax(sums))
        if _replaces(sums[i], best):
            best = (float(sums[i]), float(bound[i]), lo + i)
    sum_rate, bound_opt, i = best
    return SolveReport(
        rho_opt=float(rho[i]),
        sum_rate=sum_rate,
        residuals={},
        bound=bound_opt,
        notes={"rho_step": pitch, "grid_points": rho.size},
    )


def oracle_sic_sumrate(params: ClassicalParams, rho_step: float = 1e-5) -> SolveReport:
    """Max sum rate over a uniform rho grid, SIC decoding, both orders.

    Per rho and order the candidates are: the rate corner (both bounds,
    when its summed cost is affordable), each bound pinned with the cost
    leftover inverted for the other user, and the symmetric cost split.
    Infeasible candidates are masked to -inf rather than clamped, so the
    maximum is never taken over an unaffordable point.  Each candidate
    keeps its own grid maximum; the first of equal maxima across
    candidates, in order then label, wins.
    """
    rho, pitch = _rho_grid(rho_step)
    n, n_p = params.n, params.n_p
    cost = params.cost
    s1, s2 = params.h1_sq * params.p1, params.h2_sq * params.p2
    best = {}  # (order tag, candidate label) -> (value, grid index)
    for lo in range(0, rho.size, _BLOCK):
        x = rho[lo:lo + _BLOCK]
        y = 1.0 - x
        psi = params.eh.eval(x * params.a)
        for tag, first, second in (("user1_first", s1, s2), ("user2_first", s2, s1)):
            b_first = 0.5 * np.log2(1.0 + y * first / (y * (second + n) + n_p))
            b_second = 0.5 * np.log2(1.0 + y * second / (y * n + n_p))
            phi_f = cost.eval(b_first)
            phi_s = cost.eval(b_second)
            cands = {
                "corner": np.where(
                    phi_f + phi_s <= psi, b_first + b_second, -np.inf
                ),
                "pin-second": np.where(
                    psi >= phi_s,
                    b_second + cost.rate_cap(psi - phi_s, b_first),
                    -np.inf,
                ),
                "pin-first": np.where(
                    psi >= phi_f,
                    b_first + cost.rate_cap(psi - phi_f, b_second),
                    -np.inf,
                ),
            }
            if not isinstance(cost, ConstCost):
                # symmetric split is meaningless for a fee; single-user
                # points are already covered by the pin candidates
                cands["symmetric"] = 2.0 * cost.rate_cap(
                    psi / 2.0, np.minimum(b_first, b_second)
                )
            for label, vals in cands.items():
                i = int(np.argmax(vals))
                key = (tag, label)
                if _replaces(vals[i], best.get(key)):
                    best[key] = (float(vals[i]), lo + i)

    best_val, best_rho, best_tag = -math.inf, 0.0, ""
    for (tag, label), (val, i) in best.items():
        if val > best_val:
            best_val, best_rho, best_tag = val, float(rho[i]), f"{tag}:{label}"
    return SolveReport(
        rho_opt=best_rho,
        sum_rate=best_val,
        residuals={},
        notes={"rho_step": pitch, "grid_points": rho.size, "branch": best_tag},
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
    if not 2 <= grid <= _MAX_GRID:
        raise ValueError(f"grid must lie in [2, {_MAX_GRID}]")
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
