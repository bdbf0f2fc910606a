"""Grid oracles: independent brute-force references for every optimizer."""

import math
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings

import swipt_mac as sm
from swipt_mac.classical_sic import sic_sumrate_numeric
from swipt_mac.coop_mac import classicalized, coop_constraints_eval, coop_solve_general
from swipt_mac.models import EhModel
from swipt_mac.numerics import ScanConfig
from swipt_mac.oracle import _BLOCK, _rho_grid, _rho_points

from conftest import classical_draws, iv_classical, iv_coop, iv_eh

COARSE = 1e-3  # rho pitch for quick cross-checks (bound scales with pitch)


def test_simul_oracle_brackets_the_solver():
    for cost in (sm.ExpCost(1e-3), sm.LogCost(1e-3), sm.LinCost(1e-3),
                 sm.ConstCost(0.013)):
        params = iv_classical(cost)
        rep = sm.sumrate_simultaneous(params)
        ref = sm.oracle_simul_sumrate(params, rho_step=COARSE)
        assert abs(rep.sum_rate - ref.sum_rate) < 1e-2
        fine = sm.oracle_simul_sumrate(params, rho_step=1e-5)
        assert abs(rep.sum_rate - fine.sum_rate) < 1e-4


def test_sic_oracle_brackets_the_solver_convex_families():
    for cost in (sm.ExpCost(1e-3), sm.LinCost(1e-3)):
        params = iv_classical(cost, p1=0.7, p2=0.3)
        rep = sic_sumrate_numeric(params)
        ref = sm.oracle_sic_sumrate(params, rho_step=1e-5)
        assert abs(rep.sum_rate - ref.sum_rate) < 1e-4


def test_sic_oracle_explores_both_orders():
    # with a concave fee the opposite decoding order can be strictly
    # cheaper; the oracle must search both orders, as the solver does
    params = iv_classical(sm.LogCost(1e-3), p1=0.9, p2=0.15)
    rep = sic_sumrate_numeric(params)
    ref = sm.oracle_sic_sumrate(params, rho_step=1e-4)
    assert ref.sum_rate >= rep.sum_rate - 1e-4
    assert ref.notes["branch"].count(":") == 1


def test_oracle_reports_carry_grid_provenance():
    params = iv_classical(sm.ExpCost(1e-3))
    ref = sm.oracle_simul_sumrate(params, rho_step=COARSE)
    assert ref.notes["grid_points"] == 1001
    ref2 = sm.oracle_sic_sumrate(params, rho_step=COARSE)
    assert ref2.notes["grid_points"] == 1001


def test_oracles_are_deterministic():
    params = iv_classical(sm.LogCost(1e-3))
    a = sm.oracle_simul_sumrate(params, rho_step=COARSE)
    b = sm.oracle_simul_sumrate(params, rho_step=COARSE)
    assert a.rho_opt == b.rho_opt and a.sum_rate == b.sum_rate


def test_coop_oracle_point_is_feasible_and_solver_meets_it():
    params = iv_coop(0.008, 1e-3)
    ref = sm.oracle_coop_weighted(params, 0.5, 0.5, grid=101)
    slacks = coop_constraints_eval(params, ref.alloc, ref.rho, ref.r1, ref.r2)
    for key, val in slacks.items():
        assert val >= -1e-9, key
    sol = coop_solve_general(params, 0.5, 0.5, ScanConfig(31, 12))
    # one-sided: every grid point is feasible, so the oracle only lower-bounds
    assert sol.weighted_rate >= ref.weighted_rate - 1e-9
    assert sol.weighted_rate - ref.weighted_rate < 5e-2


def test_coop_oracle_input_screens():
    params = iv_coop(0.008, 1e-3)
    with pytest.raises(ValueError):
        sm.oracle_coop_weighted(params, 0.0, 0.0)
    with pytest.raises(TypeError):
        sm.oracle_coop_weighted(
            iv_coop(0.008, 1e-3, cost_user1=sm.LinCost(1e-3)), 0.5, 0.5
        )
    singular = iv_coop(1e-3, 1.0)  # beta^2*b*c = 1
    with pytest.raises(ValueError):
        sm.oracle_coop_weighted(singular, 0.5, 0.5)


def test_grid_sizes_outside_their_range_raise():
    feasible = iv_classical(sm.ExpCost(1e-3))
    infeasible = iv_classical(sm.ConstCost(0.025))
    for params in (feasible, infeasible):
        for n_points in (1, 0, -3):
            with pytest.raises(ValueError, match="n_points"):
                sm.mdrb_simultaneous(params, n_points=n_points)
            with pytest.raises(ValueError, match="n_points"):
                sm.mdrb_sic(params, n_points=n_points)
        for step in (0.0, -1e-3, 1.5, float("nan")):
            with pytest.raises(ValueError, match="rho_step"):
                sm.oracle_simul_sumrate(params, rho_step=step)
            with pytest.raises(ValueError, match="rho_step"):
                sm.oracle_sic_sumrate(params, rho_step=step)
    for grid in (1, 0, -5):
        with pytest.raises(ValueError, match="grid"):
            sm.oracle_coop_weighted(iv_coop(0.008, 1e-3), 0.5, 0.5, grid=grid)
    # the smallest sizes in range still give answers
    assert len(sm.mdrb_sic(feasible, n_points=2)) > 0
    assert len(sm.mdrb_simultaneous(feasible, n_points=2)) > 0
    assert sm.oracle_sic_sumrate(feasible, rho_step=1.0).notes["grid_points"] == 2
    assert sm.oracle_coop_weighted(iv_coop(0.008, 1e-3), 0.5, 0.5, grid=2).weighted_rate >= 0.0


def test_oracle_sizes_above_the_ceiling_raise_before_allocating():
    # the checks run before any grid exists, so these sizes allocate nothing
    params = iv_classical(sm.ExpCost(1e-3))
    for step in (1e-9, 5e-8):
        with pytest.raises(ValueError, match="rho_step"):
            sm.oracle_simul_sumrate(params, rho_step=step)
        with pytest.raises(ValueError, match="rho_step"):
            sm.oracle_sic_sumrate(params, rho_step=step)
    for grid in (4097, 10**6):
        with pytest.raises(ValueError, match="grid"):
            sm.oracle_coop_weighted(iv_coop(0.008, 1e-3), 0.5, 0.5, grid=grid)
    assert _rho_points(1e-7) == 10**7 + 1  # the finest step the suite's studies use


def test_oracle_notes_record_the_pitch_it_scanned():
    params = iv_classical(sm.ExpCost(1e-3))
    for step, pitch, points in ((0.3, 1.0 / 3.0, 4), (0.4, 0.5, 3), (0.7, 1.0, 2), (1e-3, 1e-3, 1001)):
        for oracle in (sm.oracle_simul_sumrate, sm.oracle_sic_sumrate):
            notes = oracle(params, rho_step=step).notes
            assert (notes["rho_step"], notes["grid_points"]) == (pitch, points)


def _full_grid_argmax(params, mu1, mu2, grid):
    """(J, rho, pu1, pu2) of the cooperative grid by an argmax over every
    point of every rho plane, first maximum in rho and then in C order."""
    b, c = params.b, params.c
    beta1, beta2 = params.cost_user1.beta, params.cost_user2.beta
    k = 1.0 - beta1 * beta2 * b * c
    pu1 = np.linspace(0.0, params.p_u1_budget, grid)[:, None]
    pu2 = np.linspace(0.0, params.p_u2_budget, grid)[None, :]
    q1, q2 = params.p_u1_budget - pu1, params.p_u2_budget - pu2
    p12, p21 = (q1 - beta1 * c * q2) / k, (q2 - beta2 * b * q1) / k
    p12c, p21c = np.clip(p12, 0.0, None), np.clip(p21, 0.0, None)
    r1, r2 = 0.5 * np.log2(1.0 + b * p12c), 0.5 * np.log2(1.0 + c * p21c)
    fee = params.cost_dest.eval(r1 + r2)
    s_tot = (params.h1 ** 2 * (p12c + pu1) + params.h2 ** 2 * (p21c + pu2)
             + 2.0 * params.h1 * params.h2 * np.sqrt(pu1 * pu2))
    j_plane = np.where((p12 >= 0.0) & (p21 >= 0.0), mu1 * r1 + mu2 * r2, -np.inf)
    best = (-np.inf, 0.0, 0.0, 0.0)
    for rho in np.linspace(0.0, 1.0, grid):
        harvest = params.eh.eval(rho * (s_tot + params.n))
        cap = 0.5 * np.log2(
            1.0 + (1.0 - rho) * s_tot / ((1.0 - rho) * params.n + params.n_p)
        )
        j = np.where((fee <= harvest + 1e-12) & (r1 + r2 <= cap + 1e-12), j_plane, -np.inf)
        i, jj = np.unravel_index(int(np.argmax(j)), j.shape)
        if j[i, jj] > best[0]:
            best = (float(j[i, jj]), float(rho), float(pu1[i, 0]), float(pu2[0, jj]))
    return best


@pytest.mark.parametrize("mu1", [0.5, 0.2])
def test_coop_oracle_pruning_keeps_the_full_grid_answer(mu1):
    # equal budgets and links make mirror-image points tie in J
    for params in (
        iv_coop(0.008, 1e-3),
        iv_coop(0.02, 1e-2, eh=sm.LinearEh(eta=0.6), p_u2_budget=0.3),
        iv_coop(0.008, 1e-3, cost_dest=sm.ConstCost(2e-4)),
    ):
        sol = sm.oracle_coop_weighted(params, mu1, 1.0 - mu1, grid=41)
        got = (sol.weighted_rate, sol.rho, sol.alloc.pu1, sol.alloc.pu2)
        assert got == _full_grid_argmax(params, mu1, 1.0 - mu1, 41)


def test_coop_oracle_zero_weight_side_is_ignored():
    params = iv_coop(0.008, 1e-3)
    ref = sm.oracle_coop_weighted(params, 1.0, 0.0, grid=61)
    assert ref.weighted_rate == pytest.approx(ref.r1, abs=1e-15)


@pytest.mark.parametrize(
    "coop",
    [iv_coop(0.008, 1e-3), iv_coop(0.008, 10.0 ** -2.1)],
    ids=["baseline", "criterion-7-high-fee"],
)
def test_every_solver_stays_under_the_fee_ceiling(coop):
    # the destination pays its decoding fee out of a harvest below p_max_dc
    # (1e-9 W is the slack tolerance of that constraint).  Joint decoding
    # (simultaneous, cooperative) pays phi(r1 + r2), so r1 + r2 <=
    # phi^-1(p_max_dc).  SIC pays phi(r1) + phi(r2); for the convex Exp fee
    # two equal messages are the cheapest split, so r1 + r2 <=
    # 2 phi^-1(p_max_dc / 2), which lies above the joint ceiling
    fee, budget = coop.cost_dest, coop.eh.p_max_dc + 1e-9
    assert isinstance(fee, sm.ExpCost)
    joint = fee.inverse(budget)
    per_message = 2.0 * fee.inverse(budget / 2.0)
    classical = classicalized(coop)
    assert classical == iv_classical(fee)
    def widest(curve):
        return float(np.max(curve.r1 + curve.r2))

    sums = {
        "sumrate_simultaneous": (sm.sumrate_simultaneous(classical).sum_rate, joint),
        "mdrb_simultaneous": (widest(sm.mdrb_simultaneous(classical)), joint),
        "sic_sumrate_numeric": (sic_sumrate_numeric(classical).sum_rate, per_message),
        "mdrb_sic": (widest(sm.mdrb_sic(classical)), per_message),
    }
    for mu1 in (0.0, 0.5, 1.0):
        sol = coop_solve_general(coop, mu1, 1.0 - mu1, ScanConfig(31, 12))
        sums[f"coop_solve_general mu1={mu1}"] = (sol.r1 + sol.r2, joint)
    for name, (total, ceiling) in sums.items():
        assert total <= ceiling, name


# ---------------------------------------------------------------------------
# the blocked rho grids against today's whole-grid evaluation
# ---------------------------------------------------------------------------


def _whole_grid_simul(params, rho_step):
    """oracle_simul_sumrate with every array the size of the grid."""
    rho, pitch = _rho_grid(rho_step)
    y = 1.0 - rho
    a, n, n_p = params.a, params.n, params.n_p
    bound = 0.5 * np.log2(1.0 + y * (a - n) / (y * n + n_p))
    psi = params.eh.eval(rho * a)
    sums = params.cost.rate_cap(psi, bound)
    i = int(np.argmax(sums))
    return sm.SolveReport(
        rho_opt=float(rho[i]),
        sum_rate=float(sums[i]),
        residuals={},
        bound=float(bound[i]),
        notes={"rho_step": pitch, "grid_points": rho.size},
    )


def _whole_grid_sic(params, rho_step):
    """oracle_sic_sumrate with every array the size of the grid."""
    rho, pitch = _rho_grid(rho_step)
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
            "corner": np.where(phi_f + phi_s <= psi, b_first + b_second, neg),
            "pin-second": np.where(
                psi >= phi_s, b_second + cost.rate_cap(psi - phi_s, b_first), neg
            ),
            "pin-first": np.where(
                psi >= phi_f, b_first + cost.rate_cap(psi - phi_f, b_second), neg
            ),
            "symmetric": 2.0 * cost.rate_cap(psi / 2.0, np.minimum(b_first, b_second)),
        }
        if isinstance(cost, sm.ConstCost):
            del cands["symmetric"]
        for label, vals in cands.items():
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val = float(vals[i])
                best_rho = float(rho[i])
                best_tag = f"{tag}:{label}"
    return sm.SolveReport(
        rho_opt=best_rho,
        sum_rate=best_val,
        residuals={},
        notes={"rho_step": pitch, "grid_points": rho.size, "branch": best_tag},
    )


def _assert_blocked_equals_whole(params, rho_step):
    assert repr(sm.oracle_simul_sumrate(params, rho_step)) == repr(
        _whole_grid_simul(params, rho_step)
    )
    assert repr(sm.oracle_sic_sumrate(params, rho_step)) == repr(
        _whole_grid_sic(params, rho_step)
    )


_FEES = (sm.ExpCost(1e-3), sm.LogCost(1e-3), sm.LinCost(1e-3), sm.ConstCost(0.013))


def _every_family_and_harvester(test):
    for cost in _FEES:
        for eh in (iv_eh(), sm.LinearEh(0.6)):
            test = example(iv_classical(cost, eh=eh, p1=0.7, p2=0.3))(test)
    return test


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(classical_draws())
@_every_family_and_harvester
def test_blocked_oracles_equal_the_whole_grid_on_drawn_channels(params):
    _assert_blocked_equals_whole(params, 1e-4)  # 10001 points: two blocks


@pytest.mark.parametrize("cost", _FEES, ids=lambda c: type(c).__name__)
@pytest.mark.parametrize(
    "points", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 10001, 100001],
    ids=["2", "block-1", "block", "block+1", "1e-4", "1e-5"],
)
def test_blocked_oracles_equal_the_whole_grid_at_every_block_edge(cost, points):
    rho_step = 1.0 / (points - 1)
    assert _rho_points(rho_step) == points
    _assert_blocked_equals_whole(iv_classical(cost, p1=0.7, p2=0.3), rho_step)


def test_a_plateau_across_a_block_edge_keeps_its_first_point():
    # bounds this weak round to a few float levels, so the indicator fee's
    # best sum holds on past the threshold and over block edges
    base = iv_classical(sm.ConstCost(0.0), h1_sq=1e-18, h2_sq=1e-18, p1=1.0,
                        p2=1.0, eh=sm.LinearEh(1.0))
    params = iv_classical(sm.ConstCost(0.07 * base.a), h1_sq=1e-18, h2_sq=1e-18,
                          p1=1.0, p2=1.0, eh=sm.LinearEh(1.0))
    rho, _ = _rho_grid(1e-5)
    y = 1.0 - rho
    bound = 0.5 * np.log2(1.0 + y * (params.a - params.n) / (y * params.n + params.n_p))
    sums = params.cost.rate_cap(params.eh.eval(rho * params.a), bound)
    top = np.flatnonzero(sums == sums.max())
    assert top[0] < _BLOCK < 2 * _BLOCK <= top[-1]
    _assert_blocked_equals_whole(params, 1e-5)
    sic = sm.oracle_sic_sumrate(params, 1e-5)
    assert _BLOCK < sic.rho_opt / 1e-5 < 2 * _BLOCK  # the first of its plateau


@dataclass(frozen=True)
class _HoledEh(EhModel):
    """A linear harvester that returns NaN on (lo, hi) W of input."""

    eta: float
    lo: float
    hi: float

    def _f(self, p, xp):
        return xp.where((p > self.lo) & (p < self.hi), math.nan, self.eta * p)


@pytest.mark.parametrize("cost", _FEES, ids=lambda c: type(c).__name__)
def test_a_nan_in_a_later_block_is_merged_as_argmax_takes_it(cost):
    a = iv_classical(cost).a
    # NaN harvest on rho in (0.5, 0.6), from the seventh block of 1e-5's grid
    holed = iv_classical(cost, p1=0.7, p2=0.3, eh=_HoledEh(0.6, 0.5 * a, 0.6 * a))
    _assert_blocked_equals_whole(holed, 1e-5)
    if not isinstance(cost, sm.ConstCost):  # the fee test reads NaN as affordable
        assert math.isnan(sm.oracle_simul_sumrate(holed, 1e-5).sum_rate)


def test_classical_oracles_hold_one_block_beside_their_grid():
    params = iv_classical(sm.ExpCost(1e-3), p1=0.7, p2=0.3)
    grid_bytes = _rho_points(1e-6) * 8  # 1,000,001 points, 7.6 MiB
    start = time.perf_counter()
    tracemalloc.start()
    try:
        for oracle in (sm.oracle_simul_sumrate, sm.oracle_sic_sumrate):
            tracemalloc.reset_peak()
            oracle(params, rho_step=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
            assert peak <= grid_bytes + 2 * 2 ** 20, (oracle.__name__, peak)
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
