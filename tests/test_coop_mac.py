"""Cooperative MAC: weighted-sum-rate solves, constraint slacks and the
weighted frontier."""

import contextlib
import dataclasses
import math
import signal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import swipt_mac as sm
import swipt_mac.cli as cli
import swipt_mac.coop_mac as coop_mac
from swipt_mac.coop_mac import (
    classicalized,
    coop_constraints_eval,
    coop_mdrb,
    coop_solve_general,
)
from swipt_mac.numerics import ConvergenceError, ScanConfig

from conftest import count_calls, iv_coop, iv_eh

FAST = ScanConfig(grid_points=31, refine_iters=12)


def test_general_solver_meets_budget_equalities():
    sol = coop_solve_general(iv_coop(0.008, 1e-3), 0.5, 0.5, FAST)
    assert sol.cooperation_valid and sol.sum_bound_satisfied
    res = sol.constraint_residuals
    # both budgets are exhausted at the optimum
    assert abs(res["budget1_w"]) < 1e-9
    assert abs(res["budget2_w"]) < 1e-9
    # remaining slacks are non-negative
    assert res["dest_cost_w"] >= -1e-9
    assert res["sum_mi_bits"] >= -1e-9
    assert sol.weighted_rate == pytest.approx(
        0.5 * sol.r1 + 0.5 * sol.r2, abs=1e-12
    )
    assert min(sol.alloc.p12, sol.alloc.p21, sol.alloc.pu1, sol.alloc.pu2) >= -1e-12


def test_general_solver_swap_symmetry():
    # Exp and LogCost user fees share one elimination path
    for user_cost in (sm.ExpCost, sm.LogCost):
        params = iv_coop(
            0.008, 1e-3, h12=0.008, h21=0.004,
            cost_user1=user_cost(1e-3), cost_user2=user_cost(1e-3),
        )
        sol = coop_solve_general(params, 0.3, 0.7, FAST)
        mirrored = coop_solve_general(params.swapped(), 0.7, 0.3, FAST)
        assert sol.weighted_rate == pytest.approx(mirrored.weighted_rate, abs=1e-12)
        assert sol.r1 == pytest.approx(mirrored.r2, abs=1e-12)
        assert sol.alloc.p12 == pytest.approx(mirrored.alloc.p21, abs=1e-12)


@pytest.mark.parametrize(
    "cost_user1, cost_user2",
    [(sm.ExpCost(1e-3), sm.LogCost(1e-3)), (sm.LinCost(1e-3), sm.ExpCost(2e-3))],
    ids=["exp-log", "lin-exp"],
)
def test_mixed_user_fees_swap_symmetry(cost_user1, cost_user2):
    # each row of the joint search picks its own orientation's fee family
    params = iv_coop(
        0.008, 1e-3, h12=0.008, h21=0.004,
        cost_user1=cost_user1, cost_user2=cost_user2,
    )
    sol = coop_solve_general(params, 0.3, 0.7, FAST)
    swapped = coop_solve_general(params.swapped(), 0.7, 0.3, FAST)
    assert sol.weighted_rate == swapped.weighted_rate
    assert (sol.r1, sol.r2) == (swapped.r2, swapped.r1)
    assert (sol.alloc.p12, sol.alloc.p21) == (swapped.alloc.p21, swapped.alloc.p12)
    assert (sol.alloc.pu1, sol.alloc.pu2) == (swapped.alloc.pu2, swapped.alloc.pu1)
    assert sol.notes["mirrored"] != swapped.notes["mirrored"]
    # a row charged its partner's fee family would leave a budget unspent
    for res in (sol.constraint_residuals, swapped.constraint_residuals):
        assert abs(res["budget1_w"]) < 1e-9 and abs(res["budget2_w"]) < 1e-9
        assert res["dest_cost_w"] >= -1e-9 and res["sum_mi_bits"] >= -1e-9


@pytest.mark.parametrize("fam, floor", [("log", 0.5019255), ("lin", 0.5019202)])
def test_non_exp_user_fees_spend_both_budgets(fam, floor):
    # the budget equalities are eliminated explicitly for every fee family,
    # so no budget is left unspent where a fresh power reaches 0
    params = cli.ingest_config({**cli.PRESETS["fig5d"], "cost_user_model": fam}).coop
    sol = coop_solve_general(params, 0.5, 0.5)
    res = sol.constraint_residuals
    assert abs(res["budget1_w"]) < 1e-9
    assert abs(res["budget2_w"]) < 1e-9
    assert res["dest_cost_w"] >= -1e-9 and res["sum_mi_bits"] >= -1e-9
    assert sol.weighted_rate >= floor


# optima of the default-scan solver on the fig5 presets, recorded before the
# batched search replaced the nested scalar one; a search change may only
# raise them
FIG5_FLOORS = {
    ("fig5a", 0.25): 1.576167314147,
    ("fig5a", 0.5): 1.095487040602,
    ("fig5b", 0.25): 1.388840691467,
    ("fig5b", 0.5): 0.925899240729,
    ("fig5c", 0.25): 1.054958399599,
    ("fig5c", 0.5): 0.703305614578,
    ("fig5d", 0.25): 0.752889513021,
    ("fig5d", 0.5): 0.501926343732,
}


@pytest.mark.parametrize("preset, t", sorted(FIG5_FLOORS))
def test_fig5_optima_do_not_fall(preset, t):
    params = cli.ingest_config(cli.PRESETS[preset]).coop
    sol = coop_solve_general(params, t, 1.0 - t)
    assert sol.weighted_rate >= FIG5_FLOORS[preset, t] - 1e-9


def test_general_solver_handles_single_sided_weights():
    sol = coop_solve_general(iv_coop(0.008, 1e-3), 1.0, 0.0, FAST)
    assert sol.cooperation_valid
    assert sol.r1 > 0.5
    assert sol.weighted_rate == pytest.approx(sol.r1, abs=1e-12)


def test_prohibitive_fee_leaves_only_negligible_rates():
    # fee slope so large that meaningful rates cost more than both budgets;
    # the solver degrades gracefully toward the all-common corner
    sol = coop_solve_general(iv_coop(0.008, 1e3), 0.5, 0.5, FAST)
    assert sol.cooperation_valid
    assert sol.r1 < 1e-3 and sol.r2 < 1e-3
    # beta^2*b*c ~ 4e9 here: pu1 moves ~4e9 times faster than p12, and the
    # returned point must still be feasible
    res = sol.constraint_residuals
    assert res["dest_cost_w"] >= -1e-9 and res["sum_mi_bits"] >= -1e-9
    assert abs(res["budget1_w"]) < 1e-9 and abs(res["budget2_w"]) < 1e-9


def test_general_solver_beats_the_grid_oracle_negative_k_regime():
    # beta^2*b*c > 1 flips the budget-elimination sign; the solver must
    # stay consistent with brute force there
    params = iv_coop(0.008, 10.0 ** -1.8)
    assert params.cost_dest.beta ** 2 * params.b * params.c > 1.0
    sol = coop_solve_general(params, 0.5, 0.5, FAST)
    ref = sm.oracle_coop_weighted(params, 0.5, 0.5, grid=101)
    assert sol.weighted_rate >= ref.weighted_rate - 1e-9


def test_general_solver_beats_the_grid_oracle_up_to_a_cliff_in_rho():
    # a constant destination fee: the value rises in rho up to a cliff where
    # the feasible pu2 band closes, beyond the reach of a shrinking rho zoom
    params = iv_coop(0.008, 1e-3, cost_dest=sm.ConstCost(0.005))
    for mu1, mu2 in ((1.0, 0.0), (0.2, 0.8)):
        sol = coop_solve_general(params, mu1, mu2, FAST)
        ref = sm.oracle_coop_weighted(params, mu1, mu2, grid=201)
        assert sol.weighted_rate >= ref.weighted_rate - 1e-9
        res = sol.constraint_residuals
        assert res["dest_cost_w"] >= -1e-9 and res["sum_mi_bits"] >= -1e-9


def test_general_solver_with_saturating_harvester():
    from conftest import iv_eh

    params = iv_coop(0.008, 1e-2, eh=iv_eh())
    sol = coop_solve_general(params, 0.5, 0.5, FAST)
    assert sol.cooperation_valid and sol.sum_bound_satisfied
    ref = sm.oracle_coop_weighted(params, 0.5, 0.5, grid=101)
    assert sol.weighted_rate >= ref.weighted_rate - 1e-9
    # the destination fee never exceeds the saturation ceiling
    assert params.cost_dest.eval(sol.r1 + sol.r2) <= params.eh.p_max_dc + 1e-9


def test_constraints_eval_nonnegative_at_a_solution():
    params = iv_coop(0.008, 1e-3)
    sol = coop_solve_general(params, 0.4, 0.6, FAST)
    slacks = coop_constraints_eval(params, sol.alloc, sol.rho, sol.r1, sol.r2)
    assert set(slacks) == {
        "link1_bits", "link2_bits", "sum_mi_bits",
        "dest_cost_w", "budget1_w", "budget2_w",
    }
    for key, val in slacks.items():
        assert val >= -1e-9, key


def test_constraints_eval_counts_a_negative_common_power_as_zero():
    # an overspent budget leaves pu1 < 0: S counts it as 0 in every term,
    # and only the budget slack sees the overspend
    params = iv_coop(0.008, 1e-3)
    rho, r1, r2 = 0.4, 0.1, 0.2
    over = coop_constraints_eval(params, sm.PowerAllocation(0.1, 0.2, -0.05, 0.3), rho, r1, r2)
    zero = coop_constraints_eval(params, sm.PowerAllocation(0.1, 0.2, 0.0, 0.3), rho, r1, r2)
    for key in ("link1_bits", "link2_bits", "sum_mi_bits", "dest_cost_w", "budget2_w"):
        assert over[key] == zero[key], key
    assert over["budget1_w"] == pytest.approx(zero["budget1_w"] + 0.05, rel=1e-12)
    s = params.h1 ** 2 * 0.1 + params.h2 ** 2 * (0.2 + 0.3)
    harvest = params.eh.eval(rho * (s + params.n))
    assert over["dest_cost_w"] == pytest.approx(
        harvest - params.cost_dest.eval(r1 + r2), rel=1e-12
    )


def test_classicalized_maps_fields():
    params = iv_coop(0.008, 1e-3)
    cp = classicalized(params)
    assert cp.h1_sq == pytest.approx(params.h1 ** 2)
    assert cp.h2_sq == pytest.approx(params.h2 ** 2)
    assert cp.p1 == params.p_u1_budget and cp.p2 == params.p_u2_budget
    assert cp.cost is params.cost_dest and cp.eh is params.eh


def test_mdrb_rejects_bad_input():
    params = iv_coop(0.008, 1e-3)
    for solve in (
        lambda: coop_mdrb(params, weights=[(-0.5, 0.5)]),
        lambda: coop_solve_general(params, -0.1, 0.5),
        lambda: coop_solve_general(params, 0.0, 0.0),
    ):
        with pytest.raises(ValueError):
            solve()


def test_mdrb_metadata_carries_the_allocation():
    params = iv_coop(0.008, 1e-3)
    weights = [(0.5, 0.5)]
    curve = coop_mdrb(params, weights=weights, scan=FAST)
    solved = [m for m in curve.labels if m.get("source") not in (None, "classical")]
    assert solved
    for m in solved:
        assert {"mu1", "mu2", "p12", "p21", "pu1", "pu2"} <= set(m)
    # every point, an added axis intercept too, has a solve's label and rho
    assert all(curve.labels[k] in solved for k in curve.label.tolist())
    assert len(curve) and np.all((curve.rho >= 0.0) & (curve.rho <= 1.0))


def _draw_const_dest(rng):
    """A network drawn as acceptance criterion 8 draws its cooperative ones,
    but charging the destination a flat ConstCost fee of 10 uW to 1 mW."""
    while True:
        beta = 10.0 ** rng.uniform(-3.0, -1.7)
        b = 10.0 ** rng.uniform(0.0, 1.5)
        c = 10.0 ** rng.uniform(0.0, 1.5)
        if beta * beta * b * c <= 0.5:
            break
    eh = iv_eh() if rng.random() < 0.5 else sm.LinearEh(eta=rng.uniform(0.4, 1.0))
    params = sm.CoopParams(
        h1=rng.uniform(0.05, 0.3),
        h2=rng.uniform(0.05, 0.3),
        h12=math.sqrt(b * 1e-6),
        h21=math.sqrt(c * 1e-6),
        n1=1e-6,
        n2=1e-6,
        n=1e-6,
        n_p=1e-3,
        p_u1_budget=rng.uniform(0.2, 1.0),
        p_u2_budget=rng.uniform(0.2, 1.0),
        eh=eh,
        cost_dest=sm.ConstCost(10.0 ** rng.uniform(-5.0, -3.0)),
        cost_user1=sm.ExpCost(beta),
        cost_user2=sm.ExpCost(beta),
    )
    return params, rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)


def test_const_dest_fee_reaches_the_grid_oracle():
    # a flat destination fee leaves the fee slack at an MI-tight optimum;
    # the boundary trace must reach it as brute force does
    rng = np.random.default_rng(20260909)
    for _ in range(16):
        params, mu1, mu2 = _draw_const_dest(rng)
        sol = coop_solve_general(params, mu1, mu2)
        ref = sm.oracle_coop_weighted(params, mu1, mu2, grid=201)
        assert sol.weighted_rate >= ref.weighted_rate - 1e-9
        res = sol.constraint_residuals
        assert res["dest_cost_w"] >= -1e-9 and res["sum_mi_bits"] >= -1e-9


def test_binding_constraint_is_reported():
    # fig5a: the fee and the sum MI bound close the rho interval together
    params = cli.ingest_config(cli.PRESETS["fig5a"]).coop
    sol = coop_solve_general(params, 0.5, 0.5)
    assert sol.notes["binding"] == "fee+sum-mi" and sol.source == "balanced"
    lo, hi = sol.notes["rho_interval"]
    assert lo == sol.rho and hi - lo < 1e-9
    assert isinstance(sol.notes["passes"], int) and sol.notes["passes"] > 0
    # fig5d: the fee reaches the harvester's ceiling, the interval stays open
    params = cli.ingest_config(cli.PRESETS["fig5d"]).coop
    sol = coop_solve_general(params, 0.5, 0.5)
    assert sol.notes["binding"] == "fee" and sol.source == "cost-tight"
    assert params.cost_dest.eval(sol.r1 + sol.r2) > 0.999 * params.eh.p_max_dc
    # a ConstCost destination fee: the flat fee and the MI bound meet
    params = iv_coop(0.008, 1e-3, cost_dest=sm.ConstCost(0.005))
    sol = coop_solve_general(params, 0.2, 0.8, FAST)
    assert sol.notes["binding"] == "fee+sum-mi"
    # a free destination with a loose MI bound: the user budgets bind
    params = iv_coop(
        0.008, 1e-3, cost_dest=sm.ConstCost(0.0), eh=sm.LinearEh(1.0), n_p=1e-9
    )
    sol = coop_solve_general(params, 0.5, 0.5, FAST)
    assert sol.notes["binding"] in ("budget1", "budget2") and sol.source == "interior"
    assert min(sol.alloc.pu1, sol.alloc.pu2) < 1e-9


_FEES = (sm.ExpCost, sm.LogCost, sm.LinCost, sm.ConstCost)


@st.composite
def _networks(draw):
    """Networks with any fee family at every node and either harvester."""
    level = st.floats(-3.5, -1.7).map(lambda x: 10.0 ** x)
    fees = [draw(st.sampled_from(_FEES))(draw(level)) for _ in range(3)]
    eh = draw(st.one_of(st.just(iv_eh()), st.floats(0.3, 1.0).map(sm.LinearEh)))
    gain = st.floats(0.05, 0.3)
    link = st.floats(0.0, 1.5).map(lambda x: math.sqrt(10.0 ** x * 1e-6))
    budget = st.floats(0.1, 1.0)
    params = sm.CoopParams(
        h1=draw(gain), h2=draw(gain), h12=draw(link), h21=draw(link),
        n1=1e-6, n2=1e-6, n=1e-6, n_p=1e-3,
        p_u1_budget=draw(budget), p_u2_budget=draw(budget),
        eh=eh, cost_dest=fees[0], cost_user1=fees[1], cost_user2=fees[2],
    )
    weight = st.floats(0.0, 1.0)
    mu1, mu2 = draw(weight), draw(weight)
    assume(mu1 + mu2 > 0.0)
    return params, mu1, mu2


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(_networks())
def test_solutions_are_feasible_and_swap_symmetric(case):
    params, mu1, mu2 = case
    sol = coop_solve_general(params, mu1, mu2, FAST)
    slacks = coop_constraints_eval(params, sol.alloc, sol.rho, sol.r1, sol.r2)
    for key, val in slacks.items():
        assert val >= -1e-9, key
    assert abs(slacks["budget1_w"]) <= 1e-9 and abs(slacks["budget2_w"]) <= 1e-9
    swapped = coop_solve_general(params.swapped(), mu2, mu1, FAST)
    assert sol.weighted_rate == swapped.weighted_rate


def test_mdrb_raises_on_an_invalid_solve(monkeypatch):
    # no classical fallback: an invalid cooperative point is an error
    import dataclasses

    import swipt_mac.coop_mac as coop_mac

    solve = coop_mac._solve

    def broken(*args):
        return [dataclasses.replace(s, cooperation_valid=False) for s in solve(*args)]

    monkeypatch.setattr(coop_mac, "_solve", broken)
    with pytest.raises(RuntimeError):
        coop_mdrb(iv_coop(0.008, 1e-3), weights=[(0.5, 0.5)], scan=FAST)


# ---------------------------------------------------------------------------
# the memo of the weight-independent stages
# ---------------------------------------------------------------------------


def _cold_then_warm(params, solve, monkeypatch):
    """solve() on an empty memo of params, and again after a solve at other
    weights left the network's boundary in it: the warm solve traces none."""
    params._memo.clear()
    cold = solve()
    params._memo.clear()
    solve(other=True)
    traces = count_calls(monkeypatch, coop_mac, "_boundary")
    warm = solve()
    assert not traces
    return cold, warm


_MIXED = iv_coop(
    0.008, 1e-3, h12=0.008, h21=0.004,
    cost_dest=sm.LinCost(2e-3), cost_user1=sm.LogCost(1e-3), cost_user2=sm.ExpCost(1e-3),
)


# passes: the feasibility-test batches of the whole trace, the memoized
# stages' batches included, so that warm and cold solves report the same
@pytest.mark.parametrize(
    "params, passes",
    [(iv_coop(0.008, 1e-3, h21=0.004), 281),
     (iv_coop(0.008, 1e-3, h21=0.004).swapped(), 256), (_MIXED, 281)],
    ids=["network", "swapped", "mixed-fees"],
)
def test_warm_solves_equal_cold_ones(params, passes, monkeypatch):
    def solve(other=False):
        return coop_solve_general(params, *((0.9, 0.1) if other else (0.3, 0.7)), FAST)

    cold, warm = _cold_then_warm(params, solve, monkeypatch)
    assert warm == cold  # every field, notes included
    assert repr(warm) == repr(cold)
    assert warm.notes["passes"] == passes


def test_warm_frontier_equals_a_cold_one(monkeypatch):
    params = iv_coop(0.008, 1e-3, h21=0.004)
    weights = [(t, 1.0 - t) for t in (0.0, 0.2, 0.5, 0.8, 1.0)]

    def frontier(other=False):
        return coop_mdrb(params, weights=[(0.6, 0.4)] if other else weights, scan=FAST)

    cold, warm = _cold_then_warm(params, frontier, monkeypatch)
    assert repr(warm) == repr(cold)


def test_warm_solve_takes_its_constants_from_its_own_network(monkeypatch):
    # equal networks each keep their own memo: a budget of -0.0 leaves
    # pu1 = -0.0 where one of 0.0 leaves 0.0, cold and warm
    zero = iv_coop(0.008, 1e-3, p_u1_budget=0.0)
    minus = iv_coop(0.008, 1e-3, p_u1_budget=-0.0)
    assert zero == minus

    def solve(params):
        return coop_solve_general(params, 0.5, 0.5, FAST)

    cold = solve(minus)
    solve(zero)  # fills its own memo, not minus'
    traces = count_calls(monkeypatch, coop_mac, "_boundary")
    warm = solve(minus)
    assert not traces
    assert repr(warm) == repr(cold)
    assert math.copysign(1.0, cold.alloc.pu1) == math.copysign(1.0, warm.alloc.pu1) == -1.0
    assert math.copysign(1.0, solve(zero).alloc.pu1) == 1.0


def test_memo_arrays_are_read_only():
    params = iv_coop(0.008, 1e-3)
    coop_solve_general(params, 0.5, 0.5, FAST)
    *arrays, passes = params._memo[FAST]
    assert passes > 0
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


class _UnhashableExp(sm.ExpCost):
    __hash__ = None


def test_unhashable_model_is_memoized(monkeypatch):
    params = iv_coop(0.008, 1e-3, cost_user1=_UnhashableExp(1e-3))
    twin = coop_solve_general(iv_coop(0.008, 1e-3), 0.5, 0.5, FAST)
    cold = coop_solve_general(params, 0.5, 0.5, FAST)
    traces = count_calls(monkeypatch, coop_mac, "_boundary")
    warm = coop_solve_general(params, 0.5, 0.5, FAST)
    assert not traces
    assert warm == cold == twin


@contextlib.contextmanager
def _deadline(seconds, what):
    """Raise TimeoutError in the block once it has run `seconds`."""

    def hang(signum, frame):
        raise TimeoutError(f"{what} did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("budget", [1e-310, 5e-324])
@pytest.mark.parametrize("users", ["both", "one"])
def test_subnormal_budgets_terminate(budget, users):
    # 2^-46 of a subnormal axis underflows to 0; without a floor on the
    # tolerance a bracket of two adjacent subnormals would bisect forever
    fig5a = cli.ingest_config(cli.PRESETS["fig5a"]).coop
    budgets = (budget, budget if users == "both" else fig5a.p_u2_budget)
    params = dataclasses.replace(fig5a, p_u1_budget=budgets[0], p_u2_budget=budgets[1])
    with _deadline(30, "coop_solve_general"):
        sol = coop_solve_general(params, 0.5, 0.5)
    slacks = coop_constraints_eval(params, sol.alloc, sol.rho, sol.r1, sol.r2)
    for key, val in slacks.items():
        assert val >= -1e-9, key
    # both budgets are spent exactly, the subnormal ones to the last bit
    for k, bud in enumerate(budgets, 1):
        assert abs(slacks[f"budget{k}_w"]) <= 1e-12 * bud


def test_boundary_bisection_gives_up_at_its_pass_cap():
    # the midpoint of two adjacent floats is one of them, so with a zero
    # tolerance the bracket never closes
    params = iv_coop(0.008, 1e-3)
    bt = coop_mac._Batch(params, np.array([0]))
    lo = np.array([[0.1]])
    hi = np.nextafter(lo, 1.0)
    assert 0.5 * (lo + hi) in (lo, hi)
    with _deadline(30, "_bisect"), pytest.raises(ConvergenceError, match="passes"):
        coop_mac._bisect(bt, np.zeros_like(lo), lo, hi, 0.0)
