"""Simultaneous-decoding region: breakpoints, boundary sweeps, sum rate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swipt_mac as sm
import swipt_mac.classical_simul as cs
from swipt_mac.classical_simul import (
    InfeasibleRegionError,
    rate_bound_sum,
    rate_bound_user1,
    rate_bound_user2,
    simul_breakpoints,
    simul_closed_form,
    simul_slacks,
)
from swipt_mac.region import BoundaryCurve, frontier

from conftest import check_slack_parity, classical_draws, fee_cap, iv_classical, iv_eh, nudge


# the paper's literal balancing functions: roots at level n_p give the
# breakpoints the solver finds on cost-space residuals


def gamma_c(params, x):
    """2^(2*phi^{-1}(psi(x*a))) * ((1-x)*n + n_p) - (1-x)*a; root gives rho_c."""
    t = 2.0 * params.cost.inverse(params.eh.eval(x * params.a))
    return math.pow(2.0, t) * ((1.0 - x) * params.n + params.n_p) - (1.0 - x) * params.a


def gamma_1(params, x):
    """gamma_c shifted by user 1's received power; root gives rho_1."""
    return gamma_c(params, x) + (1.0 - x) * params.h1_sq * params.p1


def gamma_2(params, x):
    """gamma_c shifted by user 2's received power; root gives rho_2."""
    return gamma_c(params, x) + (1.0 - x) * params.h2_sq * params.p2


def test_breakpoints_satisfy_their_defining_equations():
    for cost in (sm.ExpCost(1e-3), sm.LogCost(1e-3), sm.LinCost(1e-3)):
        params = iv_classical(cost)
        bp = simul_breakpoints(params)
        assert 0.0 <= bp.rho_1 <= bp.rho_c <= 1.0
        assert 0.0 <= bp.rho_2 <= bp.rho_c <= 1.0
        scale = params.n_p
        assert abs(gamma_c(params, bp.rho_c) - params.n_p) < 1e-9 * scale
        assert abs(gamma_1(params, bp.rho_1) - params.n_p) < 1e-9 * scale
        assert abs(gamma_2(params, bp.rho_2) - params.n_p) < 1e-9 * scale


def test_free_decoding_collapses_breakpoints_to_zero():
    # vanishing fee scale: no power needs to be harvested before decoding
    params = iv_classical(sm.ExpCost(1e-15))
    bp = simul_breakpoints(params)
    assert bp.rho_c < 1e-8
    assert bp.rho_1 == 0.0 or bp.rho_1 < 1e-8


def test_extreme_fee_pushes_everything_into_harvesting():
    params = iv_classical(sm.ExpCost(1e3))
    rep = sm.sumrate_simultaneous(params)
    assert rep.rho_opt > 1.0 - 1e-5
    assert rep.sum_rate < 1e-4


def test_sumrate_balances_cost_against_harvest():
    for cost in (sm.ExpCost(1e-3), sm.LogCost(1e-3), sm.LinCost(1e-3)):
        params = iv_classical(cost)
        rep = sm.sumrate_simultaneous(params)
        assert abs(rep.residuals["cost_balance_w"]) < 1e-12
        assert rep.sum_rate <= rep.bound + 1e-12
        # re-evaluate the balance independently
        lhs = cost.eval(rate_bound_sum(params, rep.rho_opt))
        rhs = params.eh.eval(rep.rho_opt * params.a)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sumrate_const_fee_threshold():
    params = iv_classical(sm.ConstCost(0.013))
    rep = sm.sumrate_simultaneous(params)
    assert params.eh.eval(rep.rho_opt * params.a) == pytest.approx(0.013, abs=1e-12)
    assert rep.sum_rate == pytest.approx(rate_bound_sum(params, rep.rho_opt))


def test_sumrate_const_fee_above_harvest_ceiling_is_infeasible():
    params = iv_classical(sm.ConstCost(0.025))  # psi(a) tops out at 24 mW
    with pytest.raises(InfeasibleRegionError):
        sm.sumrate_simultaneous(params)


def test_closed_form_requires_linear_eh_and_exp_cost():
    with pytest.raises(TypeError):
        simul_closed_form(iv_classical(sm.ExpCost(1e-3)))  # logistic EH
    with pytest.raises(TypeError):
        simul_closed_form(iv_classical(sm.LinCost(1e-3), eh=sm.LinearEh(0.5)))


def test_closed_form_matches_drop_noise_numeric():
    params = iv_classical(sm.ExpCost(1e-3), eh=sm.LinearEh(1.0))
    rho_cf, sum_cf = simul_closed_form(params)
    rep = sm.sumrate_simultaneous(params, drop_denominator_noise=True)
    assert rho_cf == pytest.approx(rep.rho_opt, abs=1e-9)
    assert sum_cf == pytest.approx(rep.sum_rate, abs=1e-9)


def test_drop_denominator_noise_only_matters_through_n():
    # with n below float resolution of n_p both routes coincide
    params = iv_classical(sm.ExpCost(1e-3), eh=sm.LinearEh(1.0), n=1e-30)
    full = sm.sumrate_simultaneous(params, drop_denominator_noise=False)
    dropped = sm.sumrate_simultaneous(params, drop_denominator_noise=True)
    assert full.sum_rate == pytest.approx(dropped.sum_rate, abs=1e-12)


def test_boundary_curve_spans_both_axes():
    for cost in (sm.ExpCost(1e-3), sm.LogCost(1e-3), sm.LinCost(1e-3)):
        params = iv_classical(cost)
        curve = sm.mdrb_simultaneous(params, n_points=128)
        assert len(curve) > 3
        # touches the r1 axis (r2=0) and reaches its single-user extremes
        assert curve.r2[0] == 0.0
        bp = simul_breakpoints(params)
        assert curve.r1.max() == pytest.approx(
            min(
                rate_bound_user1(params, bp.rho_2),
                rate_bound_sum(params, bp.rho_2),
            ),
            abs=1e-6,
        )


def test_every_boundary_point_is_feasible():
    # the axis intercepts included
    params = iv_classical(sm.LogCost(1e-3))
    curve = sm.mdrb_simultaneous(params, n_points=64)
    for name, slack in simul_slacks(params, curve.r1, curve.r2, curve.rho).items():
        assert np.all(slack >= -1e-9), name


def test_linear_cost_near_corner_sag_gets_hulled():
    # the raw parametric sweep dips below its own time-sharing chord near
    # the axis corners for the additive fee at these settings; the returned
    # curve must be the envelope
    params = iv_classical(sm.LinCost(1e-3))
    curve = sm.mdrb_simultaneous(params, n_points=512)
    assert curve.hulled
    r2, r1 = curve.r2, curve.r1
    for i in range(1, len(r2) - 1):
        chord = np.interp(r2[i], [r2[i - 1], r2[i + 1]], [r1[i - 1], r1[i + 1]])
        assert r1[i] >= chord - 1e-9


def test_const_fee_regions():
    # a 13 mW fee is affordable and leaves a rectangle with both rates positive
    curve = sm.mdrb_simultaneous(iv_classical(sm.ConstCost(0.013)))
    assert np.any((curve.r1 > 1e-9) & (curve.r2 > 1e-9))
    # a 25 mW fee exceeds the harvest ceiling: empty region, reason recorded
    empty = sm.mdrb_simultaneous(iv_classical(sm.ConstCost(0.025)))
    assert len(empty) == 0
    assert empty.empty_reason


def test_simul_feasible_rejects_each_violated_constraint():
    params = iv_classical(sm.ExpCost(1e-3))
    rep = sm.sumrate_simultaneous(params)
    rho = rep.rho_opt
    r1 = rate_bound_user1(params, rho)
    r2 = rep.sum_rate - r1
    ok = simul_slacks(params, r1 * 0.999, r2 * 0.999, rho)
    assert min(ok.values()) >= -1e-12
    # a rate above its own bound: that slack goes negative
    assert simul_slacks(params, r1 * 1.01, r2, rho)["rate1_bits"] < -1e-12
    # a PS factor outside [0, 1] is not a point at all
    for bad in (-0.1, 1.2):
        with pytest.raises(sm.ModelDomainError):
            simul_slacks(params, r1, r2, bad)
    # starving the harvester breaks the cost constraint even if rates fit
    starved = simul_slacks(params, r1, r2, rho * 0.5)
    assert starved["fee_w"] < -1e-12
    assert min(v for k, v in starved.items() if k != "fee_w") >= 0.0


# ---------------------------------------------------------------------------
# parity with a step-by-step build
# ---------------------------------------------------------------------------


def _ref_mdrb_simultaneous(params, n_points=512):
    """(curve, cloud, branch) built step by step: a smooth fee's curve is the
    time-sharing envelope of its raw sweep cloud, the indicator fee's the
    pentagon at its fee threshold."""
    try:
        bp = simul_breakpoints(params)
    except InfeasibleRegionError as err:
        return BoundaryCurve(empty_reason=str(err)), (), "empty"
    if isinstance(params.cost, sm.ConstCost):
        return cs._pentagon_curve(params, bp.rho_c, n_points), (), "pentagon"
    eh, cost, a = params.eh, params.cost, params.a

    def affordable(rho_arr):
        return cost.rate_cap(eh.eval(np.asarray(rho_arr) * a), np.inf)

    rho1_grid = np.linspace(bp.rho_1, bp.rho_c, n_points)
    r2_seg = rate_bound_user2(params, rho1_grid)
    r1_seg = np.maximum(affordable(rho1_grid) - r2_seg, 0.0)
    rho2_grid = np.linspace(bp.rho_2, bp.rho_c, n_points)
    r1b_seg = rate_bound_user1(params, rho2_grid)
    r2b_seg = np.maximum(affordable(rho2_grid) - r1b_seg, 0.0)
    s = float(affordable(np.array([bp.rho_c]))[0])
    b1c = rate_bound_user1(params, bp.rho_c)
    b2c = rate_bound_user2(params, bp.rho_c)
    r2_face = np.linspace(max(s - b1c, 0.0), min(b2c, s), max(n_points // 8, 2))
    r1_face = np.where(s - r2_face < 0.0, 0.0, s - r2_face)
    cloud = (
        (r1_seg, r2_seg, rho1_grid, {"segment": "user2-pinned"}),
        (r1b_seg, r2b_seg, rho2_grid, {"segment": "user1-pinned"}),
        (r1_face, r2_face, np.full(r2_face.size, bp.rho_c), {"segment": "sum-face"}),
    )
    return frontier(*cloud, hull=True), cloud, "envelope"


def _draw(rng, family):
    """A random channel drawn as the classical benchmark draws them."""
    h1, h2 = rng.uniform(0.02, 0.2, size=2)
    eh = iv_eh() if rng.uniform() < 0.5 else sm.LinearEh(rng.uniform(0.3, 1.0))
    return sm.ClassicalParams(
        h1_sq=h1 * h1, h2_sq=h2 * h2, p1=rng.uniform(0.1, 1.0), p2=rng.uniform(0.1, 1.0),
        n=1e-6, n_p=1e-3, eh=eh, cost=family(10.0 ** rng.uniform(-3.2, -1.5)),
    )


def test_mdrb_builds_the_curve_of_the_two_build_path():
    rng = np.random.default_rng(7101)
    t = np.linspace(0.0, 1.0, 33)  # directions (t, 1 - t), both axes included
    branches = []
    for family in (sm.ExpCost, sm.LogCost, sm.LinCost, sm.ConstCost) * 8:
        params = _draw(rng, family)
        want, cloud, branch = _ref_mdrb_simultaneous(params)
        curve = sm.mdrb_simultaneous(params)
        assert repr(curve) == repr(want), (branch, params)
        branches.append(branch)
        if cloud:
            # the envelope keeps the cloud's support in every direction
            r1, r2 = (np.concatenate([part[k] for part in cloud]) for k in (0, 1))
            raw = np.max(np.outer(t, r1) + np.outer(1.0 - t, r2), axis=1)
            got = np.max(np.outer(t, curve.r1) + np.outer(1.0 - t, curve.r2), axis=1)
            np.testing.assert_allclose(got, raw, rtol=0.0, atol=1e-12)
    for branch in ("envelope", "pentagon", "empty"):
        assert branches.count(branch) >= 2, branches


# ---------------------------------------------------------------------------
# parity of the slacks with the point predicate they replaced
# ---------------------------------------------------------------------------


def _ref_simul_feasible(params, r1, r2, rho, tol=1e-12):
    """The removed simul_feasible, on (r1, r2, rho) for its RatePoint."""
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


def _ref_simul_terms(params, r1, r2, rho):
    """Each comparison of the removed predicate as (bound, what it bounds)."""
    return {
        "rate1_bits": (rate_bound_user1(params, rho), r1),
        "rate2_bits": (rate_bound_user2(params, rho), r2),
        "sum_bits": (rate_bound_sum(params, rho), r1 + r2),
        "fee_w": (params.eh.eval(rho * params.a), params.cost.eval(r1 + r2)),
    }


@st.composite
def simul_points(draw, params):
    """(r1, r2, rho) anywhere, or placed within 2 ulps of one of the bounds,
    where the verdict flips."""
    rho = draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
    frac, ulps = draw(st.floats(0.0, 1.0)), draw(st.integers(-2, 2))
    b1, b2 = rate_bound_user1(params, rho), rate_bound_user2(params, rho)
    bs, cap = rate_bound_sum(params, rho), fee_cap(params, rho)
    return draw(st.sampled_from((
        (draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)), rho),
        (nudge(b1, ulps), frac * b2, rho),
        (frac * b1, nudge(b2, ulps), rho),
        (frac * bs, nudge(bs - frac * bs, ulps), rho),
        (frac * cap, nudge(cap - frac * cap, ulps), rho),
    )))


@st.composite
def simul_cases(draw):
    params = draw(classical_draws())
    return params, draw(st.lists(simul_points(params), min_size=1, max_size=8))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(simul_cases())
def test_simul_slacks_match_the_removed_predicate(case):
    check_slack_parity(simul_slacks, _ref_simul_feasible, _ref_simul_terms, *case)


@pytest.mark.parametrize(
    "r1, r2, rho",
    [(-1e-300, 0.1, 0.5), (0.1, -0.5, 0.5), (0.1, 0.1, -0.1), (0.1, 0.1, 1.2),
     (math.nan, 0.1, 0.5), (0.1, 0.1, math.nan), (np.array([0.1, -0.1]), 0.1, 0.5),
     (0.1, 0.1, np.array([0.5, 2.0]))],
    ids=["r1-negative", "r2-negative", "rho-negative", "rho-above-1", "r1-nan", "rho-nan",
         "r1-array", "rho-array"],
)
def test_slacks_reject_a_point_outside_the_domain(r1, r2, rho, monkeypatch):
    # the removed predicates answered False; no bound is evaluated
    def unreachable(*args):
        raise AssertionError("a bound was evaluated")

    params = iv_classical(sm.ExpCost(1e-3))
    monkeypatch.setattr(cs, "rate_bound_user1", unreachable)
    monkeypatch.setattr(sm.classical_sic, "sic_rate_bounds", unreachable)
    with pytest.raises(sm.ModelDomainError):
        simul_slacks(params, r1, r2, rho)
    for order in sm.DecodingOrder:
        with pytest.raises(sm.ModelDomainError):
            sm.sic_slacks(params, r1, r2, rho, order)


# ---------------------------------------------------------------------------
# the rho_c memo
# ---------------------------------------------------------------------------


def _solves(params):
    """Everything a channel's rho_c feeds, as one repr."""
    return repr([
        simul_breakpoints(params),
        sm.sumrate_simultaneous(params),
        sm.sumrate_simultaneous(params, drop_denominator_noise=True),
        sm.mdrb_simultaneous(params, n_points=64),
    ])


@pytest.mark.parametrize("cost", [sm.ExpCost(1e-3), sm.LogCost(1e-3), sm.ConstCost(0.013)])
def test_warm_rho_c_equals_a_cold_one(cost, monkeypatch):
    params = iv_classical(cost, p1=0.7, p2=0.3)
    with monkeypatch.context() as m:  # every solve from scratch
        m.setattr(cs, "_shared_root", cs._shared_root.__wrapped__)
        fresh = _solves(params)
    cs._shared_root.cache_clear()
    cold = _solves(params)
    hits = cs._shared_root.cache_info().hits
    warm = _solves(params)
    assert cs._shared_root.cache_info().hits > hits
    assert warm == cold == fresh
