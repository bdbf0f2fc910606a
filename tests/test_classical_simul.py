"""Simultaneous-decoding region: breakpoints, boundary sweeps, sum rate."""

import math

import numpy as np
import pytest

import swipt_mac as sm
from swipt_mac.classical_simul import (
    InfeasibleRegionError,
    rate_bound_sum,
    rate_bound_user1,
    rate_bound_user2,
    simul_breakpoints,
    simul_closed_form,
    simul_feasible,
)

from conftest import iv_classical


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
        assert curve.points[0].r2 == 0.0
        bp = simul_breakpoints(params)
        assert curve.max_r1() == pytest.approx(
            min(
                rate_bound_user1(params, bp.rho_2),
                rate_bound_sum(params, bp.rho_2),
            ),
            abs=1e-6,
        )


def test_every_boundary_point_is_feasible():
    params = iv_classical(sm.LogCost(1e-3))
    curve = sm.mdrb_simultaneous(params, n_points=64)
    for p, m in zip(curve.points, curve.metadata):
        if m.get("intercept"):
            continue
        assert simul_feasible(params, p, tol=1e-9)


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
    assert any(p.r1 > 1e-9 and p.r2 > 1e-9 for p in curve.points)
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
    ok = sm.RatePoint(r1 * 0.999, r2 * 0.999, rho)
    assert simul_feasible(params, ok)
    assert not simul_feasible(params, sm.RatePoint(r1 * 1.01, r2, rho))
    assert not simul_feasible(params, sm.RatePoint(r1, r2, rho=-0.1))
    assert not simul_feasible(params, sm.RatePoint(r1, r2, rho=1.2))
    # starving the harvester breaks the cost constraint even if rates fit
    assert not simul_feasible(params, sm.RatePoint(r1, r2, rho=rho * 0.5))
