"""Successive-cancellation region and sum rate, numeric and closed form."""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import swipt_mac as sm
import swipt_mac.classical_sic as sic
import swipt_mac.classical_simul as cs
from swipt_mac.classical_simul import (
    _SWEEPS,
    _balance_root,
    simul_breakpoints,
    simul_closed_form,
    simul_slacks,
)
from swipt_mac.classical_sic import (
    DecodingOrder,
    InfeasibleRegionError,
    sic_breakpoints,
    sic_rate_bounds,
    sic_slacks,
    sic_sumrate_closed_form,
    sic_sumrate_numeric,
)
from swipt_mac.cli import PRESETS, ingest_config
from swipt_mac.numerics import RootConfig, ScanConfig, bisect_root, critical_points
from swipt_mac.region import BoundaryCurve, frontier

from conftest import (
    check_slack_parity,
    classical_draws,
    count_calls,
    fee_cap,
    iv_classical,
    iv_eh,
    nudge,
)


def sic_gamma_c(params, x, order):
    """The paper's literal balancing function
    (1/x)*psi^{-1}(phi(b1(x)) + phi(b2(x))); its root at level a gives rho_c."""
    b1, b2 = sic_rate_bounds(params, x, order)
    return params.eh.inverse(params.cost.eval(b1) + params.cost.eval(b2)) / x


def test_breakpoints_satisfy_the_balancing_equation():
    params = iv_classical(sm.ExpCost(1e-3))
    for order in DecodingOrder:
        bp = sic_breakpoints(params, order)
        assert 0.0 < bp.rho_1 <= bp.rho_c <= 1.0
        assert 0.0 < bp.rho_2 <= bp.rho_c <= 1.0
        # gamma(rho_c) returns to the total received power
        assert sic_gamma_c(params, bp.rho_c, order) == pytest.approx(
            params.a, rel=1e-9
        )


def test_corner_rates_sum_to_the_joint_bound():
    params = iv_classical(sm.LogCost(1e-3))
    from swipt_mac.classical_simul import rate_bound_sum

    for order in DecodingOrder:
        for rho in (0.1, 0.4, 0.83):
            b1, b2 = sic_rate_bounds(params, rho, order)
            assert b1 + b2 == pytest.approx(rate_bound_sum(params, rho), abs=1e-12)


def test_additive_fee_shares_its_corner_breakpoint_with_simultaneous():
    # phi(R1)+phi(R2) = phi(R1+R2) for the additive family, so the corner
    # balance equation coincides with the simultaneous one
    params = iv_classical(sm.LinCost(1e-3))
    simul_bp = simul_breakpoints(params)
    for order in DecodingOrder:
        bp = sic_breakpoints(params, order)
        assert bp.rho_c == pytest.approx(simul_bp.rho_c, abs=1e-8)


def _mirror(curve):
    return frontier((curve.r2, curve.r1, curve.rho, {}), hull=True)


def test_region_is_mirror_symmetric_under_user_swap():
    params = iv_classical(sm.ExpCost(1e-3), p1=0.7, p2=0.3)
    a = sm.mdrb_sic(params, n_points=256)
    b = sm.mdrb_sic(params.swapped(), n_points=256)
    assert sm.hausdorff(a, _mirror(b)) < 1e-9


def test_convex_fee_prefers_cancellation_concave_prefers_joint():
    exp = iv_classical(sm.ExpCost(1e-3))
    assert sm.dominates(
        sm.mdrb_sic(exp, 256), sm.mdrb_simultaneous(exp, 256), 1e-6
    )
    log = iv_classical(sm.LogCost(1e-3))
    assert sm.dominates(
        sm.mdrb_simultaneous(log, 256), sm.mdrb_sic(log, 256), 1e-6
    )


def test_const_fee_region_is_two_rectangles_without_joint_corner():
    # 13 mW: one fee affordable, two are not -> no point with both rates
    # positive, but the single-user faces survive
    curve = sm.mdrb_sic(iv_classical(sm.ConstCost(0.013)), 256)
    assert len(curve) > 0
    assert not np.any((curve.r1 > 1e-9) & (curve.r2 > 1e-9))
    assert curve.r1.max() > 0.1 and curve.r2.max() > 0.1
    # 25 mW: even one fee exceeds the harvest ceiling
    empty = sm.mdrb_sic(iv_classical(sm.ConstCost(0.025)), 256)
    assert len(empty) == 0
    assert empty.empty_reason


def test_const_fee_double_corner_survives_when_affordable():
    # 8 mW: two fees (16 mW) fit under the 24 mW ceiling
    curve = sm.mdrb_sic(iv_classical(sm.ConstCost(0.008)), 256)
    assert np.any((curve.r1 > 0.1) & (curve.r2 > 0.1))


def test_max_sum_at_rho_pays_each_constant_fee_whole():
    # below one fee nothing decodes; between one fee and two the better
    # single message decodes alone; with both fees paid the corner holds
    rho = 0.5
    free = iv_classical(sm.ConstCost(0.0))
    budget = free.eh.eval(rho * free.a)
    bounds = [sic_rate_bounds(free, rho, order) for order in DecodingOrder]
    for share, want in (
        (1.5, (0.0, "cost")),
        (0.75, (max(max(b) for b in bounds), "cost")),
        (0.4, (max(b1 + b2 for b1, b2 in bounds), "rate")),
    ):
        params = iv_classical(sm.ConstCost(share * budget))
        assert sm.sic_max_sum_at_rho(params, rho) == want, share


def test_numeric_sumrate_exhausts_the_harvest():
    for cost in (sm.ExpCost(1e-3), sm.LogCost(1e-3), sm.LinCost(1e-3)):
        params = iv_classical(cost)
        rep = sic_sumrate_numeric(params)
        assert abs(rep.residuals["cost_balance_w"]) < 1e-9
        r1, r2 = rep.notes["r1"], rep.notes["r2"]
        assert r1 + r2 == pytest.approx(rep.sum_rate, abs=1e-12)
        assert rep.sum_rate >= sm.sumrate_simultaneous(params).sum_rate - 0.2


def test_numeric_sumrate_point_is_feasible_in_some_order():
    params = iv_classical(sm.ExpCost(1e-3), p1=0.8, p2=0.2)
    rep = sic_sumrate_numeric(params)
    point = rep.notes["r1"], rep.notes["r2"], rep.rho_opt
    assert any(
        min(sic_slacks(params, *point, order).values()) >= -1e-9 for order in DecodingOrder
    )


def test_numeric_sumrate_swap_invariant():
    params = iv_classical(sm.ExpCost(1e-3), p1=0.8, p2=0.2)
    rep = sic_sumrate_numeric(params)
    swapped = sic_sumrate_numeric(params.swapped())
    assert rep.sum_rate == pytest.approx(swapped.sum_rate, abs=1e-12)
    assert rep.notes["r1"] == pytest.approx(swapped.notes["r2"], abs=1e-12)
    assert rep.notes["order"] != swapped.notes["order"]


def test_numeric_sumrate_matches_the_oracle_for_concave_and_constant_fees():
    # a concave or constant fee can prefer decoding the weaker user first,
    # so the solver must weigh both orders; drawn as acceptance criterion 8
    # draws, with the fee families that criterion leaves out
    rng = np.random.default_rng(20261018)
    for family in (sm.LogCost, sm.ConstCost):
        for _ in range(12):
            h1, h2 = rng.uniform(0.02, 0.2, 2)
            cost = family(10.0 ** rng.uniform(-3.2, -1.5))
            eh = iv_eh() if rng.random() < 0.5 else sm.LinearEh(rng.uniform(0.3, 1.0))
            params = sm.ClassicalParams(
                h1_sq=h1 * h1, h2_sq=h2 * h2,
                p1=rng.uniform(0.1, 1.0), p2=rng.uniform(0.1, 1.0),
                n=1e-6, n_p=1e-3, eh=eh, cost=cost,
            )
            best = sm.oracle_sic_sumrate(params, 1e-5).sum_rate
            try:
                got = sic_sumrate_numeric(params).sum_rate
            except InfeasibleRegionError:  # a fee above the harvest ceiling
                got = 0.0
            assert got == pytest.approx(best, abs=1e-4), (family.__name__, params)


def test_closed_form_requires_linear_eh_and_exp_cost():
    with pytest.raises(TypeError):
        sic_sumrate_closed_form(iv_classical(sm.ExpCost(1e-3)))  # logistic EH
    with pytest.raises(TypeError):
        sic_sumrate_closed_form(iv_classical(sm.LogCost(1e-3), eh=sm.LinearEh(0.5)))


def test_closed_form_consumes_the_harvest_and_orders_roots():
    params = iv_classical(sm.ExpCost(1e-3), eh=sm.LinearEh(1.0))
    cf = sic_sumrate_closed_form(params)
    assert cf.rho_2 <= cf.rho_opt <= cf.rho_ceiling
    spent = params.cost.eval(cf.r1) + params.cost.eval(cf.r2)
    harvested = params.eh.eval(cf.rho_opt * params.a)
    assert spent == pytest.approx(harvested, abs=1e-9)
    # second-decoded user sits at its clean single-user bound, evaluated with
    # the denominator antenna noise dropped (the closed form's regime)
    assert cf.relabeled is False
    clean = 0.5 * math.log2(1.0 + (1.0 - cf.rho_opt) * cf.b_term / params.n_p)
    assert cf.r2 == pytest.approx(clean, abs=1e-12)


def test_closed_form_matches_numeric_on_seeded_draws():
    rng = np.random.default_rng(20260214)
    for _ in range(10):
        h1_sq, h2_sq = 10.0 ** rng.uniform(-2.2, -1.6, 2)
        p1, p2 = rng.uniform(0.2, 1.0, 2)
        n_p = 10.0 ** rng.uniform(-3.1, -2.9)
        n = n_p * 10.0 ** rng.uniform(-10.0, -7.0)
        eta = rng.uniform(0.4, 1.0)
        beta = 10.0 ** rng.uniform(-3.3, -3.0)
        params = sm.ClassicalParams(
            h1_sq=h1_sq, h2_sq=h2_sq, p1=p1, p2=p2, n=n, n_p=n_p,
            eh=sm.LinearEh(eta), cost=sm.ExpCost(beta),
        )
        cf = sic_sumrate_closed_form(params)
        rep = sic_sumrate_numeric(params)
        assert not cf.noise_warning
        assert cf.sum_rate == pytest.approx(rep.sum_rate, abs=1e-6)
        assert cf.rho_opt == pytest.approx(rep.rho_opt, abs=1e-5)


def test_closed_form_weak_user_limit_recovers_the_joint_form():
    # as the second user's received power vanishes the optimum collapses to
    # the single-stream balance point
    params = iv_classical(
        sm.ExpCost(1e-3), eh=sm.LinearEh(1.0), p2=1e-10
    )
    cf = sic_sumrate_closed_form(params)
    rho_joint, sum_joint = simul_closed_form(params)
    assert cf.rho_opt == pytest.approx(rho_joint, abs=1e-6)
    assert cf.sum_rate == pytest.approx(sum_joint, abs=1e-6)


def test_closed_form_equal_users_swap_invariant():
    params = iv_classical(sm.ExpCost(1e-3), eh=sm.LinearEh(0.8))
    cf = sic_sumrate_closed_form(params)
    cfs = sic_sumrate_closed_form(params.swapped())
    assert cf.sum_rate == pytest.approx(cfs.sum_rate, abs=1e-12)
    assert cf.relabeled is False


def test_closed_form_noise_warning_threshold():
    quiet = iv_classical(sm.ExpCost(1e-3), eh=sm.LinearEh(1.0))  # n = n_p/1000
    assert sic_sumrate_closed_form(quiet).noise_warning is False
    loud = iv_classical(sm.ExpCost(1e-3), eh=sm.LinearEh(1.0), n=2e-5)
    assert sic_sumrate_closed_form(loud).noise_warning is True


def test_closed_form_flags_root_ordering_violations():
    # a very asymmetric pair with a large fee slope lands outside the regime
    # where the smaller quadratic root is the optimum
    params = sm.ClassicalParams(
        h1_sq=0.05, h2_sq=0.01, p1=1.0, p2=1.0, n=1e-9, n_p=1e-3,
        eh=sm.LinearEh(1.0), cost=sm.ExpCost(0.05),
    )
    with pytest.raises(RuntimeError, match="ordering"):
        sic_sumrate_closed_form(params)


def test_sum_at_rho_tags_rate_and_cost_limited_regimes():
    params = iv_classical(sm.ExpCost(1e-3))
    bp = sic_breakpoints(params, DecodingOrder.USER1_FIRST)
    starved, tag_lo = sm.sic_max_sum_at_rho(params, bp.rho_c * 0.5)
    assert tag_lo == "cost"
    rich, tag_hi = sm.sic_max_sum_at_rho(params, min(1.0, bp.rho_c * 1.05))
    assert tag_hi == "rate"
    assert rich > 0.0 and starved < rich


# ---------------------------------------------------------------------------
# the breakpoint memo
# ---------------------------------------------------------------------------


def _solves(params, fresh=False):
    """Everything a channel's breakpoints feed, as one repr; fresh gives
    each call its own copy of params, whose memo starts empty."""
    own = dataclasses.replace if fresh else (lambda p: p)
    return repr([
        [sic_breakpoints(own(params), order) for order in DecodingOrder],
        sic_sumrate_numeric(own(params)),
        sm.mdrb_sic(own(params), n_points=64),
    ])


@pytest.mark.parametrize("cost", [sm.ExpCost(1e-3), sm.LogCost(1e-3), sm.ConstCost(0.013)])
def test_warm_breakpoints_equal_cold_ones(cost, monkeypatch):
    params = iv_classical(cost, p1=0.7, p2=0.3)
    fresh = _solves(params, fresh=True)  # every solve from scratch
    cold = _solves(params)
    roots = count_calls(monkeypatch, cs, "_balance_root")
    warm = _solves(params)
    assert not roots
    assert warm == cold == fresh


@pytest.mark.parametrize(
    "key, value, twin", [("p2", -0.0, 0.0), ("p1", 1, 1.0), ("n", -0.0, 0.0)]
)
def test_equal_channels_each_get_their_own_answer(key, value, twin, monkeypatch):
    params = iv_classical(sm.ExpCost(1e-3), **{key: value})
    other = iv_classical(sm.ExpCost(1e-3), **{key: twin})
    assert params == other and hash(params) == hash(other)
    cold = _solves(params)
    _solves(other)  # fills its own memo, not params'
    roots = count_calls(monkeypatch, cs, "_balance_root")
    assert _solves(params) == cold
    assert not roots


def test_equal_orders_each_get_their_own_answer(monkeypatch):
    # a plain string compares and hashes equal to its DecodingOrder member
    params = iv_classical(sm.LogCost(1e-3))
    member = sic_breakpoints(params, DecodingOrder.USER2_FIRST)
    roots = count_calls(monkeypatch, cs, "_balance_root")
    text = sic_breakpoints(params, "user2_first")
    assert not roots  # the same streams, so the member's roots
    assert text.decoding_order == "user2_first"
    assert type(text.decoding_order) is str
    assert text == member


class _UnhashableLog(sm.LogCost):
    __hash__ = None


def test_unhashable_model_is_memoized(monkeypatch):
    params = iv_classical(_UnhashableLog(1e-3))
    twin = [sic_breakpoints(iv_classical(sm.LogCost(1e-3)), order) for order in DecodingOrder]
    cold = [sic_breakpoints(params, order) for order in DecodingOrder]
    roots = count_calls(monkeypatch, cs, "_balance_root")
    warm = [sic_breakpoints(params, order) for order in DecodingOrder]
    assert not roots
    assert warm == cold == twin


def test_infeasible_breakpoints_raise_on_every_call(monkeypatch):
    params = iv_classical(sm.ConstCost(0.025))  # above the 24 mW harvest ceiling
    roots = count_calls(monkeypatch, cs, "_balance_root")
    for _ in range(3):
        with pytest.raises(InfeasibleRegionError):
            sic_breakpoints(params, DecodingOrder.USER1_FIRST)
    assert len(roots) == 1  # the memo keeps the NaN root and raises from it


# ---------------------------------------------------------------------------
# each sum-rate solver reaches the largest sum on its own region
# ---------------------------------------------------------------------------

# a LogCost channel whose SIC optimum is the user2_first corner at rho_2, a
# sweep end that roundoff leaves a hair short of the pinned message's fee
_CORNER = sm.ClassicalParams(
    h1_sq=0.02290268995507196, h2_sq=0.011174713435384833,
    p1=0.36497462925405955, p2=0.18638664201711666, n=1e-6, n_p=1e-3,
    eh=iv_eh(), cost=sm.LogCost(beta=0.014207063522703638),
)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(classical_draws())
@example(_CORNER)
def test_each_sum_rate_reaches_the_largest_sum_on_its_region(params):
    def widest(curve):
        return float(np.max(curve.r1 + curve.r2))

    try:
        simul = sm.sumrate_simultaneous(params).sum_rate
    except InfeasibleRegionError:  # a fee the harvest never covers
        assume(False)
    assert simul >= widest(sm.mdrb_simultaneous(params)) - 1e-9
    assert sic_sumrate_numeric(params).sum_rate >= widest(sm.mdrb_sic(params)) - 1e-9


# ---------------------------------------------------------------------------
# the sweeps: their breakpoints, and parity with the per-family build
# ---------------------------------------------------------------------------

_SMOOTH = classical_draws().filter(lambda p: not isinstance(p.cost, sm.ConstCost))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_SMOOTH)
def test_every_sweep_starts_at_or_below_rho_c(params):
    """rho_1 <= rho_c and rho_2 <= rho_c in both orders, bit for bit.

    At every rho the two-message fee phi(b1) + phi(b2) is at least either
    single fee in floats (a nonnegative addend never rounds a sum down), so
    the rho_c residual psi(rho*a) - fee is at most each single-message one.
    All three bisections start on [0, 1] and halve at the same midpoints
    while they agree.  Where the rho_c residual is >= 0 so is the other, so
    at the first midpoint where they part the rho_c residual is < 0 and
    the other >= 0: rho_c ends above that midpoint, the other breakpoint
    at or below it, and neither leaves its bracket.
    """
    for order in DecodingOrder:
        try:
            bp = sic_breakpoints(params, order)
        except InfeasibleRegionError:  # a fee the harvest never covers
            continue
        assert bp.rho_1 <= bp.rho_c and bp.rho_2 <= bp.rho_c, order


def _ref_order_segments(params, order, n_points):
    """The parent's _order_segments: each sweep written out by hand."""
    eh, cost, a = params.eh, params.cost, params.a
    bp = sic_breakpoints(params, order)
    tag = order.value
    if isinstance(cost, sm.ConstCost):
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


def _ref_mdrb_sic(params, n_points=512):
    parts, errors = [], []
    for order in DecodingOrder:
        try:
            parts += _ref_order_segments(params, order, n_points)
        except InfeasibleRegionError as err:
            errors.append(str(err))
    if not any(len(part[2]) for part in parts):
        return BoundaryCurve(empty_reason="; ".join(errors))
    return frontier(*parts, hull=True)


def _ref_sic_sumrate_const(params):
    """The parent's indicator-fee enumerator."""
    if params.eh.eval(params.a) < params.cost.phi0:
        raise InfeasibleRegionError("single decoding fee unaffordable")
    candidates = [
        (rho[0], max(x + y for x, y in zip(r1, r2)), f"{tag['order']}:{tag['segment']}")
        for order in DecodingOrder
        for r1, r2, rho, tag in _ref_order_segments(params, order, 2)
    ]
    rho_opt, sum_rate, label = max(candidates, key=lambda c: c[1])
    return sm.SolveReport(
        rho_opt=rho_opt, sum_rate=sum_rate, residuals={"cost_balance_w": 0.0},
        notes={"order": label.split(":")[0], "branch": label, "cost_family": "const"},
    )


def _ref_sic_sumrate_numeric(params, scan=None):
    """The parent's smooth-fee enumerator, with its own sweep closure."""
    scan = scan or ScanConfig()
    eh, cost, a = params.eh, params.cost, params.a
    if isinstance(cost, sm.ConstCost):
        return _ref_sic_sumrate_const(params)

    def sweep(order, pin_user1):
        def f(rho, floor=-np.inf):
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
    return sm.SolveReport(
        rho_opt=rho_opt, sum_rate=sum_rate, residuals={"cost_balance_w": resid},
        notes={"order": tag, "grid_points": scan.grid_points, "branch": label, "r1": r1, "r2": r2},
    )


def _outcome(solve, params):
    """repr of solve(params), or the type and text of what it raised."""
    try:
        return repr(solve(params))
    except InfeasibleRegionError as err:
        return f"InfeasibleRegionError: {err}"


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(classical_draws())
@example(_CORNER)
@example(iv_classical(sm.ConstCost(0.008)))  # both fees affordable
@example(iv_classical(sm.ConstCost(0.013)))  # one fee
@example(iv_classical(sm.ConstCost(0.025)))  # none
def test_sweep_table_builds_what_the_per_family_code_built(params):
    assert _outcome(sic_sumrate_numeric, params) == _outcome(_ref_sic_sumrate_numeric, params)
    assert repr(sm.mdrb_sic(params)) == repr(_ref_mdrb_sic(params))


def _ref_breakpoints(params, order):
    """The parent's smooth-fee _breakpoints: every fee through both users'
    bounds."""
    cost = params.cost

    def fee(*users):
        def f(x):
            bounds = sic_rate_bounds(params, x, order)
            return sum(cost.eval(bounds[u]) for u in users)
        return f

    return (
        _balance_root(params, fee(0, 1)),
        _balance_root(params, fee(1)),
        _balance_root(params, fee(0)),
    )


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_SMOOTH)
@example(_CORNER)
def test_breakpoints_bound_only_the_users_they_charge(params):
    def cold(p, order):
        bp = sic_breakpoints(dataclasses.replace(p), order)
        return bp.rho_c, bp.rho_1, bp.rho_2

    for order in DecodingOrder:
        got, want = (
            _outcome(lambda p: solve(p, order), params)
            for solve in (cold, _ref_breakpoints)
        )
        assert got == want, order


# ---------------------------------------------------------------------------
# the pruned scan: the whole grid's answer from a fraction of its nodes
# ---------------------------------------------------------------------------

_PRESETS = {
    name: ingest_config(PRESETS[name]).classical
    for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b")
}
# LinCost fees on a saturated logistic harvester: each sweep objective is
# flat to roundoff over the top of its interval, where critical_points
# returns thousands of flat-bracket midpoints
_PLATEAUS = [
    iv_classical(sm.LinCost(0.02483012281629414), h1_sq=0.03560290984718517,
                 h2_sq=0.007198208518308677, p1=0.7493304582979747, p2=0.3735376463276865),
    iv_classical(sm.LinCost(0.007626647371716245), h1_sq=0.03269777486844022,
                 h2_sq=0.0008566566314024229, p1=0.8019969411396285, p2=0.23510779558593717),
]


@st.composite
def _plateau_draws(draw):
    """LinCost channels strong enough to saturate the logistic harvester."""
    h1, h2 = draw(st.floats(0.1, 0.2)), draw(st.floats(0.02, 0.2))
    return iv_classical(
        sm.LinCost(10.0 ** draw(st.floats(-2.5, -1.5))), h1_sq=h1 * h1, h2_sq=h2 * h2,
        p1=draw(st.floats(0.5, 1.0)), p2=draw(st.floats(0.1, 1.0)),
    )


def _scan_log(monkeypatch):
    """Per sic_sumrate_numeric call: the array nodes handed to _sweep, the
    runs of each critical_points call, and the number of roots of each."""
    log = {"nodes": 0, "runs": [], "roots": []}
    sweep, scan = sic._sweep, sic.critical_points

    def counted_sweep(params, streams, rho):
        if isinstance(rho, np.ndarray):
            log["nodes"] += rho.size
        return sweep(params, streams, rho)

    def logged_scan(f, lo, hi, runs=None):
        log["runs"].append(runs)
        log["roots"].append(len(roots := scan(f, lo, hi, runs=runs)))
        return roots

    monkeypatch.setattr(sic, "_sweep", counted_sweep)
    monkeypatch.setattr(sic, "critical_points", logged_scan)
    return log


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.one_of(classical_draws(), _plateau_draws()))
@example(_PRESETS["fig3a"])
@example(_PRESETS["fig3b"])
@example(_PRESETS["fig3c"])
@example(_PRESETS["fig3d"])
@example(_PRESETS["fig4a"])
@example(_PRESETS["fig4b"])
@example(_PLATEAUS[0])
@example(_PLATEAUS[1])
def test_pruned_scan_matches_the_whole_grid(params):
    assert _outcome(sic_sumrate_numeric, params) == _outcome(_ref_sic_sumrate_numeric, params)


@pytest.mark.parametrize("params", _PLATEAUS, ids=["plateau0", "plateau1"])
def test_pruned_scan_keeps_a_plateau_whole(params, monkeypatch):
    log = _scan_log(monkeypatch)
    got = repr(sic_sumrate_numeric(params))
    assert max(log["roots"]) > 1000  # the plateau's midpoints are scanned
    assert None not in log["runs"]  # without the whole-grid fallback
    assert got == repr(_ref_sic_sumrate_numeric(params))


@pytest.mark.parametrize(
    "params", [_PRESETS["fig4b"], _CORNER, _PLATEAUS[0]], ids=["fig4b", "corner", "plateau0"]
)
def test_a_failed_certificate_scans_every_whole_grid(params, monkeypatch):
    nodes = sic._nodes

    def optimistic(*args):  # every node value +inf: every cell is skipped
        *parts, value = nodes(*args)
        return (*parts, np.full_like(value, np.inf))

    monkeypatch.setattr(sic, "_nodes", optimistic)
    log = _scan_log(monkeypatch)
    got = repr(sic_sumrate_numeric(params))
    # nothing scanned, then the winner (an end) is below some skipped
    # cell's bound, so all four sweeps are scanned whole
    assert log["runs"] == [[]] * 4 + [None] * 4
    assert got == repr(_ref_sic_sumrate_numeric(params))


def _smooth_draws(count, seed=20260331):
    """Fixed channels drawn as classical_draws draws them, smooth fees only."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        h1, h2 = rng.uniform(0.02, 0.2, size=2)
        eh = iv_eh() if k % 2 else sm.LinearEh(rng.uniform(0.3, 1.0))
        family = (sm.ExpCost, sm.LogCost, sm.LinCost)[k % 3]
        out.append(sm.ClassicalParams(
            h1_sq=h1 * h1, h2_sq=h2 * h2, p1=rng.uniform(0.1, 1.0),
            p2=rng.uniform(0.1, 1.0), n=1e-6, n_p=1e-3, eh=eh,
            cost=family(10.0 ** rng.uniform(-3.2, -1.5)),
        ))
    return out


def test_the_scan_evaluates_a_tenth_of_the_grid(monkeypatch):
    """A silent return to whole-grid scans (say a certificate that always
    fails) shows here: each channel's four sweeps have 4 * 20001 steps."""
    whole = 4 * ScanConfig().grid_points
    log = _scan_log(monkeypatch)

    def nodes_of(params):
        log["nodes"], log["runs"] = 0, []
        sic_sumrate_numeric(params)
        assert None not in log["runs"], params  # no fallback
        return log["nodes"]

    for name in ("fig3a", "fig3b", "fig3c", "fig4a", "fig4b"):
        assert nodes_of(_PRESETS[name]) <= 0.1 * whole, name
    draws = _smooth_draws(20)
    assert sum(nodes_of(p) for p in draws) <= 0.1 * whole * len(draws)


# ---------------------------------------------------------------------------
# the batched scan: every stage of all four sweeps at once, bit for bit
# ---------------------------------------------------------------------------


def _ref_sweep(params, order, pin_user1, rho):
    """The per-sweep scan's _sweep: both bounds through sic_rate_bounds."""
    b1, b2 = sic_rate_bounds(params, rho, order)
    pinned, cap = (b1, b2) if pin_user1 else (b2, b1)
    return pinned, params.eh.eval(rho * params.a) - params.cost.eval(pinned), cap


def _ref_sum_rate(params, pinned, left, cap):
    return np.where(left < 0.0, -np.inf, pinned + params.cost.rate_cap(left, cap))


def _ref_objective(params, order, pin_user1):
    def f(rho, floor=-np.inf):
        pinned, left, cap = _ref_sweep(params, order, pin_user1, rho)
        return _ref_sum_rate(params, pinned, np.maximum(left, floor), cap)

    return f


def _ref_nodes(params, sweep, n, k):
    order, _, pin_user1, lo, hi = sweep
    pinned, left, cap = _ref_sweep(params, order, pin_user1, lo + (hi - lo) / n * k)
    return k, pinned, left, cap, _ref_sum_rate(params, pinned, left, cap)


def _ref_cell_bounds(params, nodes):
    _, pinned, left, cap, _ = nodes
    bound = pinned[:-1] + params.cost.rate_cap(left[1:], cap[:-1])
    return bound + sic._SLACK * np.abs(bound)


def _ref_refined(params, sweep, n, nodes, live, stride):
    k = nodes[0]
    first, last = k[:-1][live], k[1:][live]
    new = first[:, None] + np.arange(stride, int(np.max(last - first, initial=0)), stride)
    new = new[new < last[:, None]]
    if not new.size:
        return nodes
    order = np.argsort(np.concatenate([k, new]))
    return tuple(np.concatenate([old, add])[order]
                 for old, add in zip(nodes, _ref_nodes(params, sweep, n, new)))


def _ref_live_runs(k, live, n):
    edges = np.flatnonzero(np.diff(np.concatenate(([0], live.astype(np.int8), [0]))))
    return [(max(int(k[a]) - sic._PAD, 0), min(int(k[b]) + sic._PAD, n))
            for a, b in zip(edges[::2], edges[1::2])]


def _ref_sweep_candidates(params, sweeps):
    """The per-sweep _sweep_candidates: each stage evaluated sweep by sweep."""
    n = ScanConfig().grid_points
    fs = [_ref_objective(params, order, pin) for order, _, pin, _, _ in sweeps]
    ends = [f(np.array([lo, hi]), 0.0) for f, (*_, lo, hi) in zip(fs, sweeps)]
    grids = [_ref_nodes(params, sweep, n, np.array([0, n])) for sweep in sweeps]
    for stride in sic._STRIDES:
        best = np.max(np.concatenate(ends + [value for *_, value in grids]))
        grids = [_ref_refined(params, sweep, n, g, ~(_ref_cell_bounds(params, g) < best), stride)
                 for sweep, g in zip(sweeps, grids)]
    best = np.max(np.concatenate(ends + [value for *_, value in grids]))
    bounds = [_ref_cell_bounds(params, g) for g in grids]
    skip = [b < best for b in bounds]

    def scan(runs):
        out = []
        for (order, segment, pin, lo, hi), f, run in zip(sweeps, fs, runs):
            rhos = [lo, hi] + (critical_points(f, lo, hi, runs=run) if hi > lo else [])
            floor = np.where(np.arange(len(rhos)) < 2, 0.0, -np.inf)
            out += [(float(rho), float(val), order, segment, pin)
                    for rho, val in zip(rhos, f(np.array(rhos), floor))]
        return out

    candidates = scan([_ref_live_runs(k, ~s, n) for (k, *_), s in zip(grids, skip)])
    winner = max(c[1] for c in candidates)
    if all(np.all(b[s] < winner) for b, s in zip(bounds, skip)):
        return candidates
    return scan([None] * len(sweeps))


def _sweeps_of(params):
    """The four smooth sweeps sic_sumrate_numeric hands the scan."""
    return [
        (order, segment, pin_user1, getattr(bp, start), bp.rho_c)
        for order in DecodingOrder
        for bp in [sic_breakpoints(params, order)]
        for pin_user1, segment, start in _SWEEPS
    ]


def _scanned(module, sweep, scan, params):
    """(repr of scan's candidates, array nodes it hands module's sweep)."""
    nodes = [0]
    evaluate = getattr(module, sweep)

    def counted(*args):
        if isinstance(args[-1], np.ndarray):
            nodes[0] += args[-1].size
        return evaluate(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, sweep, counted)
        return repr(scan(params, _sweeps_of(params))), nodes[0]


def _batch_is_per_sweep(params):
    """The batched scan finds the per-sweep scan's candidates, bit for bit,
    from the same number of nodes."""
    return _scanned(sic, "_sweep", sic._sweep_candidates, params) == _scanned(
        sys.modules[__name__], "_ref_sweep", _ref_sweep_candidates, params)


# the six presets but fig3d, whose indicator fee has no sweeps
_SMOOTH_PRESETS = [p for p in _PRESETS.values() if not isinstance(p.cost, sm.ConstCost)]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_SMOOTH)
@example(_PRESETS["fig3a"])
@example(_PRESETS["fig3b"])
@example(_PRESETS["fig3c"])
@example(_PRESETS["fig4a"])
@example(_PRESETS["fig4b"])
@example(_CORNER)
@example(_PLATEAUS[0])
@example(_PLATEAUS[1])
def test_the_batched_scan_finds_the_per_sweep_candidates(params):
    assert _batch_is_per_sweep(params)


def test_the_batched_scan_matches_on_avx2_level_dispatch():
    """The batch gives each node the bits its sweep alone would get, since
    numpy's elementwise kernels do not depend on where an element sits in
    an array; rerun the parity check on AVX2-level numpy dispatch, which
    NPY_DISABLE_CPU_FEATURES sets for the child process only."""
    child = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from numpy._core._multiarray_umath import __cpu_features__ as cpu\n"
        "import test_classical_sic as t\n"
        "channels = t._SMOOTH_PRESETS + [t._CORNER] + t._smooth_draws(6)\n"
        "print(cpu['X86_V4'], [t._batch_is_per_sweep(p) for p in channels].count(False))\n"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=str(pathlib.Path(sm.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", child, str(pathlib.Path(__file__).parent)],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "0"], out.stderr


# ---------------------------------------------------------------------------
# balance roots shared by both schemes
# ---------------------------------------------------------------------------


def _ref_root(params, fee):
    """A balance root on the checked evaluation, as every solver took it."""
    def resid(x):
        return params.eh.eval(x * params.a) - fee(x)

    if resid(0.0) >= 0.0:
        return 0.0
    return bisect_root(resid, 0.0, 1.0, RootConfig(abs_tol=1e-14, max_iter=200))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_SMOOTH)
@example(_CORNER)
def test_simul_single_user_roots_are_sics_clean_bound_roots(params):
    cost = params.cost
    cold = dataclasses.replace  # each root solved on its own copy
    simul = simul_breakpoints(cold(params))
    first = sic_breakpoints(cold(params), DecodingOrder.USER1_FIRST)
    second = sic_breakpoints(cold(params), DecodingOrder.USER2_FIRST)
    user1 = _ref_root(params, lambda x: cost.eval(sm.rate_bound_user1(params, x)))
    user2 = _ref_root(params, lambda x: cost.eval(sm.rate_bound_user2(params, x)))
    assert simul.rho_1.hex() == first.rho_1.hex() == user2.hex()
    assert simul.rho_2.hex() == second.rho_2.hex() == user1.hex()


def _all_four(params, fresh=False):
    """repr of the four classical solvers on params, errors included; fresh
    gives each solver its own copy of params, whose memo starts empty."""
    own = dataclasses.replace if fresh else (lambda p: p)
    return [_outcome(solve, own(params)) for solve in (
        sm.sumrate_simultaneous, sic_sumrate_numeric, sm.mdrb_simultaneous, sm.mdrb_sic)]


@pytest.mark.parametrize("params, most", [
    *((p, 7) for p in _smooth_draws(6)),
    (_PRESETS["fig4b"], 7),
    (iv_classical(sm.ConstCost(0.008)), 2),  # both fees affordable
    (iv_classical(sm.ConstCost(0.013)), 2),  # the single fee only
])
def test_each_channel_solves_each_balance_root_once(params, most, monkeypatch):
    params = dataclasses.replace(params)  # an empty memo
    calls = count_calls(monkeypatch, cs, "_balance_root")
    _all_four(params)
    assert len(calls) <= most


@pytest.mark.parametrize("params", [
    *_smooth_draws(6),
    _PRESETS["fig4b"],
    iv_classical(sm.ConstCost(0.008)),  # both fees affordable
    iv_classical(sm.ConstCost(0.013)),  # the double fee is not
])
def test_each_bracket_end_is_evaluated_once_per_root(params, monkeypatch):
    params = dataclasses.replace(params)  # an empty memo
    evals = []  # the residual's abscissae, one list per root
    fee_of = cs._fee

    def recorded(p, streams):
        fee, xs = fee_of(p, streams), []
        evals.append(xs)

        def f(x):
            xs.append(x)
            return fee(x)

        return f

    monkeypatch.setattr(cs, "_fee", recorded)
    _all_four(params)
    roots = list(params._memo.values())  # in the order they were solved
    assert len(roots) == len(evals) > 0
    for rho, xs in zip(roots, evals):
        assert xs[:2] == [0.0, 1.0]
        if math.isnan(rho):  # no sign change: resid(0) tells 0.0 from NaN
            assert xs[2:] == [0.0]
        else:
            assert all(0.0 < x < 1.0 for x in xs[2:]), rho


@pytest.mark.parametrize("simul_first", [True, False])
def test_each_scheme_keeps_its_infeasibility_message(simul_first):
    params = iv_classical(sm.ConstCost(0.025))  # above the 24 mW harvest ceiling
    joint = "harvest cannot cover the joint decoding cost at any PS factor"
    single = "harvest cannot cover the single decoding cost at any PS factor"
    want = {
        "simul": [f"InfeasibleRegionError: {joint}", repr(joint),
                  f"InfeasibleRegionError: {joint}"],
        "sic": [f"InfeasibleRegionError: {single}", repr(f"{single}; {single}"),
                "InfeasibleRegionError: single decoding fee unaffordable"],
    }
    solves = {
        "simul": (sm.sumrate_simultaneous, lambda p: sm.mdrb_simultaneous(p).empty_reason,
                  simul_breakpoints),
        "sic": (lambda p: sic_breakpoints(p, DecodingOrder.USER2_FIRST),
                lambda p: sm.mdrb_sic(p).empty_reason, sic_sumrate_numeric),
    }
    for scheme in ("simul", "sic") if simul_first else ("sic", "simul"):
        got = [_outcome(solve, params) for solve in solves[scheme]]
        assert got == want[scheme], scheme


@pytest.mark.parametrize("params", [
    _PRESETS["fig4b"], _CORNER, iv_classical(sm.LinCost(2e-3)), iv_classical(sm.ConstCost(0.008)),
], ids=["fig4b", "corner", "lin", "const"])
def test_warm_shared_roots_equal_cold_ones(params, monkeypatch):
    params = dataclasses.replace(params)  # an empty memo
    fresh = _all_four(params, fresh=True)  # every root solved afresh
    cold = _all_four(params)
    roots = count_calls(monkeypatch, cs, "_balance_root")
    warm = _all_four(params)
    assert not roots
    assert warm == cold == fresh


# ---------------------------------------------------------------------------
# the slacks: parity with the removed predicate, and every region point
# ---------------------------------------------------------------------------


def _ref_sic_feasible(params, r1, r2, rho, order, tol=1e-12):
    """The removed sic_feasible, on (r1, r2, rho) for its RatePoint."""
    if min(r1, r2, rho) < 0 or rho > 1:
        return False
    b1, b2 = sic_rate_bounds(params, rho, order)
    if r1 > b1 + tol or r2 > b2 + tol:
        return False
    cost = params.cost
    used = cost.eval(r1) + cost.eval(r2)
    return used <= params.eh.eval(rho * params.a) + tol


def _ref_sic_terms(params, r1, r2, rho, order):
    """Each comparison of the removed predicate as (bound, what it bounds)."""
    b1, b2 = sic_rate_bounds(params, rho, order)
    cost = params.cost
    return {
        "rate1_bits": (b1, r1),
        "rate2_bits": (b2, r2),
        "fee_w": (params.eh.eval(rho * params.a), cost.eval(r1) + cost.eval(r2)),
    }


@st.composite
def _sic_cases(draw):
    """A channel, a decoding order and (r1, r2, rho) points, each anywhere
    or within 2 ulps of a bound: a rate bound, or the two fees' (the
    indicator fee's at zero rates)."""
    params, order = draw(classical_draws()), draw(st.sampled_from(DecodingOrder))
    points = []
    for _ in range(draw(st.integers(1, 8))):
        rho = draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
        frac, ulps = draw(st.floats(0.0, 1.0)), draw(st.integers(-2, 2))
        b1, b2 = sic_rate_bounds(params, rho, order)
        first = frac * fee_cap(params, rho)
        left = params.eh.eval(rho * params.a) - params.cost.eval(first)
        second = params.cost.inverse(max(left, 0.0))
        second = second if isinstance(second, float) else 0.0
        points.append(draw(st.sampled_from((
            (draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)), rho),
            (nudge(b1, ulps), frac * b2, rho),
            (frac * b1, nudge(b2, ulps), rho),
            (first, nudge(second, ulps), rho),
            (nudge(second, ulps), first, rho),
        ))))
    return params, order, points


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_sic_cases())
def test_sic_slacks_match_the_removed_predicate(case):
    params, order, points = case
    check_slack_parity(
        lambda *p: sic_slacks(*p, order),
        lambda *p: _ref_sic_feasible(*p[:4], order, p[4]),
        lambda *p: _ref_sic_terms(*p, order),
        params, points,
    )


def _worst_slacks(params, scheme, n_points=512):
    """The smallest slack of each constraint over every point of the
    "simul" or "sic" region, axis intercepts included; each SIC point in
    the decoding order its label names."""
    if scheme == "simul":
        curve = sm.mdrb_simultaneous(params, n_points)
        slacks = simul_slacks(params, curve.r1, curve.r2, curve.rho)
        return {k: float(v.min(initial=np.inf)) for k, v in slacks.items()}
    worst = {}
    curve = sm.mdrb_sic(params, n_points)
    orders = np.array([curve.labels[k]["order"] for k in curve.label.tolist()], dtype=object)
    for order in DecodingOrder:
        at = orders == order.value
        for k, v in sic_slacks(params, curve.r1[at], curve.r2[at], curve.rho[at], order).items():
            worst[k] = min(worst.get(k, np.inf), float(v.min(initial=np.inf)))
    return worst


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(classical_draws())
def test_every_region_point_meets_its_own_constraints(params):
    for scheme in ("simul", "sic"):
        for name, worst in _worst_slacks(params, scheme).items():
            assert worst >= -1e-9, f"{scheme} {name}"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10: at huge powers the breakpoints lose the decoder share 1 - rho",
)
@pytest.mark.parametrize(
    "scheme, cost, power",
    [
        ("simul", sm.LogCost(1e-3), 5e7),
        ("simul", sm.ExpCost(1e-3), 5e11),
        ("sic", sm.ExpCost(1e-3), 5e11),
        ("sic", sm.LogCost(1e-3), 5e11),
    ],
    ids=["log", "exp", "sic-exp", "sic-log"],
)
def test_region_points_meet_their_constraints_at_huge_powers(scheme, cost, power):
    # the fig3b channel at p1 = p2 = power: SD LogCost points overshoot the
    # sum bound by 2.08e-4 bits, SD ExpCost ones the harvest by 1.37e-5 W;
    # SIC points overspend the harvest by 1.37e-5 W (ExpCost) and 2.47e-4 W
    # (LogCost)
    params = iv_classical(cost, p1=power, p2=power)
    for name, worst in _worst_slacks(params, scheme).items():
        assert worst >= -1e-9, name


# ---------------------------------------------------------------------------
# monotone directions: a dearer fee or a noisier decoder never helps
# ---------------------------------------------------------------------------


def _sum_rate_or_zero(solve, params):
    try:
        return solve(params).sum_rate
    except InfeasibleRegionError:
        return 0.0


def _raised(params, what, k=1.05):
    """params with its fee level (what="fee") or n_p raised k-fold."""
    if what == "n_p":
        return dataclasses.replace(params, n_p=k * params.n_p)
    level = dataclasses.fields(params.cost)[0].name
    cost = dataclasses.replace(params.cost, **{level: k * getattr(params.cost, level)})
    return dataclasses.replace(params, cost=cost)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(classical_draws())
def test_a_dearer_fee_or_a_noisier_decoder_never_raises_a_sum_rate(params):
    """Raising the fee level or n_p by 5% lowers both sum rates, up to
    roundoff of the 1e-14 root tolerance.  Over 660 draws the worst rise
    was 1.4e-14 bits (SD, n_p), and every fee raise on a feasible channel
    lowered both sum rates by at least 7.8e-5 bits.

    A single transmit power or gain is left out on purpose: it is not a
    monotone direction for SIC.  Powers are fixed, so a stronger user 1
    interferes more with user 2 when user 2 is decoded first; when that
    order wins, the SIC sum rate falls (by up to 1.7e-2 bits when p1 alone
    rose 5%), and oracle_sic_sumrate falls with it."""
    for solve in (sm.sumrate_simultaneous, sic_sumrate_numeric):
        base = _sum_rate_or_zero(solve, params)
        for what in ("fee", "n_p"):
            rise = _sum_rate_or_zero(solve, _raised(params, what)) - base
            assert rise <= 1e-11, (solve.__name__, what, rise)
