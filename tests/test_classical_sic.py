"""Successive-cancellation region and sum rate, numeric and closed form."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import swipt_mac as sm
import swipt_mac.classical_sic as sic
from swipt_mac.classical_simul import simul_breakpoints, simul_closed_form, simul_slacks
from swipt_mac.classical_sic import (
    DecodingOrder,
    InfeasibleRegionError,
    sic_breakpoints,
    sic_rate_bounds,
    sic_slacks,
    sic_sumrate_closed_form,
    sic_sumrate_numeric,
)
from swipt_mac.numerics import ScanConfig
from swipt_mac.region import frontier

from conftest import check_slack_parity, classical_draws, fee_cap, iv_classical, iv_eh, nudge


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
    scan = ScanConfig(grid_points=20001, refine_iters=100)
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
        rep = sic_sumrate_numeric(params, scan)
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


def _solves(params):
    """Everything a channel's breakpoints feed, as one repr."""
    return repr([
        [sic_breakpoints(params, order) for order in DecodingOrder],
        sic_sumrate_numeric(params, ScanConfig(2001)),
        sm.mdrb_sic(params, n_points=64),
    ])


@pytest.mark.parametrize("cost", [sm.ExpCost(1e-3), sm.LogCost(1e-3), sm.ConstCost(0.013)])
def test_warm_breakpoints_equal_cold_ones(cost, monkeypatch):
    params = iv_classical(cost, p1=0.7, p2=0.3)
    with monkeypatch.context() as m:  # every solve from scratch
        m.setattr(sic, "_breakpoints", sic._breakpoints.__wrapped__)
        fresh = _solves(params)
    sic._breakpoints.cache_clear()
    cold = _solves(params)
    hits = sic._breakpoints.cache_info().hits
    warm = _solves(params)
    assert sic._breakpoints.cache_info().hits > hits
    assert warm == cold == fresh


@pytest.mark.parametrize(
    "key, value, twin", [("p2", -0.0, 0.0), ("p1", 1, 1.0), ("n", -0.0, 0.0)]
)
def test_equal_channels_each_get_their_own_answer(key, value, twin):
    params = iv_classical(sm.ExpCost(1e-3), **{key: value})
    other = iv_classical(sm.ExpCost(1e-3), **{key: twin})
    assert params == other and hash(params) == hash(other)
    sic._breakpoints.cache_clear()
    cold = _solves(params)
    sic._breakpoints.cache_clear()
    _solves(other)  # leaves the shared entry
    hits = sic._breakpoints.cache_info().hits
    assert _solves(params) == cold
    assert sic._breakpoints.cache_info().hits > hits


def test_equal_orders_each_get_their_own_answer():
    # a plain string compares and hashes equal to its DecodingOrder member
    params = iv_classical(sm.LogCost(1e-3))
    sic._breakpoints.cache_clear()
    member = sic_breakpoints(params, DecodingOrder.USER2_FIRST)
    text = sic_breakpoints(params, "user2_first")
    assert sic._breakpoints.cache_info().hits == 1
    assert text.decoding_order == "user2_first"
    assert type(text.decoding_order) is str
    assert text == member


def test_breakpoint_memo_stays_bounded():
    sic._breakpoints.cache_clear()
    size = sic._breakpoints.cache_info().maxsize
    for k in range(size):
        sic_sumrate_numeric(iv_classical(sm.ExpCost(1e-3), p1=0.3 + 0.05 * k), ScanConfig(201))
    assert sic._breakpoints.cache_info().currsize == size


class _UnhashableLog(sm.LogCost):
    __hash__ = None


def test_unhashable_model_is_solved_afresh():
    sic._breakpoints.cache_clear()
    params = iv_classical(_UnhashableLog(1e-3))
    for order in DecodingOrder:
        got = sic_breakpoints(params, order)
        assert got == sic_breakpoints(iv_classical(sm.LogCost(1e-3)), order)
        sic_breakpoints(params, order)
    info = sic._breakpoints.cache_info()
    assert (info.hits, info.misses) == (0, 2)  # the hashable twin's solves only


def test_infeasible_breakpoints_raise_on_every_call():
    params = iv_classical(sm.ConstCost(0.025))  # above the 24 mW harvest ceiling
    sic._breakpoints.cache_clear()
    for _ in range(3):
        with pytest.raises(InfeasibleRegionError):
            sic_breakpoints(params, DecodingOrder.USER1_FIRST)
    assert sic._breakpoints.cache_info().currsize == 0


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


def _worst_slacks(params, n_points=512):
    """The smallest slack of each constraint over every point of both
    regions, axis intercepts included; each SIC point in the decoding order
    its label names."""
    worst = {}
    curve = sm.mdrb_simultaneous(params, n_points)
    for k, v in simul_slacks(params, curve.r1, curve.r2, curve.rho).items():
        worst[f"simul {k}"] = float(v.min(initial=np.inf))
    curve = sm.mdrb_sic(params, n_points)
    orders = np.array([curve.labels[k]["order"] for k in curve.label.tolist()], dtype=object)
    for order in DecodingOrder:
        at = orders == order.value
        for k, v in sic_slacks(params, curve.r1[at], curve.r2[at], curve.rho[at], order).items():
            worst[f"sic {k}"] = min(worst.get(f"sic {k}", np.inf), float(v.min(initial=np.inf)))
    return worst


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(classical_draws())
def test_every_region_point_meets_its_own_constraints(params):
    for name, worst in _worst_slacks(params).items():
        assert worst >= -1e-9, name


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10: at huge powers the breakpoints lose the decoder share 1 - rho",
)
@pytest.mark.parametrize(
    "cost, power", [(sm.LogCost(1e-3), 5e7), (sm.ExpCost(1e-3), 5e11)], ids=["log", "exp"]
)
def test_region_points_meet_their_constraints_at_huge_powers(cost, power):
    # the fig3b channel at p1 = p2 = power: LogCost points overshoot the sum
    # bound by 2.08e-4 bits, ExpCost ones the harvest by 1.37e-5 W
    params = iv_classical(cost, p1=power, p2=power)
    curve = sm.mdrb_simultaneous(params)
    for k, v in simul_slacks(params, curve.r1, curve.r2, curve.rho).items():
        assert np.all(v >= -1e-9), k
