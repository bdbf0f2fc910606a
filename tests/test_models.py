"""EH curves, decoding-cost families, and parameter-record validation."""

import math
import warnings

import numpy as np
import pytest

import swipt_mac as sm
from swipt_mac.models import (
    ModelDomainError,
    NoInverseError,
    SaturationError,
    _expit_array,
)

from conftest import iv_classical, iv_coop, iv_eh

_LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# logistic rectifier
# ---------------------------------------------------------------------------


def test_logistic_zero_in_zero_out_bitwise():
    assert iv_eh().eval(0.0) == 0.0


def test_logistic_monotone_below_ceiling():
    eh = iv_eh()
    p = np.linspace(0.0, 0.05, 500)
    y = eh.eval(p)
    assert np.all(np.diff(y) >= 0.0)
    assert np.all(y <= eh.p_max_dc)
    # strictly below the ceiling while the exponential still resolves
    mid = p <= 0.015
    assert np.all(y[mid] < eh.p_max_dc)
    # deep saturation closes in on the ceiling
    assert eh.eval(1.0) > eh.p_max_dc - 1e-6


def test_logistic_inverse_round_trip():
    eh = iv_eh()
    for p in np.logspace(-5.0, -2.0, 40):
        assert eh.inverse(eh.eval(float(p))) == pytest.approx(p, rel=1e-9)
    # near saturation the inverse is ill-conditioned; accuracy degrades but
    # stays usable
    for p in (0.0158, 0.019):
        assert eh.inverse(eh.eval(p)) == pytest.approx(p, rel=1e-4)


def test_logistic_inverse_domain_edges():
    eh = iv_eh()
    assert eh.inverse(0.0) == 0.0
    with pytest.raises(SaturationError):
        eh.inverse(eh.p_max_dc)
    with pytest.raises(SaturationError):
        eh.inverse(eh.p_max_dc * 1.5)
    # just below the ceiling stays invertible (large but finite input)
    assert math.isfinite(eh.inverse(eh.p_max_dc * (1.0 - 1e-9)))


def test_logistic_vector_eval_matches_scalar():
    eh = iv_eh()
    p = np.linspace(0.0, 0.03, 61)
    vec = eh.eval(p)
    for pi, yi in zip(p, vec):
        assert yi == pytest.approx(eh.eval(float(pi)), rel=1e-12, abs=1e-18)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_logistic_array_kernel_is_bitwise_scipy_expit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20260331)
    tiny = np.finfo(float).smallest_subnormal
    edges = np.array([
        0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
        -709.0, np.nextafter(-709.0, 0.0), np.nextafter(-709.0, -1.0),
        -709.5, -709.78, -709.79, -709.8, -710.0, -745.2, -746.0, -1e308,
        -np.inf, 36.0, 37.0, 709.0, 745.2, 746.0, 1e308, np.inf,
    ])
    x = np.concatenate([
        edges,
        rng.uniform(-709.79, -709.0, 20_000),  # glibc rescales cexp here
        rng.uniform(-800.0, 800.0, 200_000),
        rng.normal(0.0, 8.0, 200_000),
        rng.uniform(-1e-300, 1e-300, 1_000),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _expit_array(x, float(x.min()))
        want = special.expit(x)
    assert np.array_equal(_bits(got), _bits(want))
    # a bound above -709 skips the scalar pass and changes nothing there
    calm = x[x >= -709.0]
    assert np.array_equal(_bits(_expit_array(calm, -709.0)), _bits(special.expit(calm)))


def test_logistic_eval_is_bitwise_scipy_formula():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20260808)
    # q1*q2 = 1500 puts the logistic's argument below -709 near p = 0
    for eh in (iv_eh(), sm.LogisticEh(q1=1.5e6, q2=1e-3, p_max_dc=0.024)):
        p = np.concatenate([[0.0, 5e-324, eh.q2], rng.uniform(0.0, 0.05, 50_000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eh.eval(p)
            raw = special.expit(eh.q1 * (p - eh.q2))
        want = eh.p_max_dc * (raw - eh.theta) / (1.0 - eh.theta)
        assert np.array_equal(_bits(got), _bits(want))
        zero_d = eh.eval(np.array(p[-1]))
        assert type(zero_d) is float and zero_d == got[-1]


def test_logistic_inverse_is_bitwise_scipy_logit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20260909)

    def scipy_inverse(eh, p_dc):
        raw = (p_dc * (1.0 - eh.theta)) / eh.p_max_dc + eh.theta
        with np.errstate(divide="ignore"):
            return eh.q2 + float(special.logit(raw)) / eh.q1

    eh = iv_eh()
    for p_dc in rng.uniform(0.0, eh.p_max_dc, 50_000):
        assert _bits(eh.inverse(p_dc)) == _bits(scipy_inverse(eh, p_dc))
    # theta = 0 and p_max_dc = 1 make the logit's argument p_dc itself, so
    # both sides of both switch points (0.3 and 0.65) are reached exactly
    unit = sm.LogisticEh(q1=1e6, q2=1e-3, p_max_dc=1.0)
    assert unit.theta == 0.0
    edges = [v for e in (0.3, 0.65) for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))]
    edges += [1e-300, 0.5, np.nextafter(1.0, 0.0)]
    for p_dc in map(float, edges + list(rng.uniform(0.0, 1.0, 20_000))):
        assert (p_dc * (1.0 - unit.theta)) / unit.p_max_dc + unit.theta == p_dc
        assert _bits(unit.inverse(p_dc)) == _bits(scipy_inverse(unit, p_dc))
    # the logit's argument rounds to 0 (theta = 0) or to 1 (theta = 1/2)
    # inside the domain, and the inverse is -inf or inf as with scipy
    ends = (
        (sm.LogisticEh(q1=1e6, q2=1e-3, p_max_dc=2.0), 5e-324, -math.inf),
        (sm.LogisticEh(q1=1.0, q2=0.0, p_max_dc=1.0), float(np.nextafter(1.0, 0.0)), math.inf),
    )
    for eh, p_dc, want in ends:
        assert eh.inverse(p_dc) == scipy_inverse(eh, p_dc) == want


def test_linear_eh_round_trip_and_no_inverse_at_zero_efficiency():
    eh = sm.LinearEh(eta=0.35)
    assert eh.eval(0.2) == pytest.approx(0.07)
    assert eh.inverse(eh.eval(0.2)) == pytest.approx(0.2, rel=1e-12)
    dead = sm.LinearEh(eta=0.0)
    assert dead.eval(0.2) == 0.0
    with pytest.raises(NoInverseError):
        dead.inverse(0.01)


# ---------------------------------------------------------------------------
# decoding-cost families
# ---------------------------------------------------------------------------


def test_smooth_costs_vanish_at_zero_rate_and_invert():
    for cost in (sm.ExpCost(beta=2e-3), sm.LogCost(beta=2e-3), sm.LinCost(beta=2e-3)):
        assert cost.eval(0.0) == 0.0
        for r in np.linspace(1e-6, 4.0, 37):
            assert cost.inverse(cost.eval(float(r))) == pytest.approx(r, rel=1e-11)


def test_exp_cost_small_rate_precision():
    # the log1p/expm1 pairing keeps the round trip exact down to tiny rates
    cost = sm.ExpCost(beta=1e-3)
    for r in (1e-12, 1e-9, 1e-6):
        assert cost.inverse(cost.eval(r)) == pytest.approx(r, rel=1e-9)


def test_exp_convex_log_concave_lin_additive():
    r = np.linspace(0.0, 3.0, 301)
    exp_y = sm.ExpCost(beta=1e-3).eval(r)
    log_y = sm.LogCost(beta=1e-3).eval(r)
    assert np.all(np.diff(exp_y, 2) >= -1e-15)
    assert np.all(np.diff(log_y, 2) <= 1e-15)
    lin = sm.LinCost(beta=1e-3)
    assert lin.eval(1.3) + lin.eval(0.9) == pytest.approx(lin.eval(2.2), rel=1e-12)


def test_const_cost_fee_semantics():
    cost = sm.ConstCost(phi0=0.013)
    assert cost.eval(0.0) == 0.0
    assert cost.eval(1e-12) == 0.013
    assert cost.eval(2.5) == 0.013
    # generalized inverse: nothing affordable below the fee, everything above
    assert cost.inverse(0.012) == 0.0
    assert cost.inverse(0.013) is sm.UNBOUNDED
    assert cost.inverse(0.5) is sm.UNBOUNDED


def test_unbounded_sentinel_refuses_arithmetic():
    u = sm.ConstCost(phi0=0.01).inverse(0.02)
    assert u is sm.UNBOUNDED
    with pytest.raises(TypeError):
        u + 1.0
    with pytest.raises(TypeError):
        min(1.0, u) < 2.0 and u * 2


def test_cost_rate_cap_matches_capped_inverse_elementwise():
    p = np.linspace(0.0, 0.05, 101)
    cap = 1.25
    for cost in (sm.ExpCost(beta=1e-3), sm.LogCost(beta=1e-3), sm.LinCost(beta=1e-3)):
        got = cost.rate_cap(p, cap)
        want = [min(cost.inverse(float(x)), cap) for x in p]
        assert np.allclose(got, want, atol=1e-14)


def test_cost_rate_cap_const_is_a_threshold():
    cost = sm.ConstCost(phi0=0.013)
    got = cost.rate_cap(np.array([0.0, 0.012, 0.013, 0.05]), 0.7)
    assert got.tolist() == [0.0, 0.0, 0.7, 0.7]


def test_log_cost_inverse_past_expm1_overflow_is_inf():
    # past expm1's overflow the fee bounds no rate: inf on both paths, with
    # no raise and no warning; finite values keep their bits
    cost = sm.LogCost(beta=1e-6)
    assert cost.inverse(1.0) == math.inf
    assert cost.rate_cap(np.array([1.0]), np.inf).tolist() == [math.inf]
    assert cost.rate_cap(np.array([1.0, 0.0]), 2.5).tolist() == [2.5, 0.0]
    p = np.array([0.0, 1e-7, 4e-4, 4.9e-4])  # expm1 arguments up to 340
    assert [cost.inverse(v) for v in p.tolist()] == [
        0.5 * math.expm1(_LOG2 * v / 1e-6) for v in p.tolist()
    ]
    assert cost.rate_cap(p, np.inf).tolist() == (0.5 * np.expm1(_LOG2 * p / 1e-6)).tolist()


@pytest.mark.parametrize("model", [
    iv_eh(), sm.LinearEh(eta=0.35), sm.ExpCost(beta=2e-3), sm.LogCost(beta=2e-3),
    sm.LinCost(beta=2e-3), sm.ConstCost(phi0=0.013),
], ids=lambda m: type(m).__name__)
def test_eval_is_the_unchecked_kernel_plus_checks(model):
    x = np.linspace(0.0, 0.05, 24).reshape(2, 12)
    assert np.array_equal(_bits(model.eval(x)), _bits(model.kernel(x)))
    x[1, 5] = -1e-12
    with pytest.raises(ModelDomainError):
        model.eval(x)
    model.kernel(x)  # trusted callers skip the check


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------


def test_classical_params_validation():
    with pytest.raises(ModelDomainError):
        iv_classical(sm.ExpCost(beta=1e-3), h1_sq=0.0)
    with pytest.raises(ModelDomainError):
        iv_classical(sm.ExpCost(beta=1e-3), p1=-0.1)
    with pytest.raises(ModelDomainError):
        iv_classical(sm.ExpCost(beta=1e-3), n_p=0.0)


def test_classical_received_power_includes_antenna_noise():
    p = iv_classical(sm.ExpCost(beta=1e-3))
    assert p.a == pytest.approx(p.h1_sq * p.p1 + p.h2_sq * p.p2 + p.n, rel=1e-15)


def test_classical_swap_is_an_involution():
    p = iv_classical(sm.ExpCost(beta=1e-3), p1=0.7, p2=0.2, h2_sq=0.02)
    q = p.swapped().swapped()
    assert (q.h1_sq, q.h2_sq, q.p1, q.p2) == (p.h1_sq, p.h2_sq, p.p1, p.p2)


def test_coop_params_validation_and_link_slopes():
    with pytest.raises(ModelDomainError):
        sm.CoopParams(
            h1=0.1, h2=0.1, h12=0.0, h21=0.01, n1=1e-6, n2=1e-6, n=1e-6,
            n_p=1e-3, p_u1_budget=0.5, p_u2_budget=0.5, eh=sm.LinearEh(eta=1.0),
            cost_dest=sm.ExpCost(beta=1e-3), cost_user1=sm.ExpCost(beta=1e-3),
            cost_user2=sm.ExpCost(beta=1e-3),
        )
    p = sm.CoopParams(
        h1=0.1, h2=0.1, h12=0.008, h21=0.002, n1=1e-6, n2=1e-6, n=1e-6,
        n_p=1e-3, p_u1_budget=0.5, p_u2_budget=0.5, eh=sm.LinearEh(eta=1.0),
        cost_dest=sm.ExpCost(beta=1e-3), cost_user1=sm.ExpCost(beta=1e-3),
        cost_user2=sm.ExpCost(beta=1e-3),
    )
    assert p.b == pytest.approx(64.0)
    assert p.c == pytest.approx(4.0)
    s = p.swapped()
    assert (s.b, s.c) == (p.c, p.b)
    assert (s.p_u1_budget, s.p_u2_budget) == (p.p_u2_budget, p.p_u1_budget)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected_at_construction(bad):
    constructors = (
        sm.ExpCost, sm.LogCost, sm.LinCost, sm.ConstCost, sm.LinearEh,
        lambda v: sm.LogisticEh(q1=v, q2=0.0022, p_max_dc=0.024),
        lambda v: sm.LogisticEh(q1=1500.0, q2=v, p_max_dc=0.024),
        lambda v: iv_classical(sm.ExpCost(beta=1e-3), p1=v),
        lambda v: iv_classical(sm.ExpCost(beta=1e-3), n=v),
        lambda v: iv_coop(0.008, 1e-3, p_u1_budget=v),
        lambda v: iv_coop(0.008, 1e-3, h12=v),
        lambda v: iv_coop(0.008, 1e-3, n_p=v),
    )
    for build in constructors:
        with pytest.raises(ModelDomainError):
            build(bad)
