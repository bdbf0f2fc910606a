"""Shared parameter builders and slack checks for the test suite.

The default numbers mirror the simulation setup used throughout: distance-3
links with square-law pathloss (power gain 3^-4 per link), 0.5 W transmit
powers, -60 dBW antenna noise, -30 dBW processing noise, and the saturating
rectifier fitted at q1=1500, q2=0.0022, 24 mW ceiling.
"""

import math

import numpy as np
from hypothesis import strategies as st

import swipt_mac as sm

H_SQ_IV = 3.0 ** -4.0  # power gain of each user->destination link


def iv_eh():
    return sm.LogisticEh(q1=1500.0, q2=0.0022, p_max_dc=0.024)


def iv_classical(cost, eh=None, **over):
    kv = dict(
        h1_sq=H_SQ_IV,
        h2_sq=H_SQ_IV,
        p1=0.5,
        p2=0.5,
        n=1e-6,
        n_p=1e-3,
        eh=eh or iv_eh(),
        cost=cost,
    )
    kv.update(over)
    return sm.ClassicalParams(**kv)


def iv_coop(h_u, beta, eh=None, **over):
    """Cooperation network on the same destination links; h_u is the
    inter-user amplitude (both directions), beta the common fee slope."""
    kv = dict(
        h1=3.0 ** -2.0,
        h2=3.0 ** -2.0,
        h12=h_u,
        h21=h_u,
        n1=1e-6,
        n2=1e-6,
        n=1e-6,
        n_p=1e-3,
        p_u1_budget=0.5,
        p_u2_budget=0.5,
        eh=eh or iv_eh(),
        cost_dest=sm.ExpCost(beta=beta),
        cost_user1=sm.ExpCost(beta=beta),
        cost_user2=sm.ExpCost(beta=beta),
    )
    kv.update(over)
    return sm.CoopParams(**kv)


@st.composite
def classical_draws(draw):
    """Channels drawn as the classical benchmark and acceptance criterion 8
    draw them: Exp, Log, Lin or Const fees at levels 10^[-3.2, -1.5],
    either harvester."""
    h1, h2 = draw(st.floats(0.02, 0.2)), draw(st.floats(0.02, 0.2))
    eh = draw(st.one_of(st.just(iv_eh()), st.floats(0.3, 1.0).map(sm.LinearEh)))
    family = draw(st.sampled_from((sm.ExpCost, sm.LogCost, sm.LinCost, sm.ConstCost)))
    return sm.ClassicalParams(
        h1_sq=h1 * h1, h2_sq=h2 * h2,
        p1=draw(st.floats(0.1, 1.0)), p2=draw(st.floats(0.1, 1.0)),
        n=1e-6, n_p=1e-3, eh=eh, cost=family(10.0 ** draw(st.floats(-3.2, -1.5))),
    )


def count_calls(monkeypatch, module, name):
    """A list that gains the arguments of every later call of module.name."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def nudge(x, ulps):
    """x moved by ulps units in the last place, floored at 0.0."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return max(x, 0.0)


def fee_cap(params, rho):
    """The largest rate whose fee the harvest at rho covers, as a float:
    the indicator fee's bound sits at a zero rate."""
    cap = params.cost.inverse(params.eh.eval(rho * params.a))
    return cap if isinstance(cap, float) else 0.0


def ulp_scale(params, terms):
    """Per constraint, the magnitude whose last bits the array path may
    move: the larger term, or for a logistic harvest its ceiling, which
    the normalised logistic subtracts a share of."""
    ceiling = getattr(params.eh, "p_max_dc", 0.0)
    return {
        k: max(abs(bound), abs(used), ceiling if k == "fee_w" else 0.0)
        for k, (bound, used) in terms.items()
    }


def check_slack_parity(slacks_of, feasible, terms_of, params, points):
    """Scalar slacks are the predicate's own differences, bit for bit, and
    give its verdict at every tolerance; array slacks stay within 4 ulps."""
    scalar, scale = [], []
    for point in points:
        slacks, terms = slacks_of(params, *point), terms_of(params, *point)
        assert list(slacks) == list(terms)
        for k, (bound, used) in terms.items():
            assert type(slacks[k]) is float and slacks[k].hex() == (bound - used).hex(), k
        for tol in (0.0, 1e-12, 1e-9):
            assert all(v >= -tol for v in slacks.values()) == feasible(params, *point, tol)
        scalar.append(slacks)
        scale.append(ulp_scale(params, terms))
    columns = [np.array(c) for c in zip(*points)]
    for k, got in slacks_of(params, *columns).items():
        want = np.array([s[k] for s in scalar])
        room = 4.0 * np.spacing(np.array([s[k] for s in scale]))
        assert np.all(np.abs(got - want) <= room), k
