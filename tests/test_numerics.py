"""Scalar root finding and critical points of an array objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swipt_mac as sm
from swipt_mac.numerics import (
    _EPS,
    _FLAT_ULPS,
    BracketError,
    ConvergenceError,
    EvaluationError,
    RootConfig,
    ScanConfig,
)


def test_bisect_root_known_roots():
    r = sm.bisect_root(math.cos, 0.0, math.pi, RootConfig(abs_tol=1e-13, max_iter=200))
    assert r == pytest.approx(math.pi / 2.0, abs=1e-12)
    r = sm.bisect_root(lambda x: 3.0 * x - 1.2, -1.0, 2.0)
    assert r == pytest.approx(0.4, abs=1e-11)


def test_bisect_root_requires_a_sign_change():
    with pytest.raises(BracketError):
        sm.bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_root_reads_signs_at_any_scale():
    # below ~1e-162 in magnitude a product of two values underflows to
    # (-)0.0, so a product-based sign test picks the wrong half
    root = sm.bisect_root(lambda x: x - 0.3, 0.0, 1.0)
    for scale in (1e-150, 1e-170, 1e-300):
        assert sm.bisect_root(lambda x: (x - 0.3) * scale, 0.0, 1.0) == root
        with pytest.raises(BracketError):
            sm.bisect_root(lambda x: -(1.0 + x) * scale, 0.0, 1.0)


def test_bisect_root_rejects_nan_evaluations():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else x - 0.5

    with pytest.raises(EvaluationError):
        sm.bisect_root(f, 0.0, 1.0)


def test_bisect_root_raises_when_max_iter_runs_out():
    # five halvings leave [0, 1] at 1/32, far above abs_tol
    with pytest.raises(ConvergenceError):
        sm.bisect_root(lambda x: x - 0.3, 0.0, 1.0, RootConfig(abs_tol=1e-12, max_iter=5))
    # ... and a bracket the last halving closes is an answer
    r = sm.bisect_root(lambda x: x - 0.3, 0.0, 1.0, RootConfig(abs_tol=1.0 / 16, max_iter=5))
    assert abs(r - 0.3) < 1.0 / 32
    # a tolerance below the float spacing at the root (~1.1e-13) never closes
    with pytest.raises(ConvergenceError):
        sm.bisect_root(
            lambda x: -1.0 if x < 1000.3 else 1.0, 0.0, 2e3, RootConfig(abs_tol=1e-14)
        )


def test_root_config_validation():
    with pytest.raises(ValueError):
        RootConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        RootConfig(max_iter=0)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(grid_points=1)
    with pytest.raises(ValueError):
        ScanConfig(grid_points=2)


def test_critical_points_finds_interior_extrema():
    batch_sizes = []

    def sin(x):
        batch_sizes.append(np.size(x))
        return np.sin(x)

    pts = sm.critical_points(sin, 0.0, 3.0 * math.pi, ScanConfig(4001, 40))
    want = [math.pi / 2.0, 3.0 * math.pi / 2.0, 5.0 * math.pi / 2.0]
    assert len(pts) == len(want)
    for got, exp in zip(sorted(pts), want):
        assert got == pytest.approx(exp, abs=1e-6)
    # f is sampled in one batch on the grid_points+1 nodes (both sides of
    # every difference); only the bisection refinement calls f point by point
    assert [n for n in batch_sizes if n > 1] == [4002]


def test_critical_points_does_not_bisect_roundoff_noise():
    batch_sizes = []

    def plateau(x):
        batch_sizes.append(np.size(x))
        return (1.3 + x) - x  # constant up to one ulp of roundoff

    pts = sm.critical_points(plateau, 0.0, 1.0, ScanConfig(4001, 40))
    # the noise changes the derivative's sign many times; every bracket is
    # answered by its midpoint, without a scalar call
    assert len(pts) > 100
    assert batch_sizes == [4002]
    assert all(0.0 < x < 1.0 for x in pts)
    assert np.all(np.diff(pts) > 2.0 / 4001)


def _ref_critical_points(f, lo, hi, cfg):
    """critical_points as it was before the flatness test moved to the
    bracket ends: the test runs on every interior node."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    h = (hi - lo) / cfg.grid_points

    def df(x):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    nodes = lo + h * np.arange(cfg.grid_points + 1)
    xs = nodes[1:-1]
    roots = []
    with np.errstate(invalid="ignore"):
        samples = f(nodes)
        up, down = samples[2:], samples[:-2]
        d = (up - down) / (2.0 * h)
        flat = np.isfinite(d) & (
            np.abs(up - down)
            <= _FLAT_ULPS * _EPS * np.maximum(np.abs(up), np.abs(down))
        )
        prev, cur = d[:-1], d[1:]
        change = ~np.isnan(prev) & (
            (prev * cur < 0.0) | ((cur == 0.0) & (prev != 0.0))
        )
        for i in np.flatnonzero(change):
            lo_i, hi_i = float(xs[i]), float(xs[i + 1])
            if flat[i] and flat[i + 1]:
                r = 0.5 * (lo_i + hi_i)
            else:
                try:
                    r = sm.bisect_root(df, lo_i, hi_i)
                except BracketError:
                    continue
            if not roots or abs(r - roots[-1]) > 2.0 * h:
                roots.append(r)
    return roots


# piece kinds: smooth extrema, a plateau flat to roundoff, a tilt from well
# inside to well outside the roundoff band, exact zeros, -inf, a step, and
# noise exactly at the flatness threshold (1 - 2^-42 against 1.0)
_KINDS = ("wave", "plateau", "tilt", "zero", "-inf", "step", "ulps")


def _piecewise(cuts, pieces, nan_at):
    """f on pieces split at cuts; NaN exactly at the points nan_at."""

    def f(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        which = np.searchsorted(cuts, x, side="right")
        out = np.empty_like(x)
        for k, (kind, c, a, w) in enumerate(pieces):
            m = which == k
            t = x[m]
            if kind == "wave":
                v = c + a * np.sin(w * t)
            elif kind == "plateau":
                v = (c + t) - t
            elif kind == "tilt":
                v = c + a * 1e-12 * t
            elif kind == "zero":
                v = 0.0 * t
            elif kind == "-inf":
                v = np.full(t.shape, -np.inf)
            elif kind == "ulps":
                v = 1.0 - 2.0 ** -42 * (np.floor(10.0 * w * t) % 2.0)
            else:
                v = c + a * (t > w / 100.0)
            out[m] = v
        out[np.isin(x, nan_at)] = np.nan
        return out if out.size > 1 else float(out[0])

    return f


@st.composite
def _objectives(draw):
    n = draw(st.integers(3, 600))
    lo = draw(st.sampled_from([0.0, -1.0, 0.25, 0.1, 1.0 / 3.0]))
    hi = lo + draw(st.sampled_from([1.0, 3.0, 0.1, 0.7]))
    cuts = sorted(draw(st.lists(st.floats(lo, hi), max_size=5)))
    pieces = [
        (
            draw(st.sampled_from(_KINDS)),
            draw(st.sampled_from([0.0, 1.3, -2.7, 1e3])),
            draw(st.sampled_from([1.0, -0.5, 1e-3, 1e-14])),
            draw(st.floats(1.0, 80.0)),
        )
        for _ in range(len(cuts) + 1)
    ]
    nodes = lo + (hi - lo) / n * np.arange(n + 1)
    nan_at = nodes[draw(st.lists(st.integers(0, n), max_size=2))]
    return _piecewise(np.array(cuts), pieces, nan_at), lo, hi, ScanConfig(n)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (sm.EvaluationError, ConvergenceError) as err:
        return type(err)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_objectives())
def test_critical_points_match_the_every_node_flatness_test(case):
    f, lo, hi, cfg = case
    got = _outcome(sm.critical_points, f, lo, hi, cfg)
    want = _outcome(_ref_critical_points, f, lo, hi, cfg)
    assert got == want
    if isinstance(got, list):
        assert all(type(r) is float for r in got)


@st.composite
def _node_runs(draw, n):
    """Up to three runs of at least three grid nodes, in any order."""
    runs = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, n - 2))
        runs.append((a, draw(st.integers(a + 2, n))))
    return runs


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_objectives(), st.data())
def test_node_runs_find_the_whole_grid_roots_inside_them(case, data):
    f, lo, hi, cfg = case
    n = cfg.grid_points
    runs = data.draw(_node_runs(n))
    whole = _outcome(sm.critical_points, f, lo, hi, cfg)
    if not isinstance(whole, list):  # raised on a bracket the runs may skip
        return
    got = sm.critical_points(f, lo, hi, cfg, runs)
    rest = iter(whole)  # got is a subsequence of whole, bit for bit
    assert all(any(r.hex() == w.hex() for w in rest) for r in got)
    nodes = lo + (hi - lo) / n * np.arange(n + 1)
    for a, b in runs:  # and holds each root whose bracket the run covers
        if b - a >= 4:
            inside = {w.hex() for w in whole if nodes[a + 2] <= w <= nodes[b - 2]}
            assert inside <= {r.hex() for r in got}


def test_a_run_inside_a_plateau_grows_until_its_first_root_is_the_whole_grids():
    batch_sizes = []

    def plateau(x):
        batch_sizes.append(np.size(x))
        return (1.3 + x) - x  # constant up to one ulp of roundoff

    cfg = ScanConfig(4001, 40)
    whole = sm.critical_points(plateau, 0.0, 1.0, cfg)
    batch_sizes.clear()
    got = sm.critical_points(plateau, 0.0, 1.0, cfg, [(3000, 3100)])
    # the noise changes sign near the run's start, so the run grows
    # leftwards and is sampled again (101 nodes, then 165, ...)
    assert batch_sizes[:2] == [101, 165]
    end = 1.0 / 4001 * 3099  # the last bracket the run covers ends here
    assert got[0] < 1.0 / 4001 * 3000
    assert got == [r for r in whole if got[0] <= r < end]


def test_node_runs_outside_the_grid_are_refused():
    for runs in ([(-1, 5)], [(5, 4)], [(0, 41)]):
        with pytest.raises(ValueError):
            sm.critical_points(np.sin, 0.0, 1.0, ScanConfig(40), runs)
    assert sm.critical_points(np.sin, 0.0, 1.0, ScanConfig(40), []) == []
