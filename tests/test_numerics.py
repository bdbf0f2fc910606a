"""Scalar root finding, scan-and-refine maximization, tiny linear solves."""

import math

import numpy as np
import pytest

import swipt_mac as sm
from swipt_mac.numerics import (
    BracketError,
    EvaluationError,
    RootConfig,
    ScanConfig,
    SingularMatrixError,
)


def test_bisect_root_known_roots():
    r = sm.bisect_root(math.cos, 0.0, math.pi, RootConfig(abs_tol=1e-13, max_iter=200))
    assert r == pytest.approx(math.pi / 2.0, abs=1e-12)
    r = sm.bisect_root(lambda x: 3.0 * x - 1.2, -1.0, 2.0)
    assert r == pytest.approx(0.4, abs=1e-11)


def test_bisect_root_requires_a_sign_change():
    with pytest.raises(BracketError):
        sm.bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_root_rejects_nan_evaluations():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else x - 0.5

    with pytest.raises(EvaluationError):
        sm.bisect_root(f, 0.0, 1.0)


# one batch: steep, flat (triple root), smooth, and exact zeros at either end
_BATCH = (
    (lambda x: math.tanh(200.0 * (x - 0.3)), 0.0, 1.0),
    (lambda x: 1e-6 * (x - 0.7) ** 3, 0.0, 1.0),
    (math.cos, 0.0, math.pi),
    (lambda x: math.expm1(x) - 3.0, -1.0, 4.0),
    (lambda x: 1e-9 * (x - 0.123), 0.0, 0.5),
    (lambda x: x - 1.0, 0.0, 1.0),
    (lambda x: x, 0.0, 2.0),
)


def _batched(fns, counter=None):
    def f(x, idx):
        if counter is not None:
            counter.append(len(x))
        return np.array([fns[i](xi) for xi, i in zip(x, idx)])

    return f


def test_bracket_roots_agree_with_bisection_within_tolerance():
    fns = [fn for fn, _, _ in _BATCH]
    lo = np.array([a for _, a, _ in _BATCH])
    hi = np.array([b for _, _, b in _BATCH])
    # the documented worst case: one halving per four passes
    tol = 1e-11
    cap = 4 * math.ceil(math.log2(np.max(hi - lo) / tol))
    cfg = RootConfig(abs_tol=tol, max_iter=cap)
    calls = []
    roots = sm.bracket_roots(_batched(fns, calls), lo, hi, cfg)
    for (fn, a, b), r in zip(_BATCH, roots):
        assert abs(r - sm.bisect_root(fn, a, b, cfg)) <= tol
    assert roots[5] == 1.0 and roots[6] == 0.0  # endpoint zeros returned exactly
    assert len(calls) - 2 < cap  # two endpoint passes; every element converged


def test_bracket_roots_stop_at_the_iteration_cap():
    calls = []
    cfg = RootConfig(abs_tol=1e-15, max_iter=3)
    fns = [fn for fn, _, _ in _BATCH[:4]]
    lo = np.array([a for _, a, _ in _BATCH[:4]])
    hi = np.array([b for _, _, b in _BATCH[:4]])
    roots = sm.bracket_roots(_batched(fns, calls), lo, hi, cfg)
    assert len(calls) == 2 + cfg.max_iter
    assert np.all((lo <= roots) & (roots <= hi))


def test_bracket_roots_fail_like_bisect_root():
    square = _batched([lambda x: x * x + 1.0, lambda x: x - 0.5])
    with pytest.raises(BracketError):
        sm.bracket_roots(square, [-1.0, 0.0], [1.0, 1.0])
    endpoint_nan = _batched([lambda x: x - 0.5, lambda x: math.nan if x > 0.9 else x])
    with pytest.raises(EvaluationError):
        sm.bracket_roots(endpoint_nan, [0.0, -1.0], [1.0, 1.0])
    hole = _batched([lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5])
    with pytest.raises(EvaluationError):
        sm.bracket_roots(hole, [0.0], [1.0])


def test_bracket_roots_take_supplied_endpoint_values():
    fns = [fn for fn, _, _ in _BATCH]
    lo = np.array([a for _, a, _ in _BATCH])
    hi = np.array([b for _, _, b in _BATCH])
    cfg = RootConfig(abs_tol=1e-11, max_iter=200)
    calls, calls_given = [], []
    roots = sm.bracket_roots(_batched(fns, calls), lo, hi, cfg)
    given = sm.bracket_roots(
        _batched(fns, calls_given), lo, hi, cfg,
        f_lo=[fn(a) for fn, a, _ in _BATCH], f_hi=[fn(b) for fn, _, b in _BATCH],
    )
    assert given.tobytes() == roots.tobytes()  # bitwise the same roots
    assert len(calls_given) == len(calls) - 2  # the two endpoint passes
    # supplied values are screened like evaluated ones
    line = _batched([lambda x: x - 0.5])
    with pytest.raises(BracketError):
        sm.bracket_roots(line, [0.0], [1.0], f_lo=[0.5], f_hi=[0.5])
    with pytest.raises(EvaluationError):
        sm.bracket_roots(line, [0.0], [1.0], f_lo=[math.nan], f_hi=[0.5])
    with pytest.raises(EvaluationError):
        sm.bracket_roots(line, [0.0], [1.0], f_lo=[-0.5], f_hi=[math.nan])
    # endpoint zeros are roots already: f is not called at all
    calls = []
    zeros = sm.bracket_roots(
        _batched([lambda x: x - 0.5] * 2, calls), [0.5, 0.0], [1.0, 0.5],
        f_lo=[0.0, -0.5], f_hi=[0.5, 0.0],
    )
    assert zeros.tolist() == [0.5, 0.5] and calls == []


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
    # the derivative grid is sampled in one batch (both difference sides);
    # only the bisection refinement calls f point by point
    assert sum(n > 1 for n in batch_sizes) == 2


def test_critical_points_does_not_bisect_roundoff_noise():
    batch_sizes = []

    def plateau(x):
        batch_sizes.append(np.size(x))
        return (1.3 + x) - x  # constant up to one ulp of roundoff

    pts = sm.critical_points(plateau, 0.0, 1.0, ScanConfig(4001, 40))
    # the noise changes the derivative's sign many times; every bracket is
    # answered by its midpoint, without a scalar call
    assert len(pts) > 100
    assert batch_sizes == [4000, 4000]
    assert all(0.0 < x < 1.0 for x in pts)
    assert np.all(np.diff(pts) > 2.0 / 4001)


def test_solve_2x2_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        rhs = rng.normal(size=2)
        x1, x2 = sm.solve_2x2(m[0, 0], m[0, 1], m[1, 0], m[1, 1], rhs[0], rhs[1])
        ref = np.linalg.solve(m, rhs)
        assert x1 == pytest.approx(ref[0], abs=1e-10)
        assert x2 == pytest.approx(ref[1], abs=1e-10)


def test_solve_2x2_flags_singular_systems():
    with pytest.raises(SingularMatrixError):
        sm.solve_2x2(1.0, 2.0, 2.0, 4.0, 1.0, 2.0)
