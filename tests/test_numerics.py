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
