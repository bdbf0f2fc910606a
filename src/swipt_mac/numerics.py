"""Numerical machinery: bracketed bisection, critical-point location on an
array objective and a guarded 2x2 linear solve.

Everything here is generic; the physics lives in the calling modules.  The
optimization landscape of the PS-factor problems is cheap to evaluate and
piecewise smooth, so a dense derivative scan evaluated as one array batch,
with scalar bisection on each bracket it finds, is both simple and reliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RootConfig",
    "ScanConfig",
    "BracketError",
    "ConvergenceError",
    "EvaluationError",
    "SingularMatrixError",
    "bisect_root",
    "critical_points",
    "solve_2x2",
]


class BracketError(RuntimeError):
    """The supplied interval does not bracket a sign change."""


class ConvergenceError(RuntimeError):
    """bisect_root used up max_iter before its bracket closed to abs_tol."""


class EvaluationError(RuntimeError):
    """The objective produced NaN (or nothing finite at all)."""


class SingularMatrixError(RuntimeError):
    """2x2 system is singular to working precision."""


@dataclass(frozen=True)
class RootConfig:
    abs_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class ScanConfig:
    """Grid sizes: critical_points samples f once on the grid_points+1
    nodes of grid_points equal steps; coop_solve_general traces a p12 grid
    of 8*(grid_points-1)+1 points, then zooms refine_iters // 2 levels (at
    least one), 16-fold each."""

    grid_points: int = 20001
    refine_iters: int = 100

    def __post_init__(self):
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")


_DEFAULT_ROOT = RootConfig()
_DEFAULT_SCAN = ScanConfig()
_EPS = float(np.finfo(float).eps)
# central differences within this many ulps of f are roundoff (critical_points)
_FLAT_ULPS = 1024.0
# nodes a run of critical_points grows leftwards by when the roots before it
# could drop its first root
_WIDEN = 64

def bisect_root(f, lo, hi, cfg: RootConfig = _DEFAULT_ROOT):
    """Root of a continuous f on [lo, hi] with f(lo)*f(hi) <= 0.

    Plain bisection: halves the bracket until its width is below
    cfg.abs_tol and returns the midpoint.  Raises BracketError when the
    endpoints do not straddle zero, EvaluationError on NaN and
    ConvergenceError when max_iter halvings leave the bracket wider than
    abs_tol (a tolerance below the float spacing at the root never closes).
    """
    flo = f(lo)
    fhi = f(hi)
    if math.isnan(flo) or math.isnan(fhi):
        raise EvaluationError("NaN at bracket endpoint")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    for _ in range(cfg.max_iter):
        if hi - lo < cfg.abs_tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if math.isnan(fm):
            raise EvaluationError(f"NaN at x={mid}")
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    if hi - lo >= cfg.abs_tol:
        raise ConvergenceError(
            f"bracket [{lo}, {hi}] still wider than {cfg.abs_tol} "
            f"after {cfg.max_iter} iterations"
        )
    return 0.5 * (lo + hi)


def critical_points(f, lo, hi, cfg: ScanConfig = _DEFAULT_SCAN, runs=None):
    """Interior sign changes of the central-difference derivative of f.

    f must accept arrays: it is sampled in one batch on the grid nodes
    lo + k*h, h = (hi-lo)/grid_points, k = 0..grid_points, and the central
    difference at a node is taken from its two neighbours' samples; each
    sign change is refined by scalar bisection on the derivative, and a
    root within 2h of the last one kept is dropped.  Endpoints are
    excluded; an empty list is a legitimate answer for monotone f.  A NaN
    sample (an infeasible neighbour on either side) brackets nothing.

    Where f is flat to roundoff (at both ends of a bracket the two samples
    of the difference agree within _FLAT_ULPS * eps * |f|), the sign of the
    derivative is noise: such a bracket is not bisected and its midpoint is
    returned, whose value is within _FLAT_ULPS/8 * eps * |f| of any extremum
    inside it.  A plateau can hold thousands of such brackets, and
    bisecting each one would cost more than the whole scan.

    runs=None scans the whole grid.  Otherwise runs is a sequence of
    (first, last) node indices in 0..grid_points, and only those nodes are
    sampled (in one batch) and only the brackets whose four samples lie in
    one run are scanned; the roots found are then the whole-grid scan's
    roots of those brackets, bit for bit.  For that, a run whose first
    sign change starts within 2h of the run's first interior node (so that
    a root before the run could drop its first root) grows _WIDEN nodes
    leftwards and the runs are sampled again, until no run but one that
    starts at node 0 has such a sign change.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    n = cfg.grid_points
    h = (hi - lo) / n

    def df(x):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    runs = _merged([(0, n)] if runs is None else runs, n)
    if not runs:
        return []
    roots = []
    with np.errstate(invalid="ignore"):  # -inf - -inf and inf * 0 are NaN
        while True:
            k = np.concatenate([np.arange(a, b + 1) for a, b in runs])
            nodes = lo + h * k
            samples = f(nodes)
            up, down = samples[2:], samples[:-2]
            # a node's difference needs both of its neighbours in its run
            d = np.where(k[2:] - k[:-2] == 2, (up - down) / (2.0 * h), np.nan)
            prev, cur = d[:-1], d[1:]
            # a run of exact zeros counts once, where it starts
            change = ~np.isnan(prev) & (
                (prev * cur < 0.0) | ((cur == 0.0) & (prev != 0.0))
            )
            i = np.flatnonzero(change)  # bracket i spans nodes[i+1], nodes[i+2]
            starts = np.cumsum([0] + [b - a + 1 for a, b in runs])
            heads = np.searchsorted(i, starts[:-1])  # each run's first bracket
            grow = [
                a > 0 and j < len(i) and i[j] < end
                and nodes[i[j] + 1] - nodes[p + 1] <= 2.0 * h
                for (a, _), p, end, j in zip(runs, starts, starts[1:], heads)
            ]
            if not any(grow):
                break
            runs = _merged(
                [(max(a - _WIDEN, 0) if g else a, b) for (a, b), g in zip(runs, grow)], n
            )
        xs = nodes[1:-1]  # interior nodes, where the central difference has both sides
        ends = np.stack([i, i + 1])  # the roundoff test runs at bracket ends only
        u, w = up[ends], down[ends]
        flat = np.isfinite(d[ends]) & (
            np.abs(u - w) <= _FLAT_ULPS * _EPS * np.maximum(np.abs(u), np.abs(w))
        )
        noise = flat.all(0).tolist()  # flat at both ends
        for lo_i, hi_i, flat_i in zip(xs[i].tolist(), xs[i + 1].tolist(), noise):
            if flat_i:
                r = 0.5 * (lo_i + hi_i)
            else:
                try:
                    r = bisect_root(df, lo_i, hi_i)
                except BracketError:  # scalar and batch samples disagree in sign
                    continue
            if not roots or abs(r - roots[-1]) > 2.0 * h:
                roots.append(r)
    return roots


def _merged(runs, n):
    """Node runs (first, last) in order, overlapping or touching ones joined."""
    out = []
    for a, b in sorted(runs):
        if not 0 <= a <= b <= n:
            raise ValueError(f"run ({a}, {b}) outside nodes 0..{n}")
        if out and a <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def solve_2x2(m11, m12, m21, m22, rhs1, rhs2):
    """Cramer solution of [[m11,m12],[m21,m22]] @ (x1,x2) = (rhs1,rhs2).

    Raises SingularMatrixError when |det| is below 1e-14 relative to the
    squared max-entry norm (determinant carries squared units).
    """
    det = m11 * m22 - m12 * m21
    norm = max(abs(m11), abs(m12), abs(m21), abs(m22))
    if norm == 0.0 or abs(det) <= 1e-14 * norm * norm:
        raise SingularMatrixError(f"2x2 system singular: det={det}, norm={norm}")
    x1 = (rhs1 * m22 - m12 * rhs2) / det
    x2 = (m11 * rhs2 - rhs1 * m21) / det
    return x1, x2
