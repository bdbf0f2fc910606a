"""Numerical machinery: bracketed bisection, a batched bracketed root
finder, critical-point location on an array objective and a guarded 2x2
linear solve.

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
    "EvaluationError",
    "SingularMatrixError",
    "bisect_root",
    "bracket_roots",
    "critical_points",
    "solve_2x2",
]


class BracketError(RuntimeError):
    """The supplied interval does not bracket a sign change."""


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
    """Grid sizes: critical_points samples grid_points steps;
    coop_solve_general traces a p12 grid of 8*(grid_points-1)+1 points,
    then zooms refine_iters // 2 levels (at least one), 16-fold each."""

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

def bisect_root(f, lo, hi, cfg: RootConfig = _DEFAULT_ROOT):
    """Root of a continuous f on [lo, hi] with f(lo)*f(hi) <= 0.

    Plain bisection: halves the bracket until its width is below
    cfg.abs_tol (or max_iter is hit) and returns the midpoint.  Raises
    BracketError when the endpoints do not straddle zero and
    EvaluationError on NaN.
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
        mid = 0.5 * (lo + hi)
        if hi - lo < cfg.abs_tol:
            return mid
        fm = f(mid)
        if math.isnan(fm):
            raise EvaluationError(f"NaN at x={mid}")
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def bracket_roots(
    f, lo, hi, cfg: RootConfig = _DEFAULT_ROOT, *, f_lo=None, f_hi=None
):
    """Roots of a batch of brackets at once, by Illinois regula falsi.

    ``f(x, idx)`` evaluates the batch elements ``idx`` (the elements still
    active, in increasing order) at the points ``x``.  ``f_lo``/``f_hi``,
    when given, are the values of f at ``lo``/``hi`` that the caller
    already holds; each one supplied saves a pass of f.  As in
    bisect_root, each bracket needs f(lo)*f(hi) <= 0, and an element is
    done at an exact zero or once its bracket is narrower than
    cfg.abs_tol (the midpoint is returned).  Smooth brackets converge
    superlinearly; a bracket that has not halved over three passes takes a
    bisection step, so every four passes at least halve it.  After
    cfg.max_iter passes the midpoints are returned.  Raises BracketError
    when an endpoint pair does not straddle zero and EvaluationError on NaN,
    for supplied endpoint values as for evaluated ones.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    idx = np.arange(lo.size)
    flo = np.asarray(f(lo, idx) if f_lo is None else f_lo, dtype=float)
    fhi = np.asarray(f(hi, idx) if f_hi is None else f_hi, dtype=float)
    if np.isnan(flo).any() or np.isnan(fhi).any():
        raise EvaluationError("NaN at bracket endpoint")
    bad = np.nonzero(flo * fhi > 0.0)[0]
    if bad.size:
        i = bad[0]
        raise BracketError(
            f"no sign change on [{lo[i]}, {hi[i]}]: f(lo)={flo[i]}, f(hi)={fhi[i]}"
        )
    root = np.where(flo == 0.0, lo, hi)
    act = np.nonzero((flo != 0.0) & (fhi != 0.0))[0]
    a, b, fa, fb = lo[act], hi[act], flo[act], fhi[act]
    side = np.zeros(act.size)  # end the last step moved: -1 lo, +1 hi, 0 bisection
    # ring of the bracket widths of the last 3 passes: at pass n, row n % 3
    # holds the width of pass n - 3
    widths = np.full((3, act.size), np.inf)
    for n in range(cfg.max_iter):
        w = b - a
        done = w < cfg.abs_tol
        if done.any():
            root[act[done]] = 0.5 * (a[done] + b[done])
            keep = ~done
            act, a, b, fa, fb, side, w = (
                v[keep] for v in (act, a, b, fa, fb, side, w)
            )
            widths = widths[:, keep]
        if act.size == 0:  # also when every bracket had an endpoint zero
            return root
        x = (a * fb - b * fa) / (fb - fa)
        bis = (w > 0.5 * widths[n % 3]) | ~((x > a) & (x < b))
        x = np.where(bis, 0.5 * (a + b), x)
        fx = np.asarray(f(x, act), dtype=float)
        if np.isnan(fx).any():
            raise EvaluationError(f"NaN at x={x[np.isnan(fx)][0]}")
        left = fx * fa > 0.0  # x replaces the lower end
        moved = np.where(left, -1.0, 1.0)
        # Illinois: an end kept twice in a row has its value halved
        kept = np.where(left, fb, fa)
        kept = np.where(side == moved, 0.5 * kept, kept)
        a, fa = np.where(left, x, a), np.where(left, fx, kept)
        b, fb = np.where(left, b, x), np.where(left, kept, fx)
        a = np.where(fx == 0.0, x, a)  # an exact zero closes the bracket on x
        side = np.where(bis, 0.0, moved)
        widths[n % 3] = w
    root[act] = 0.5 * (a + b)
    return root


def critical_points(f, lo, hi, cfg: ScanConfig = _DEFAULT_SCAN):
    """Interior sign changes of the central-difference derivative of f.

    f must accept arrays: the derivative is sampled in one batch on a
    uniform grid with step (hi-lo)/grid_points, and each sign change is
    refined by scalar bisection on the derivative.  Endpoints are excluded;
    an empty list is a legitimate answer for monotone f.  A NaN sample (an
    infeasible neighbour on either side) brackets nothing.

    Where f is flat to roundoff (at both ends of a bracket the two samples
    of the difference agree within _FLAT_ULPS * eps * |f|), the sign of the
    derivative is noise: such a bracket is not bisected and its midpoint is
    returned, whose value is within _FLAT_ULPS/8 * eps * |f| of any extremum
    inside it.  A plateau can hold thousands of such brackets, and
    bisecting each one would cost more than the whole scan.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    h = (hi - lo) / cfg.grid_points

    def df(x):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    # interior nodes where the central difference stays inside [lo, hi]
    xs = lo + h * np.arange(1, cfg.grid_points)
    roots = []
    with np.errstate(invalid="ignore"):  # -inf - -inf and inf * 0 are NaN
        up, down = f(xs + h), f(xs - h)
        d = (up - down) / (2.0 * h)
        flat = np.isfinite(d) & (
            np.abs(up - down)
            <= _FLAT_ULPS * _EPS * np.maximum(np.abs(up), np.abs(down))
        )
        prev, cur = d[:-1], d[1:]
        # a run of exact zeros counts once, where it starts
        change = ~np.isnan(prev) & (
            (prev * cur < 0.0) | ((cur == 0.0) & (prev != 0.0))
        )
        for i in np.flatnonzero(change):
            lo_i, hi_i = float(xs[i]), float(xs[i + 1])
            if flat[i] and flat[i + 1]:
                r = 0.5 * (lo_i + hi_i)
            else:
                try:
                    r = bisect_root(df, lo_i, hi_i)
                except BracketError:  # scalar and batch samples disagree in sign
                    continue
            if not roots or abs(r - roots[-1]) > 2.0 * h:
                roots.append(r)
    return roots


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
