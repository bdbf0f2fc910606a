"""Rate-region geometry: boundary curves, the time-sharing (upper concave)
envelope, dominance tests and polyline distances.

A boundary curve is a Pareto frontier in the (r2, r1) plane: r2 strictly
increasing, r1 non-increasing.  Time sharing between operating points makes
every convex combination achievable, so the physically meaningful envelope
of a point cloud is its upper concave hull augmented with the axis
intercepts.

The solvers hand frontier() their rho sweeps as parts (r1, r2, rho,
labels).  One array core clamps roundoff negatives, sorts, drops
near-duplicate r2 values, optionally runs the monotone chain, Pareto-cleans
and keeps the points that survive; the curve stores them as arrays, with
one label dict per part.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .models import RatePoint

__all__ = ["BoundaryCurve", "frontier", "dominates", "hausdorff"]

_NEG_TOL = 1e-12  # clamp threshold for tiny negative rates from roundoff
_DUP_R2 = 1e-15  # r2 values closer than this to the last kept one are duplicates
_NONE = np.zeros(0)  # frontier() of no parts is the empty cloud


@dataclass(eq=False, repr=False)
class BoundaryCurve:
    """Discretized rate-region frontier, stored as arrays.

    r1, r2 and rho are float arrays sorted by strictly increasing r2 with
    non-increasing r1; labels is a table of label dicts (decoding order,
    segment, weight pair, solver source, ...) and label[k] the entry of
    point k.  An axis intercept added by the time-sharing envelope keeps
    the rho and label of the point it was moved from.  hulled records
    whether that envelope was applied; empty_reason documents why a curve
    has no points.
    """

    r1: np.ndarray = ()
    r2: np.ndarray = ()
    rho: np.ndarray = ()
    labels: tuple = ({},)
    label: np.ndarray = 0
    hulled: bool = False
    empty_reason: str | None = None

    def __post_init__(self):  # the arrays must be parallel (or broadcast)
        self.r1, self.r2, self.rho, self.label = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (self.r1, self.r2, self.rho)), self.label
        )
        self.validate()

    def validate(self):
        r1, r2 = self.r1, self.r2
        neg = (r1 < 0) | (r2 < 0)
        flat = ~(np.diff(r2) > 0)
        rise = r1[1:] > r1[:-1] + 1e-12
        bad = neg.copy()
        bad[1:] |= flat | rise
        if not bad.any():
            return
        k = int(np.argmax(bad))  # the first offending point
        if neg[k]:
            raise ValueError(f"negative rate in boundary point (r1={float(r1[k])}, "
                             f"r2={float(r2[k])}, rho={float(self.rho[k])})")
        if flat[k - 1]:
            raise ValueError("r2 must be strictly increasing")
        raise ValueError("r1 must be non-increasing")

    def __len__(self):
        return self.r1.size

    def __repr__(self):
        return (f"BoundaryCurve(r1={self.r1.tolist()}, r2={self.r2.tolist()}, "
                f"rho={self.rho.tolist()}, labels={self.labels}, label={self.label.tolist()}, "
                f"hulled={self.hulled}, empty_reason={self.empty_reason!r})")

    @functools.cached_property
    def points(self):
        """The points as RatePoints, built when first read.  The one reader is
        perfbench/workloads.compact; both go with ROADMAP item 1."""
        return tuple(map(RatePoint, self.r1.tolist(), self.r2.tolist(), self.rho.tolist()))


def _survivors(r1, r2, rho, hull):
    """The points of a cloud on its frontier (hull=False) or on its
    time-sharing envelope (hull=True), in increasing r2.

    Returns (src, r1, r2) as arrays: src[k] is the input index of survivor
    k (for an axis intercept added for the hull, the point moved onto the
    axis) and r1[k]/r2[k] its rates after clamping.  A rate below -_NEG_TOL
    raises ValueError naming the point; smaller negatives are roundoff and
    clamp to zero.
    """
    n = r1.size
    if hull and n == 0:
        raise ValueError("need at least one point")
    low1, low2 = r1 < 0, r2 < 0
    if low1.any() or low2.any():
        bad = np.flatnonzero((r1 < -_NEG_TOL) | (r2 < -_NEG_TOL))
        if bad.size:
            i = int(bad[0])
            which = "r1" if r1[i] < -_NEG_TOL else "r2"
            raise ValueError(f"negative {which} in point (r1={float(r1[i])}, r2={float(r2[i])}, "
                             f"rho={float(rho[i])})")
        r1 = np.where(low1, 0.0, r1)
        r2 = np.where(low2, 0.0, r2)
    src = np.arange(n)
    if hull:
        # time sharing against the single-user extremes closes the region
        top, right = int(np.argmax(r1)), int(np.argmax(r2))
        add = [r2[top] > 0, r1[right] > 0]
        src = np.concatenate([src, np.array([top, right])[add]])
        r1 = np.concatenate([r1, np.array([r1[top], 0.0])[add]])
        r2 = np.concatenate([r2, np.array([0.0, r2[right]])[add]])
    # sort by r2 ascending, ties resolved by larger r1 first (stable)
    order = np.lexsort((-r1, r2))
    # drop duplicate r2 values (the first of a tie has the larger r1); a
    # point farther than _DUP_R2 from its sorted predecessor is always kept
    s2 = r2[order]
    close = np.flatnonzero(np.diff(s2) <= _DUP_R2) + 1
    if close.size:
        keep = np.ones(order.size, dtype=bool)
        last = 0
        for k in close.tolist():
            if keep[k - 1]:
                last = k - 1
            keep[k] = s2[k] - s2[last] > _DUP_R2
        order = order[keep]
    if hull:
        # monotone chain; a point leaves only when it lies strictly below
        # the chord of its neighbours, so collinear points survive; the
        # chain is stack[:m], positions in xs/ys, and (x0, y0) and (x1, y1)
        # are its top two vertices
        xs, ys = r2[order].tolist(), r1[order].tolist()
        stack, m, x0, y0, x1, y1 = [0] * len(xs), 0, 0.0, 0.0, 0.0, 0.0
        for j, x, y in zip(range(len(xs)), xs, ys):
            while m >= 2 and (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0.0:
                m -= 1
                x1, y1 = x0, y0
                if m >= 2:
                    i = stack[m - 2]
                    x0, y0 = xs[i], ys[i]
            stack[m] = j
            m += 1
            x0, y0, x1, y1 = x1, y1, x, y
        order = order[stack[:m]]
    # r1 never rises with r2: drop every point a later one beats in r1,
    # which also absorbs roundoff-scale ascents (flat runs stay)
    s1 = r1[order]
    keep = np.ones(order.size, dtype=bool)
    keep[:-1] = s1[:-1] >= np.maximum.accumulate(s1[::-1])[-2::-1]
    order = order[keep]
    return src[order], r1[order], r2[order]


def frontier(*parts, hull=False):
    """BoundaryCurve of the cloud made of parts (r1, r2, rho, labels): three
    equal-length sequences and the label dict its points share.

    hull=False gives the cloud's Pareto frontier (flat runs kept), hull=True
    its time-sharing envelope with the axis intercepts (collinear points
    kept; an empty cloud raises ValueError).
    """
    r1, r2, rho = (
        np.concatenate([_NONE, *(np.asarray(p[k], dtype=float) for p in parts)])
        for k in range(3)
    )
    part = np.repeat(np.arange(len(parts)), [len(p[2]) for p in parts])
    src, s1, s2 = _survivors(r1, r2, rho, hull)
    return BoundaryCurve(s1, s2, rho[src], tuple(p[3] for p in parts), part[src], hull)


def dominates(curve_a: BoundaryCurve, curve_b: BoundaryCurve, tol: float):
    """True iff curve_a weakly contains curve_b (within tol bits).

    Checks curve_a's interpolated r1 at every r2 sample of curve_b, plus
    the reach condition on each curve's last (so largest) r2.
    """
    if not len(curve_a) or not len(curve_b):
        raise ValueError("dominates needs non-empty curves")
    reach = curve_a.r2[-1]
    if reach < curve_b.r2[-1] - tol:
        return False
    r2_b = curve_b.r2
    r1_a = np.interp(r2_b, curve_a.r2, curve_a.r1)
    # beyond curve_a's reach it achieves nothing, whatever interp says
    r1_a = np.where(r2_b > reach + tol, 0.0, r1_a)
    return bool(np.all(r1_a >= curve_b.r1 - tol))


def _points_to_segments_dist(px, py, ax, ay, bx, by):
    """Max over points (px,py) of the min distance to segments (a->b)."""
    dx = bx - ax
    dy = by - ay
    seg_len2 = dx * dx + dy * dy
    worst = 0.0
    for x, y in zip(px, py):
        t = np.where(
            seg_len2 > 0, ((x - ax) * dx + (y - ay) * dy) / np.where(seg_len2 > 0, seg_len2, 1.0), 0.0
        )
        t = np.clip(t, 0.0, 1.0)
        cx = ax + t * dx
        cy = ay + t * dy
        d2 = (x - cx) ** 2 + (y - cy) ** 2
        worst = max(worst, float(np.sqrt(d2.min())))
    return worst


def hausdorff(curve_a: BoundaryCurve, curve_b: BoundaryCurve):
    """Symmetric Hausdorff distance between two frontier polylines [bits]."""
    if not len(curve_a) or not len(curve_b):
        raise ValueError("hausdorff needs non-empty curves")

    def arrays(curve):
        x = curve.r2
        y = curve.r1
        if len(x) == 1:
            return x, y, x, y, x, y
        return x, y, x[:-1], y[:-1], x[1:], y[1:]

    ax_pts, ay_pts, aax, aay, abx, aby = arrays(curve_a)
    bx_pts, by_pts, bax, bay, bbx, bby = arrays(curve_b)
    d_ab = _points_to_segments_dist(ax_pts, ay_pts, bax, bay, bbx, bby)
    d_ba = _points_to_segments_dist(bx_pts, by_pts, aax, aay, abx, aby)
    return max(d_ab, d_ba)
