"""Rate-region geometry: boundary curves, the time-sharing (upper concave)
envelope, dominance tests and polyline distances.

A boundary curve is a Pareto frontier in the (r2, r1) plane: r2 strictly
increasing, r1 non-increasing.  Time sharing between operating points makes
every convex combination achievable, so the physically meaningful envelope
of a point cloud is its upper concave hull augmented with the axis
intercepts.

Clouds are processed as arrays by one core that clamps roundoff
negatives, sorts, drops near-duplicate r2 values, optionally runs the
monotone chain, Pareto-cleans and returns the indices of the points that
survive; RatePoints and metadata dicts are built for those points only.
The solvers hand their rho sweeps to frontier() (see sweeps()).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .models import RatePoint

__all__ = ["BoundaryCurve", "frontier", "sweeps", "envelope", "dominates", "hausdorff"]

_NEG_TOL = 1e-12  # clamp threshold for tiny negative rates from roundoff
_DUP_R2 = 1e-15  # r2 values closer than this to the last kept one are duplicates


@dataclass
class BoundaryCurve:
    """Discretized rate-region frontier with per-point solver metadata.

    points are sorted by strictly increasing r2 with non-increasing r1;
    metadata is a parallel list of dicts (PS factor, decoding order or
    weight pair, solver source, ...); hulled records whether a time-sharing
    envelope was applied; empty_reason documents why a curve has no points.
    """

    points: list = field(default_factory=list)
    metadata: list = field(default_factory=list)
    hulled: bool = False
    empty_reason: str | None = None

    def __post_init__(self):
        if self.metadata and len(self.metadata) != len(self.points):
            raise ValueError("metadata must parallel points")
        if not self.metadata:
            self.metadata = [{} for _ in self.points]
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
            raise ValueError(f"negative rate in boundary point {self.points[k]}")
        if flat[k - 1]:
            raise ValueError("r2 must be strictly increasing")
        raise ValueError("r1 must be non-increasing")

    def __len__(self):
        return len(self.points)

    @property
    def r1(self):
        return np.array([p.r1 for p in self.points])

    @property
    def r2(self):
        return np.array([p.r2 for p in self.points])

    def max_r1(self):
        return max((p.r1 for p in self.points), default=0.0)

    def max_r2(self):
        return max((p.r2 for p in self.points), default=0.0)

    def interp_r1(self, r2):
        """Piecewise-linear r1 at the query r2 (flat beyond the ends)."""
        return np.interp(r2, self.r2, self.r1)


def _survivors(r1, r2, hull, point_of):
    """The points of a cloud on its frontier (hull=False) or on its
    time-sharing envelope (hull=True), in increasing r2.

    Returns (src, r1, r2, axis) as lists: src[k] is the input index of
    survivor k, r1[k]/r2[k] its rates after clamping, and axis[k] whether it
    is an axis intercept added for the hull (point src[k] moved onto an
    axis).  A rate below -_NEG_TOL raises ValueError naming point_of(i);
    smaller negatives are roundoff and clamp to zero.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    n = r1.size
    if hull and n == 0:
        raise ValueError("need at least one point")
    low1, low2 = r1 < 0, r2 < 0
    if low1.any() or low2.any():
        bad = np.flatnonzero((r1 < -_NEG_TOL) | (r2 < -_NEG_TOL))
        if bad.size:
            i = int(bad[0])
            which = "r1" if r1[i] < -_NEG_TOL else "r2"
            raise ValueError(f"negative {which} in {point_of(i)}")
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
        # the chord of its neighbours, so collinear points survive
        xs, ys, ks = [], [], []
        for k, x, y in zip(order.tolist(), r2[order].tolist(), r1[order].tolist()):
            while len(ks) >= 2 and (
                (xs[-1] - xs[-2]) * (y - ys[-2]) - (ys[-1] - ys[-2]) * (x - xs[-2])
                > 0.0
            ):
                del xs[-1], ys[-1], ks[-1]
            xs.append(x)
            ys.append(y)
            ks.append(k)
        order = np.array(ks, dtype=int)
    # r1 never rises with r2: drop every point a later one beats in r1,
    # which also absorbs roundoff-scale ascents (flat runs stay)
    s1 = r1[order]
    keep = np.ones(order.size, dtype=bool)
    keep[:-1] = s1[:-1] >= np.maximum.accumulate(s1[::-1])[-2::-1]
    order = order[keep]
    return (
        src[order].tolist(), r1[order].tolist(), r2[order].tolist(),
        (order >= n).tolist(),
    )


def frontier(r1, r2, rho, meta_of, hull=False):
    """BoundaryCurve of a cloud given as parallel sequences.

    hull=False gives its Pareto frontier (flat runs kept), hull=True its
    time-sharing envelope with the axis intercepts, tagged intercept=True
    (collinear points kept; an empty cloud raises ValueError).  meta_of(i)
    returns the metadata dict of input point i; it is called, and
    RatePoints are built, for the surviving points only.
    """
    src, s1, s2, axis = _survivors(
        r1, r2, hull, lambda i: RatePoint(float(r1[i]), float(r2[i]), rho[i])
    )
    return BoundaryCurve(
        points=[RatePoint(a, b, rho[i]) for i, a, b in zip(src, s1, s2)],
        metadata=[
            dict(meta_of(i), intercept=True) if on_axis else meta_of(i)
            for i, on_axis in zip(src, axis)
        ],
        hulled=hull,
    )


def sweeps(*parts):
    """Concatenate rho sweeps into frontier()'s (r1, r2, rho, meta_of).

    Each part is (r1, r2, rho, labels) with equal-length arrays; point i of
    a part carries the metadata {"rho": rho[i], **labels}.
    """
    r1, r2, rho = (
        np.concatenate([np.asarray(p[k], dtype=float) for p in parts])
        for k in range(3)
    )
    rho = rho.tolist()
    ends = np.cumsum([len(p[2]) for p in parts]).tolist()

    def meta_of(i):
        return {"rho": rho[i], **parts[bisect_right(ends, i)][3]}

    return r1, r2, rho, meta_of


def envelope(r1, r2):
    """(r1, r2) arrays of the rates of frontier(..., hull=True)'s points,
    with no curve."""
    _, e1, e2, _ = _survivors(r1, r2, True, lambda i: (r1[i], r2[i]))
    return np.array(e1), np.array(e2)


def dominates(curve_a: BoundaryCurve, curve_b: BoundaryCurve, tol: float):
    """True iff curve_a weakly contains curve_b (within tol bits).

    Checks curve_a's interpolated r1 at every r2 sample of curve_b, plus
    the reach condition on the largest r2.
    """
    if not curve_a.points or not curve_b.points:
        raise ValueError("dominates needs non-empty curves")
    if curve_a.max_r2() < curve_b.max_r2() - tol:
        return False
    r2_b = curve_b.r2
    r1_a = curve_a.interp_r1(r2_b)
    # beyond curve_a's reach it achieves nothing, whatever interp says
    r1_a = np.where(r2_b > curve_a.max_r2() + tol, 0.0, r1_a)
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
    if not curve_a.points or not curve_b.points:
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
