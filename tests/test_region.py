"""Frontier assembly, time-sharing envelopes, dominance and distance."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swipt_mac as sm
from swipt_mac.region import frontier


Pt = namedtuple("Pt", "r1 r2 rho")  # one input point of a test cloud


def pt(r1, r2, rho=0.5):
    return Pt(r1, r2, rho)


def columns(points):
    """(r1, r2, rho) lists of a Pt list."""
    return [p.r1 for p in points], [p.r2 for p in points], [p.rho for p in points]


def curve_of(points):
    """A BoundaryCurve holding a Pt list as given."""
    return sm.BoundaryCurve(*columns(points))


def frontier_of(points, hull=False):
    """frontier() of a Pt list, with empty labels."""
    return frontier((*columns(points), {}), hull=hull)


def hull_of(points):
    """The time-sharing envelope of a Pt list."""
    return frontier_of(points, hull=True)


def rate_pairs(curve):
    """The (r1, r2) pair of each point of a curve, as Python floats."""
    return list(zip(curve.r1.tolist(), curve.r2.tolist()))


def test_assemble_sorts_dedups_and_drops_dominated():
    cloud = [
        pt(1.0, 0.2),
        pt(0.4, 0.9),
        pt(0.4, 0.9),  # exact duplicate
        pt(0.9, 0.2),  # duplicate r2, smaller r1: dropped
        pt(0.3, 0.5),  # dominated by the later (0.4, 0.9)
        pt(1.2, 0.0),
    ]
    curve = frontier_of(cloud)
    assert rate_pairs(curve) == [(1.2, 0.0), (1.0, 0.2), (0.4, 0.9)]
    assert not curve.hulled


def test_assemble_keeps_flat_faces():
    cloud = [pt(0.7, 0.1), pt(0.7, 0.4), pt(0.7, 0.8)]
    curve = frontier_of(cloud)
    assert len(curve) == 3


def test_assemble_clamps_roundoff_negatives_but_rejects_real_ones():
    curve = frontier_of([pt(-1e-14, 0.3), pt(0.5, -1e-13)])
    assert curve.r2[0] == 0.0 and curve.r1[0] == 0.5
    assert curve.r1[1] == 0.0
    with pytest.raises(ValueError):
        frontier_of([pt(-1e-6, 0.3)])


def test_boundary_curve_rejects_ascending_r1():
    with pytest.raises(ValueError):
        curve_of([pt(0.2, 0.1), pt(0.5, 0.3)])


def test_upper_hull_adds_axis_intercept():
    cloud = [pt(0.8, 0.3, 0.1), pt(0.5, 0.6, 0.2)]
    hull = hull_of(cloud)
    assert hull.hulled
    # the r2=0 intercept materializes; the right end keeps the original point
    # (an r1=0 companion at the same r2 would be dropped as a duplicate)
    assert hull.r2[0] == 0.0 and hull.r1[0] == pytest.approx(0.8)
    # no input point lies there: it is added, with the rho of the point it
    # was moved from
    assert rate_pairs(hull)[0] not in [(p.r1, p.r2) for p in cloud]
    assert hull.rho[0] == 0.1
    assert hull.r1[-1] == pytest.approx(0.5)
    assert hull.r2[-1] == pytest.approx(0.6)
    assert len(hull) == 3


def test_upper_hull_keeps_collinear_points():
    # three points on one chord: degenerate hull must stay fully sampled
    hull = hull_of([pt(1.0, 0.0), pt(0.75, 0.25), pt(0.5, 0.5)])
    interior = [r2 for r2 in hull.r2.tolist() if 0.0 < r2 < 0.5]
    assert any(abs(r2 - 0.25) < 1e-12 for r2 in interior)


def test_upper_hull_removes_sagging_points():
    hull = hull_of([pt(1.0, 0.0), pt(0.2, 0.25), pt(0.5, 0.5), pt(0.0, 1.0)])
    # (0.2, 0.25) sits under the chord from (1,0) to (0.5,0.5)
    assert all(abs(r2 - 0.25) > 1e-9 for r2 in hull.r2.tolist())


def test_upper_hull_is_concave_and_contains_input_over_random_clouds():
    rng = np.random.default_rng(31)
    for _ in range(30):
        cloud = [pt(r1, r2) for r1, r2 in rng.uniform(0.0, 2.0, size=(25, 2))]
        hull = hull_of(cloud)
        # every input point lies on or below the envelope
        for p in cloud:
            assert np.interp(p.r2, hull.r2, hull.r1) >= p.r1 - 1e-9
        # concavity: interior points never sag below the chord of neighbours
        r2, r1 = hull.r2, hull.r1
        for i in range(1, len(r2) - 1):
            chord = np.interp(r2[i], [r2[i - 1], r2[i + 1]], [r1[i - 1], r1[i + 1]])
            assert r1[i] >= chord - 1e-9


def test_sweeps_build_metadata_for_the_survivors_only():
    parts = (
        (np.array([1.0, 0.5, 0.2]), np.array([0.0, 0.5, 0.4]),
         np.array([0.1, 0.2, 0.3]), {"order": "a", "segment": "s1"}),
        ([0.0], [1.0], [0.4], {"segment": "s2"}),
    )
    for hull in (False, True):
        curve = frontier(*parts, hull=hull)
        # (0.2, 0.4) lies under (0.5, 0.5): only the other three survive
        assert curve.labels == ({"order": "a", "segment": "s1"}, {"segment": "s2"})
        assert curve.label.tolist() == [0, 0, 1]
        assert [
            [("rho", rho), *curve.labels[k].items()]
            for rho, k in zip(curve.rho.tolist(), curve.label.tolist())
        ] == [
            [("rho", 0.1), ("order", "a"), ("segment", "s1")],
            [("rho", 0.2), ("order", "a"), ("segment", "s1")],
            [("rho", 0.4), ("segment", "s2")],
        ]
        assert list(zip(curve.r1.tolist(), curve.r2.tolist(), curve.rho.tolist())) == [
            (1.0, 0.0, 0.1), (0.5, 0.5, 0.2), (0.0, 1.0, 0.4)
        ]
        assert curve.r1.dtype == curve.r2.dtype == curve.rho.dtype == np.float64
        assert curve.hulled is hull


def test_dominates_weak_containment_and_reach():
    outer = hull_of([pt(1.0, 0.0), pt(0.0, 1.0)])
    inner = hull_of([pt(0.5, 0.0), pt(0.0, 0.5)])
    assert sm.dominates(outer, inner, 1e-9)
    assert not sm.dominates(inner, outer, 1e-9)
    # equal curves dominate each other within tolerance
    assert sm.dominates(outer, outer, 1e-12)
    # reach: a curve that is higher but shorter does not dominate
    tall = hull_of([pt(2.0, 0.0), pt(2.0, 0.3)])
    wide = hull_of([pt(0.1, 0.0), pt(0.1, 1.0)])
    assert not sm.dominates(tall, wide, 1e-9)


def test_dominates_rejects_empty_curves():
    curve = hull_of([pt(1.0, 0.5)])
    empty = sm.BoundaryCurve(empty_reason="fee exceeds harvest")
    with pytest.raises(ValueError):
        sm.dominates(curve, empty, 1e-9)
    with pytest.raises(ValueError):
        sm.dominates(empty, curve, 1e-9)


def test_hausdorff_zero_on_identical_and_symmetric():
    a = hull_of([pt(1.0, 0.0), pt(0.6, 0.4), pt(0.0, 1.0)])
    assert sm.hausdorff(a, a) == 0.0
    b = hull_of([pt(1.1, 0.0), pt(0.0, 1.0)])
    assert sm.hausdorff(a, b) == pytest.approx(sm.hausdorff(b, a))
    assert sm.hausdorff(a, b) > 0.0


def test_hausdorff_known_offset():
    a = curve_of([pt(1.0, 0.0), pt(1.0, 1.0)])
    b = curve_of([pt(1.25, 0.0), pt(1.25, 1.0)])
    assert sm.hausdorff(a, b) == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# parity with the point-by-point implementation the array core replaced
# ---------------------------------------------------------------------------


def _ref_validate(points):
    prev = None
    for p in points:
        if p.r1 < 0 or p.r2 < 0:
            raise ValueError(f"negative rate in boundary {_ref_str(p)}")
        if prev is not None:
            if not p.r2 > prev.r2:
                raise ValueError("r2 must be strictly increasing")
            if p.r1 > prev.r1 + 1e-12:
                raise ValueError("r1 must be non-increasing")
        prev = p


def _ref_str(p):
    return f"point (r1={p.r1}, r2={p.r2}, rho={p.rho})"


def _ref_clamp(p):
    r1, r2 = p.r1, p.r2
    if r1 < 0:
        if r1 < -1e-12:
            raise ValueError(f"negative r1 in {_ref_str(p)}")
        r1 = 0.0
    if r2 < 0:
        if r2 < -1e-12:
            raise ValueError(f"negative r2 in {_ref_str(p)}")
        r2 = 0.0
    if r1 != p.r1 or r2 != p.r2:
        return Pt(r1, r2, p.rho)
    return p


def _ref_sorted_dedup(pts):
    pts.sort(key=lambda pm: (pm[0].r2, -pm[0].r1))
    dedup = []
    for p, m in pts:
        if dedup and p.r2 - dedup[-1][0].r2 <= 1e-15:
            continue
        dedup.append((p, m))
    return dedup


def _ref_assemble(points, labels, hulled=False):
    pts = _ref_sorted_dedup([(_ref_clamp(p), m) for p, m in zip(points, labels)])
    stack = []
    for p, m in pts:
        while stack and stack[-1][0].r1 < p.r1:
            stack.pop()
        stack.append((p, m))
    _ref_validate([p for p, _ in stack])
    return [p for p, _ in stack], [m for _, m in stack], hulled


def _ref_cross(o, a, b):
    return (a.r2 - o.r2) * (b.r1 - o.r1) - (a.r1 - o.r1) * (b.r2 - o.r2)


def _ref_hull(points, labels):
    if not points:
        raise ValueError("need at least one point")
    pts = [(_ref_clamp(p), m) for p, m in zip(points, labels)]
    top, m_top = pts[max(range(len(pts)), key=lambda i: pts[i][0].r1)]
    right, m_right = pts[max(range(len(pts)), key=lambda i: pts[i][0].r2)]
    if top.r2 > 0:
        pts.append((Pt(top.r1, 0.0, top.rho), m_top))
    if right.r1 > 0:
        pts.append((Pt(0.0, right.r2, right.rho), m_right))
    chain = []
    for p, m in _ref_sorted_dedup(pts):
        while len(chain) >= 2 and _ref_cross(chain[-2][0], chain[-1][0], p) > 0.0:
            chain.pop()
        chain.append((p, m))
    return _ref_assemble([p for p, _ in chain], [m for _, m in chain], hulled=True)


def _outcome(fn, *args):
    """Points, per-point labels and flag of a curve, or the error.  The
    label names the input point a survivor comes from, so an added axis
    intercept shows as that point's label at other rates."""
    try:
        out = fn(*args)
    except ValueError as err:
        return ("error", str(err))
    if isinstance(out, sm.BoundaryCurve):
        points = list(map(Pt, out.r1.tolist(), out.r2.tolist(), out.rho.tolist()))
        out = (points, [out.labels[k] for k in out.label.tolist()], out.hulled)
    points, labels, hulled = out
    return (
        [(p.r1.hex(), p.r2.hex(), p.rho) for p in points],
        list(labels),
        hulled,
    )


_LEVELS = (0.0, 0.1, 0.125, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0, 1.5)
_RATES = st.one_of(
    st.sampled_from(_LEVELS),  # repeated values: duplicate r2, flat r1 runs
    st.floats(0.0, 2.0),
    # r2 gaps within 1e-15 of a repeated value
    st.tuples(st.sampled_from(_LEVELS), st.integers(1, 4)).map(
        lambda bk: bk[0] + bk[1] * 2.5e-16
    ),
    # roundoff negatives are clamped, real ones rejected
    st.sampled_from((-0.0, -1e-13, -1e-12, -1e-6, -0.5)),
)


@st.composite
def _clouds(draw):
    pts = draw(st.lists(st.tuples(_RATES, _RATES), max_size=30))
    # an exactly collinear run: dyadic points on r1 = c - s*r2
    c, s = draw(st.sampled_from((1.0, 1.5, 2.0))), draw(st.sampled_from((0.25, 0.5, 1.0)))
    pts += [(c - s * k / 8.0, k / 8.0) for k in draw(st.lists(st.integers(0, 8), max_size=9))]
    # a run of r2 values 4e-16 apart: each within 1e-15 of its neighbour,
    # not all within 1e-15 of the first
    base = draw(st.sampled_from(_LEVELS))
    pts += [(draw(_RATES), base + k * 4e-16) for k in range(draw(st.integers(0, 6)))]
    pts = draw(st.permutations(pts))
    return [Pt(r1, r2, 0.01 * i) for i, (r1, r2) in enumerate(pts)]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_clouds())
# a gap of exactly 1e-15 is a duplicate; so is each step of a 4e-16 run
# until the run has moved more than 1e-15 from the last point kept
@example([pt(1.0, 0.0, 0.0), pt(0.9, 1e-15, 0.1), pt(0.8, 0.5, 0.2)])
@example([pt(1.0 - 0.1 * k, 0.5 + k * 4e-16, 0.1 * k) for k in range(6)])
def test_array_core_matches_the_object_reference(points):
    labels = [{"i": i} for i in range(len(points))]
    # one part per point, so that each point carries its own label
    parts = [([p.r1], [p.r2], [p.rho], {"i": i}) for i, p in enumerate(points)]
    for hull, ref in ((False, _ref_assemble), (True, _ref_hull)):
        want = _outcome(ref, points, labels)
        assert _outcome(lambda: frontier(*parts, hull=hull)) == want


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(_RATES, _RATES), max_size=12))
def test_boundary_curve_validation_matches_the_point_loop(pairs):
    points = [Pt(r1, r2, 0.5) for r1, r2 in pairs]
    assert _outcome(curve_of, points) == _outcome(
        lambda p: (_ref_validate(p), (p, [{}] * len(p), False))[1], points
    )
