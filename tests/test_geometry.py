from __future__ import annotations

import math

import numpy as np
import pytest

from sqpack.geometry import (
    Pose, Region, ceil_guard, corners, floor_guard, frac_guard, points_in_region,
    rect_region, region_area, trap_region, tri_region,
)
from oracles import (
    fold_square_pose, local_polygon_by_kind, overlap_area_estimate, points_in_region_by_kind,
    quads_disjoint, region_area_by_kind, shoelace,
)


def test_square_corners_identity():
    assert corners(np.array([[0.0, 0.0, 0.0]])).tolist() == [[[0, 0], [1, 0], [1, 1], [0, 1]]]


def test_square_corners_quarter_turn():
    got = corners(np.array([[0.0, 0.0, math.pi / 2]]))[0]
    want = [(0, 0), (0, 1), (-1, 1), (-1, 0)]
    for (gx, gy), (wx, wy) in zip(got, want):
        assert abs(gx - wx) < 1e-12 and abs(gy - wy) < 1e-12


def test_square_corners_against_rotation_matrix():
    c, s = math.cos(0.4056), math.sin(0.4056)
    rot = np.array([[c, -s], [s, c]])
    unit = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    want = unit @ rot.T + np.array([2.0, 3.0])
    got = corners(np.array([[2.0, 3.0, 0.4056]]))[0]
    assert np.abs(got - want).max() < 1e-12


def test_square_corner_edges_unit_length():
    rng = np.random.RandomState(7)
    for _ in range(200):
        pose = (rng.uniform(-50, 50), rng.uniform(-50, 50),
                rng.uniform(-math.pi / 2, math.pi / 2))
        pts = corners(np.array([pose]))[0].tolist()
        for i in range(4):
            x1, y1 = pts[i]
            x2, y2 = pts[(i + 1) % 4]
            assert abs(math.hypot(x2 - x1, y2 - y1) - 1.0) < 1e-12
        assert abs(shoelace(pts) - 1.0) < 1e-12


def test_fold_square_pose_preserves_square():
    rng = np.random.RandomState(3)
    for _ in range(100):
        pose = Pose(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-4, 4))
        folded = Pose(*fold_square_pose(pose.tx, pose.ty, pose.angle))
        assert -math.pi / 2 - 1e-12 <= folded.angle <= math.pi / 2 + 1e-12
        a, b = map(sorted, corners(np.array([[p.tx, p.ty, p.angle]
                                             for p in (pose, folded)])).tolist())
        assert np.abs(np.array(a) - np.array(b)).max() < 1e-9


def test_quads_disjoint_touching_edges():
    a, b = corners(np.array([[0.0, 0, 0], [1, 0, 0]])).tolist()
    assert quads_disjoint(a, b, 1e-9)


def test_quads_disjoint_overlap():
    a, b = corners(np.array([[0.0, 0, 0], [0.5, 0.5, 0]])).tolist()
    assert not quads_disjoint(a, b, 1e-9)


def test_quads_disjoint_rotated_case_vs_sampling():
    a, b = corners(np.array([[0.0, 0, 0], [1.2, 0, math.pi / 6]])).tolist()
    rng = np.random.RandomState(0)
    est = overlap_area_estimate(a, b, rng, 10_000)
    assert quads_disjoint(a, b, 1e-9) == (est < 1e-8)


def test_quads_disjoint_symmetric_and_matches_sampling_oracle():
    rng = np.random.RandomState(42)
    tau = 1e-9
    disagreements = 0
    for _ in range(1000):
        p1 = (rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(-1.5, 1.5))
        p2 = (rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(-1.5, 1.5))
        a, b = corners(np.array([p1, p2])).tolist()
        d1 = quads_disjoint(a, b, tau)
        assert d1 == quads_disjoint(b, a, tau)
        est = overlap_area_estimate(a, b, rng, 2000)
        if est > 10 * tau and est > 5e-3:  # clearly overlapping
            if d1:
                disagreements += 1
    assert disagreements == 0


def test_point_in_region_rect():
    r = rect_region(10, 5)
    assert points_in_region(r, np.array([[5, 2.5]], dtype=float), 0.0)[0]
    assert not points_in_region(r, np.array([[10 + 1e-6, 2.5]]), 1e-9)[0]


def test_point_in_region_trap_slant_midpoint():
    r = trap_region(4, 3, 5)
    # slant edge runs (5,0) -> (3,4); its midpoint must sit inside at tau=1e-9
    mid = (4.0, 2.0)
    assert points_in_region(r, np.array([mid]), 1e-9)[0]
    # independent half-plane check: outward normal of the slant edge
    ex, ey = 3 - 5, 4 - 0
    nx, ny = ey, -ex
    nl = math.hypot(nx, ny)
    assert abs((nx * (mid[0] - 5) + ny * (mid[1] - 0)) / nl) < 1e-12


def test_point_in_region_mirror():
    r = trap_region(4, 3, 5, Pose(0, 0, 0), mirror=True)
    assert points_in_region(r, np.array([[-4.0, 2.0]]), 1e-9)[0]
    assert not points_in_region(r, np.array([[4.0, 2.0]]), 1e-9)[0]


def test_points_in_region_matches_polygon_on_mirrored_regions():
    rng = np.random.RandomState(2)
    for region in (trap_region(4, 1, 3, Pose(2, 1, math.pi / 2), mirror=True),
                   tri_region(3, 5, Pose(-1, 4, math.pi), mirror=True),
                   rect_region(2, 6, Pose(0, 0, -math.pi / 2), mirror=True)):
        poly = region.polygon()
        lo, hi = np.min(poly, axis=0), np.max(poly, axis=0)
        pts = rng.uniform(lo - 1, hi + 1, size=(500, 2))
        inside = points_in_region(region, pts, 0.0)
        # shoelace sign test against every edge of the counterclockwise polygon
        ref = np.ones(len(pts), dtype=bool)
        for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
            ref &= (x2 - x1) * (pts[:, 1] - y1) - (y2 - y1) * (pts[:, 0] - x1) >= 0
        assert np.array_equal(inside, ref)
        assert inside.any() and not inside.all()


def test_region_area_examples():
    assert region_area(rect_region(10.5, 4)) == 42.0
    assert region_area(trap_region(4, 3, 5)) == 16.0
    assert region_area(tri_region(3, 4)) == 6.0


def test_region_area_matches_shoelace_on_random_regions():
    rng = np.random.RandomState(11)
    for _ in range(1000):
        kind = rng.randint(3)
        frame = Pose(rng.uniform(-9, 9), rng.uniform(-9, 9),
                     rng.choice([0.0, math.pi / 2, -math.pi / 2, math.pi]))
        mirror = bool(rng.randint(2))
        if kind == 0:
            r = rect_region(rng.uniform(0.1, 20), rng.uniform(0.1, 20), frame)
        elif kind == 1:
            a_top = rng.uniform(0.0, 10)
            r = trap_region(rng.uniform(0.1, 20), a_top,
                            a_top + rng.uniform(0.01, 10), frame, mirror)
        else:
            r = tri_region(rng.uniform(0.1, 20), rng.uniform(0.1, 20), frame)
        area = region_area(r)
        assert abs(abs(shoelace(r.polygon())) - area) <= 1e-9 * max(area, 1.0)


def _random_region(rng, kind: str) -> Region:
    frame = Pose(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-7, 7))
    mirror = bool(rng.randint(2))
    if kind == "rect":
        return rect_region(rng.uniform(0.5, 20), rng.uniform(0.5, 20), frame, mirror)
    if kind == "tri":
        return tri_region(rng.uniform(0.5, 20), rng.uniform(0.5, 20), frame, mirror)
    # a third of the trapezoids are rectangles, and a third come to a point
    a_top, a_bot = [(rng.uniform(0.5, 10),) * 2, (0.0, rng.uniform(0.5, 10)),
                    sorted(rng.uniform(0.5, 20, 2))][rng.randint(3)]
    return trap_region(rng.uniform(0.5, 20), a_top, a_bot, frame, mirror)


def _near_edges(rng, poly, n: int, d: float) -> np.ndarray:
    """`n` points within `d` of each edge of `poly` (bar empty ones), up to `d`
    past its ends."""
    out = []
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        length = math.hypot(x2 - x1, y2 - y1)
        if length == 0.0:
            continue
        t = rng.uniform(-d / length, 1 + d / length, n)
        off = rng.uniform(-d, d, n) / length  # along the edge's normal
        out.append(np.stack([x1 + t * (x2 - x1) - off * (y2 - y1),
                             y1 + t * (y2 - y1) + off * (x2 - x1)], axis=1))
    return np.concatenate(out)


@pytest.mark.parametrize("kind", ["rect", "trap", "tri"])
def test_the_one_trapezoid_is_each_kind_shape(kind):
    """Polygon, area and membership from `Region.trap` equal the shapes
    written out kind by kind, at the edges too, bar a triangle's apex."""
    rng = np.random.RandomState({"rect": 3, "trap": 4, "tri": 5}[kind])
    for _ in range(300):
        r = _random_region(rng, kind)
        local = local_polygon_by_kind(r)
        assert r.local_polygon() == local
        assert r.polygon() == [r.frame.apply(x, y) for x, y in local]
        assert region_area(r).hex() == region_area_by_kind(r).hex()
        pts = _near_edges(rng, r.polygon(), 50, 1e-6)
        if kind == "tri":  # the apex is the vertex (0, v) of the local triangle
            ax, ay = r.frame.apply(0.0, r.dims[1])
            pts = pts[np.hypot(pts[:, 0] - ax, pts[:, 1] - ay) > 1e-6]
        for tau in (-1e-9, 0.0, 1e-9):
            inside = points_in_region(r, pts, tau)
            assert np.array_equal(inside, points_in_region_by_kind(r, pts, tau))
            assert inside.any() and not inside.all()
    disc = Region("disc", (1.0,))
    for shape in (disc.local_polygon, lambda: region_area(disc),
                  lambda: points_in_region(disc, np.zeros((1, 2)), 0.0)):
        with pytest.raises(ValueError, match="unknown region kind"):
            shape()


def test_guarded_rounding():
    assert floor_guard(7.0 - 1e-13) == 7
    assert ceil_guard(7.0 + 1e-13) == 7
    assert frac_guard(7.0 - 1e-13) == 0.0
    assert frac_guard(6.25) == 0.25


def test_trap_region_rejects_bad_dims():
    with pytest.raises(ValueError):
        trap_region(4, 5, 3)
    with pytest.raises(ValueError):
        rect_region(-1, 2)
