"""Independent reference computations used only by the tests.

These deliberately avoid the code paths they check: bisection instead of
the closed-form tilt solver, a scalar corner-projection separating-axis
test instead of the verifier's vectorised centre-form one, Monte Carlo
sampling to check that test in turn, shoelace instead of closed-form
areas, a per-node expansion of grids and stack runs instead of the
lattice list, and KD-tree searches over every enumerated square instead of
the verifier's lattice solves: a point join for coverage, and for packing
every pair of centres within sqrt(2), tested with the verifier's SAT.
Covering is checked by dense uniform samples of the target, or of a
suspect part of it, instead of the verifier's crossing points.
"""

from __future__ import annotations

import math

import numpy as np

from sqpack.geometry import corners, fold_square_pose, points_in_region
from sqpack.plan import enumerate_placements
from sqpack.verifier import _overlap_mask


def bisect_tilt(m: float, kind: str, iters: int = 80) -> float:
    """Bisection root of n*cos(t) +/- sin(t) = m on the decreasing branch.

    The residual uses (n - m) - 2*n*sin(t/2)**2 +/- sin(t) so it stays
    meaningful at large widths (the naive form drowns in eps*m noise).
    """
    n = math.ceil(m - 1e-12)
    if abs(m - round(m)) <= 1e-12:
        return 0.0
    sign = 1.0 if kind == "pack" else -1.0

    def f(t: float) -> float:
        s = math.sin(t / 2.0)
        return (n - m) - 2.0 * n * s * s + sign * math.sin(t)

    lo = math.atan2(1.0, n) if kind == "pack" else 0.0
    hi = math.pi / 2
    assert f(lo) > 0.0 > f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def shoelace(points) -> float:
    acc = 0.0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return 0.5 * acc


def sample_quad(quad, rng: np.random.RandomState, n: int) -> np.ndarray:
    """Uniform points inside a convex quad by fan triangulation."""
    q = np.asarray(quad, dtype=float)
    t1 = np.array([q[0], q[1], q[2]])
    t2 = np.array([q[0], q[2], q[3]])
    a1 = abs(shoelace(t1))
    a2 = abs(shoelace(t2))
    pick = rng.uniform(size=n) < a1 / (a1 + a2)
    u = rng.uniform(size=(n, 2))
    flip = u.sum(axis=1) > 1.0
    u[flip] = 1.0 - u[flip]
    tris = np.where(pick[:, None, None], t1, t2)
    base = tris[:, 0]
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    return base + u[:, :1] * e1 + u[:, 1:] * e2


def point_in_quad(p, quad) -> bool:
    """Strict interior test for a counterclockwise convex quad."""
    n = len(quad)
    for i in range(n):
        x1, y1 = quad[i]
        x2, y2 = quad[(i + 1) % n]
        if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
            return False
    return True


def overlap_area_estimate(q1, q2, rng: np.random.RandomState, n: int = 10_000) -> float:
    """Monte Carlo overlap area of two convex quads."""
    pts = sample_quad(q1, rng, n)
    hits = sum(1 for p in pts if point_in_quad(p, q2))
    return abs(shoelace(q1)) * hits / n


def _shrink_toward_centroid(poly, tau: float):
    cx = sum(p[0] for p in poly) / len(poly)
    cy = sum(p[1] for p in poly) / len(poly)
    out = []
    for x, y in poly:
        dx = cx - x
        dy = cy - y
        d = math.hypot(dx, dy)
        if d <= tau:
            out.append((cx, cy))
        else:
            out.append((x + tau * dx / d, y + tau * dy / d))
    return out


def quads_disjoint(q1, q2, tau: float) -> bool:
    """True iff the quads' interiors, each shrunk by tau, do not intersect.

    Separating-axis test over the 8 edge normals. Convex counterclockwise
    quads expected; touching edges count as disjoint for any tau > 0.
    """
    a = _shrink_toward_centroid(q1, tau)
    b = _shrink_toward_centroid(q2, tau)
    for poly in (a, b):
        for i in range(4):
            x1, y1 = poly[i]
            x2, y2 = poly[(i + 1) % 4]
            nx, ny = y2 - y1, x1 - x2
            norm = math.hypot(nx, ny)
            if norm == 0.0:
                continue
            nx /= norm
            ny /= norm
            amin = min(nx * p[0] + ny * p[1] for p in a)
            amax = max(nx * p[0] + ny * p[1] for p in a)
            bmin = min(nx * p[0] + ny * p[1] for p in b)
            bmax = max(nx * p[0] + ny * p[1] for p in b)
            if amax <= bmin or bmax <= amin:
                return True
    return False


def _centres(poses: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centres of unit squares at `poses`, and the cosines and sines of their angles."""
    c = np.cos(poses[:, 2])
    s = np.sin(poses[:, 2])
    return np.stack([poses[:, 0] + (c - s) / 2.0, poses[:, 1] + (s + c) / 2.0], axis=1), c, s


def covered_by_kd_join(pts: np.ndarray, poses: np.ndarray, tau: float) -> np.ndarray:
    """Boolean mask: point inside at least one of the enumerated squares
    (squares inflated by tau), joined through KD-trees on the square centres
    and the points."""
    from scipy.spatial import cKDTree

    centres, _, _ = _centres(poses)
    # a point of a tau-inflated unit square lies within sqrt(1/2) + sqrt(2) tau
    # of its centre
    near = cKDTree(centres).sparse_distance_matrix(
        cKDTree(pts), math.sqrt(0.5) + 2.0 * tau, output_type="ndarray")
    srow, prow = near["i"], near["j"]
    cos = np.cos(poses[srow, 2])
    sin = np.sin(poses[srow, 2])
    dxp = pts[prow, 0] - poses[srow, 0]
    dyp = pts[prow, 1] - poses[srow, 1]
    u = cos * dxp + sin * dyp
    v = -sin * dxp + cos * dyp
    inside = (u >= -tau) & (u <= 1 + tau) & (v >= -tau) & (v <= 1 + tau)
    covered = np.zeros(len(pts), dtype=bool)
    covered[prow[inside]] = True
    return covered


def enumerate_by_node(node, box=None) -> np.ndarray:
    """World poses of a plan tree, node by node in pre-order: a grid
    row-major from its origin, each stack run from its folded base. With
    `box` (x0, y0, x1, y1), only the squares whose base lies in it: grids
    are cut to the rows and columns that can reach it and runs are read a
    few rows at a time, so plans of any size can be searched."""
    out = []

    def keep(poses):
        if box is not None:
            x, y = poses[:, 0], poses[:, 1]
            poses = poses[(x >= box[0]) & (x <= box[2]) & (y >= box[1]) & (y <= box[3])]
        out.append(poses)

    def walk(n):
        if n.kind == "grid" and n.rows * n.cols > 0:
            ox, oy = n.origin
            cols, rows = np.arange(n.cols), np.arange(n.rows)
            if box is not None:
                cols = cols[(ox + cols >= box[0] - 1) & (ox + cols <= box[2] + 1)]
                rows = rows[(oy + rows >= box[1] - 1) & (oy + rows <= box[3] + 1)]
            jj, ii = np.meshgrid(cols, rows)
            keep(np.stack([ox + jj.ravel(), oy + ii.ravel(), np.zeros(jj.size)], axis=1))
        elif n.kind == "stacks":
            for run in n.runs:
                base = fold_square_pose(run.base)
                ends = (np.array([base.tx, base.ty]) + np.array([0, run.count - 1])[:, None, None]
                        * np.array(run.step) + np.array([0, run.repeat - 1])[:, None] * run.pitch)
                if box is not None and ((ends.max(axis=(0, 1)) < box[:2]).any()
                                        or (ends.min(axis=(0, 1)) > box[2:]).any()):
                    continue  # no base of the run lies in the box
                step = run.repeat if box is None else max(1, 1_000_000 // max(run.count, 1))
                for j0 in range(0, run.repeat, step):
                    rows = np.arange(j0, min(j0 + step, run.repeat))
                    ii, jj = np.meshgrid(np.arange(run.count), rows)
                    poses = np.empty((ii.size, 3))
                    poses[:, 0] = base.tx + ii.ravel() * run.step[0] + jj.ravel() * run.pitch[0]
                    poses[:, 1] = base.ty + ii.ravel() * run.step[1] + jj.ravel() * run.pitch[1]
                    poses[:, 2] = base.angle
                    keep(poses)
        for c in n.children:
            walk(c)

    walk(node)
    return np.concatenate(out, axis=0) if out else np.empty((0, 3))


def uncovered_samples(plan, n: int, rng: np.random.RandomState, quad=None,
                      poses=None, tau: float = 1e-9) -> np.ndarray:
    """The dense-sampling covering check: of n uniform points of the convex
    `quad` (the target by default) that lie in the target, those in no
    square of `poses` (every square of the plan by default, enumerated node
    by node) inflated by tau."""
    quad = list(plan.region.polygon() if quad is None else quad)
    pts = sample_quad(quad + quad[-1:] * (4 - len(quad)), rng, n)
    pts = pts[points_in_region(plan.region, pts, 0.0)]
    poses = enumerate_by_node(plan.root) if poses is None else poses
    return pts[~covered_by_kd_join(pts, poses, tau)]


def packing_by_kd_pairs(plan, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The packing check over every enumerated square: the flat indices of
    the squares with a corner outside `plan.region`, and the (N, 2)
    overlapping pairs i < j in order. Candidate pairs are the centres
    within sqrt(2) (cKDTree.query_pairs); each is tested with the SAT."""
    from scipy.spatial import cKDTree

    poses = enumerate_placements(plan, limit=5_000_000)
    inside = points_in_region(plan.region, corners(poses).reshape(-1, 2), tau)
    centres, c, s = _centres(poses)
    pairs = cKDTree(centres).query_pairs(math.sqrt(2.0), output_type="ndarray")
    ii, jj = pairs.reshape(-1, 2).T
    d = centres[jj] - centres[ii]
    hits = pairs.reshape(-1, 2)[_overlap_mask(d[:, 0], d[:, 1], c[ii], s[ii], c[jj], s[jj], tau)]
    hits = hits[np.lexsort((hits[:, 1], hits[:, 0]))]
    return np.nonzero(~inside.reshape(-1, 4).all(axis=1))[0], hits
