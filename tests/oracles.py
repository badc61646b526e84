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
suspect part of it, instead of the verifier's crossing points. Packing is
also checked by ring probes of every lattice, without the verifier's hull
and offset certificates, and covering by ring probes of every lattice,
without the verifier's rectangles for level lattices. Plan files are
checked through the version 2 dict of a plan's world tree: every use written
out, each node mapped by its composed graft one scalar at a time, as plans
were mapped before their shelves and wedges were shared, instead of the
shared version 3 text, and that text is written as one dict of the whole
plan, instead of the writer's text per node. Plans are accounted by
recursion into every use of every node, instead of `account`'s one pass
over the distinct nodes. Square poses are
folded one quarter turn at a time, instead of by the lattice table's masked
passes. Region polygons, areas and membership are
written out kind by kind instead of from the one right trapezoid
(`Region.trap`) every kind is.
"""

from __future__ import annotations

import math

import numpy as np

from sqpack.geometry import (
    IDENTITY, Pose, Region, compose_graft, corners, points_in_region, region_area,
)
from sqpack.plan import (
    AREA_RTOL, NODE_KINDS, PlanError, StackRun, WasteReport, definitions, dumps_stable,
    enumerate_placements, plan_from_json, stacks_node,
)
from sqpack import verifier
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


def local_polygon_by_kind(region) -> list[tuple[float, float]]:
    """`region.local_polygon()`, one shape per kind."""
    if region.kind == "rect":
        w, h = region.dims
        poly = [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]
    elif region.kind == "trap":
        h, a_top, a_bot = region.dims
        poly = [(0.0, 0.0), (a_bot, 0.0), (a_top, h), (0.0, h)]
    elif region.kind == "tri":
        u, v = region.dims
        poly = [(0.0, 0.0), (u, 0.0), (0.0, v)]
    else:
        raise ValueError(f"unknown region kind {region.kind!r}")
    if region.mirror:
        poly = [(-x, y) for x, y in reversed(poly)]
    return poly


def region_area_by_kind(region) -> float:
    """`region_area(region)`, one formula per kind."""
    if region.kind == "rect":
        w, h = region.dims
        return w * h
    if region.kind == "trap":
        h, a_top, a_bot = region.dims
        return h * (a_top + a_bot) / 2.0
    if region.kind == "tri":
        u, v = region.dims
        return u * v / 2.0
    raise ValueError(f"unknown region kind {region.kind!r}")


def points_in_region_by_kind(region, pts: np.ndarray, tau: float) -> np.ndarray:
    """`points_in_region(region, pts, tau)`, one test per kind; a triangle has no
    top edge, which its hypotenuse implies to within about tau*hypot(u, v)/u
    of the apex."""
    fr = region.frame
    c, s = math.cos(fr.angle), math.sin(fr.angle)
    dx = pts[:, 0] - fr.tx
    dy = pts[:, 1] - fr.ty
    x = c * dx + s * dy
    y = -s * dx + c * dy
    if region.mirror:
        x = -x
    if region.kind == "rect":
        w, h = region.dims
        return (x >= -tau) & (x <= w + tau) & (y >= -tau) & (y <= h + tau)
    if region.kind == "trap":
        h, a_top, a_bot = region.dims
        ex, ey = a_top - a_bot, h
        norm = math.hypot(ex, ey)
        slant = (ey * (x - a_bot) - ex * y) / norm <= tau
        return (x >= -tau) & (y >= -tau) & (y <= h + tau) & slant
    if region.kind == "tri":
        u, v = region.dims
        norm = math.hypot(u, v)
        hyp = (v * (x - u) + u * y) / norm <= tau
        return (x >= -tau) & (y >= -tau) & hyp
    raise ValueError(f"unknown region kind {region.kind!r}")


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


def fold_square_pose(tx: float, ty: float, a: float) -> tuple[float, float, float]:
    """The base (tx, ty) and angle a of the same square with a folded into [-pi/2, pi/2].

    A square is invariant under quarter turns; folding relabels which corner
    is the base point.
    """
    while a > math.pi / 2 + 1e-15:
        a -= math.pi / 2
        tx -= math.cos(a)
        ty -= math.sin(a)
    while a < -math.pi / 2 - 1e-15:
        a += math.pi / 2
        tx += math.sin(a)
        ty -= math.cos(a)
    return tx, ty, a


def stack_runs(node) -> list:
    """The runs of a stacks node as `StackRun` records, read off its columns."""
    return [StackRun(Pose(bx, by, a), (ux, uy), count, repeat, (px, py), label)
            for (bx, by, a, ux, uy, px, py), count, repeat, label
            in zip(node.runs.tolist(), node.counts, node.repeats, node.run_labels)]


def set_runs(node, runs) -> None:
    """Give `node` the run columns of a list of `StackRun`, as `stacks_node` fills them."""
    fresh = stacks_node(None, runs, area=0.0)
    node.runs, node.counts, node.repeats, node.run_labels = (
        fresh.runs, fresh.counts, fresh.repeats, fresh.run_labels)


def map_run(run, frame, mirror: bool):
    """`run` mapped by (frame, mirror) one scalar at a time, in the operation
    order that `plan.map_runs` applies to every run at once."""
    tx, ty, fa = frame.tx, frame.ty, frame.angle
    c, s = math.cos(fa), math.sin(fa)
    sx = -1.0 if mirror else 1.0
    b, (ux, uy), (px, py) = run.base, run.step, run.pitch
    bx, by, ux, px = sx * b.tx, b.ty, sx * ux, sx * px
    # a reflected square is re-anchored at its other bottom corner
    angle = fa + (math.pi / 2 - b.angle if mirror else b.angle)
    return StackRun(Pose(tx + (c * bx - s * by), ty + (s * bx + c * by), angle),
                    (c * ux - s * uy, s * ux + c * uy), run.count, run.repeat,
                    (c * px - s * py, s * px + c * py), run.label)


def world_runs_by_node(root) -> list:
    """The world runs of every use of every node of the tree `root`, in
    pre-order: each use's frame composed down the tree, root first, and each
    run mapped by `map_run`."""
    out = []

    def visit(node, outer):
        frame = outer if node.graft is None else compose_graft(outer, node.graft)
        out.append([map_run(r, *frame) for r in stack_runs(node)])
        for c in node.children:
            visit(c, frame)

    visit(root, (IDENTITY, False))
    return out


def enumerate_by_node(node, box=None) -> np.ndarray:
    """World poses of a plan tree, node by node in pre-order, each use mapped by
    its composed graft one scalar at a time (`map_grid`, `map_run`): a grid
    row-major from its origin, each stack run from its folded base. With `box`
    (x0, y0, x1, y1), only the squares whose base lies in it: grids are cut to
    the rows and columns that can reach it and runs are read a few rows at a
    time, so plans of any size can be searched."""
    out = []

    def keep(poses):
        if box is not None:
            x, y = poses[:, 0], poses[:, 1]
            poses = poses[(x >= box[0]) & (x <= box[2]) & (y >= box[1]) & (y <= box[3])]
        out.append(poses)

    def walk(n, outer):
        frame = outer if n.graft is None else compose_graft(outer, n.graft)
        if n.kind == "grid":
            (ox, oy), n_rows, n_cols = map_grid(n, *frame)
            cols, rows = np.arange(n_cols), np.arange(n_rows)
            if box is not None:
                cols = cols[(ox + cols >= box[0] - 1) & (ox + cols <= box[2] + 1)]
                rows = rows[(oy + rows >= box[1] - 1) & (oy + rows <= box[3] + 1)]
            jj, ii = np.meshgrid(cols, rows)
            if jj.size:
                keep(np.stack([ox + jj.ravel(), oy + ii.ravel(), np.zeros(jj.size)], axis=1))
        elif n.kind == "stacks":
            for run in (map_run(r, *frame) for r in stack_runs(n)):
                base = Pose(*fold_square_pose(run.base.tx, run.base.ty, run.base.angle))
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
            walk(c, frame)

    walk(node, (IDENTITY, False))
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


def packing_by_ring_probes(plan) -> tuple[int, np.ndarray]:
    """The packing check by probes of every lattice through the verifier's own
    probe helpers, with no certificate: the ring of each solid lattice at
    least 3 long each way, all of the others, and after an overlap once more
    with the smaller lattice of each overlapping pair in full. The number of
    overlapping pairs and the (N, 2) pairs a report lists."""
    table, _ = verifier._setup(plan, "pack")
    _, _, found, (pairs, _) = verifier._overlaps(table)
    return found, pairs


def _square_edges(tx, ty, ang):
    """(N, 4, 2) corners and edge vectors of unit squares, counterclockwise."""
    sq = corners(np.stack([tx, ty, ang], axis=1))
    return sq, np.roll(sq, -1, axis=1) - sq


def covering_by_ring_probes(plan):
    """The covering check by probes of every lattice's ring (all squares of
    lattices that are not solid or not 3 long each way): the crossings of each
    probe with the target's edges and with each probe within reach, less the
    pairs inside one level lattice, nudged and tested as the verifier tests
    them. Returns the report, whose `runtime_stats` count the work."""
    table, report = verifier._setup(plan, "cover")
    corner = np.array(plan.region.polygon())[::-1]  # clockwise
    near = ((table["hull"].max(axis=1) >= corner.min(axis=0) - 1.0)
            & (table["hull"].min(axis=1) <= corner.max(axis=0) + 1.0)).all(axis=1)
    table = {f: v[near] for f, v in table.items()}
    level = table["solid"] & ~table["full"] & (np.abs(table["pk"]) <= verifier.TAU)
    nu = 2.0 * (verifier.TAU + 2.0 * verifier._SLACK * float(table["scale"].max(initial=0.0)))
    side = np.roll(corner, -1, axis=0) - corner
    corner, side = corner[(side != 0).any(axis=1)], side[(side != 0).any(axis=1)]
    found = [verifier._nudged(corner, np.roll(side, 1, 0), side, nu)]
    stats = report.runtime_stats
    stats.update(lattices=len(table["n"]), probes=0, candidate_pairs=0, nudge=nu, point_tests=0)
    for ka, a, cx, cy, kb, b, ring, bx, by in verifier._probe_pairs(table):
        ca, sa = table["c"][ka], table["s"][ka]
        ax, ay = cx - (ca - sa) / 2.0, cy - (sa + ca) / 2.0
        me = a == b
        stats["probes"] += int(me.sum())
        p, d = _square_edges(ax[me], ay[me], table["ang"][ka[me]])
        (row, e, t), at = verifier._crossings(p[:, :, None], d[:, :, None], corner, side, nu)
        found.append(verifier._nudged(at, d[row, e], side[t], nu))
        keep = ring & (a < b) & ((ka != kb) | ~level[ka])
        stats["candidate_pairs"] += int(keep.sum())
        pa, da = _square_edges(ax[keep], ay[keep], table["ang"][ka[keep]])
        pb, db = _square_edges(bx[keep], by[keep], table["ang"][kb[keep]])
        (row, ea, eb), at = verifier._crossings(pa[:, :, None], da[:, :, None],
                                                pb[:, None], db[:, None], nu)
        found.append(verifier._nudged(at, da[row, ea], db[row, eb], nu))
    pts = np.concatenate(found)
    with np.errstate(invalid="ignore"):  # a point at infinity is in no region
        pts = pts[points_in_region(plan.region, pts, 0.0)]
    covered, stats["point_tests"] = verifier._points_covered(pts, table, verifier.TAU)
    report.sampled_points = len(pts)
    report.add_violations("uncovered", pts[~covered])
    return report.finish()


def map_grid(node, frame, mirror: bool) -> tuple[tuple, int, int]:
    """The world origin, rows and cols of grid `node` under (frame, mirror): the
    two opposite corners of the block mapped one scalar at a time, and the lower
    of each coordinate taken; a quarter turn swaps rows and cols."""
    tx, ty, fa = frame.tx, frame.ty, frame.angle
    k = round(fa / (math.pi / 2))
    if abs(fa - k * math.pi / 2) > 1e-9:
        raise PlanError("grids only survive quarter-turn frames")
    c, s = math.cos(fa), math.sin(fa)
    sx = -1.0 if mirror else 1.0
    ox, oy = node.origin
    x1, y1, x2, y2 = sx * ox, oy, sx * (ox + node.cols), oy + node.rows
    origin = (min(tx + (c * x1 - s * y1), tx + (c * x2 - s * y2)),
              min(ty + (s * x1 + c * y1), ty + (s * x2 + c * y2)))
    return (origin, node.cols, node.rows) if k % 2 else (origin, node.rows, node.cols)


def _pose_to_list(p) -> list[float]:
    return [p.tx, p.ty, p.angle]


def _region_to_dict(r, graft=None):
    if r is None:
        return None
    if graft is not None:
        r = Region(r.kind, r.dims, *compose_graft(graft, (r.frame, r.mirror)))
    return {"kind": r.kind, "dims": list(r.dims), "frame": _pose_to_list(r.frame),
            "mirror": r.mirror}


def _run_to_list(r) -> list:
    return [r.base.tx, r.base.ty, r.base.angle, r.step[0], r.step[1],
            r.count, r.repeat, r.pitch[0], r.pitch[1], r.label]


def _node_to_dict(n, outer=None) -> dict:
    """The version 2 dict of `n` and its subtree. With `outer`, the world
    (frame, mirror) of its parent, every node is mapped by its graft composed
    with its ancestors'; with none, each is written as it is held."""
    frame = None if outer is None else outer if n.graft is None else compose_graft(outer, n.graft)
    d = {"kind": n.kind, "region": _region_to_dict(n.region, frame), "area": n.area,
         "label": n.label}
    if n.kind == "split":
        d["children"] = [_node_to_dict(c, frame) for c in n.children]
    elif n.kind == "grid":
        origin, d["rows"], d["cols"] = ((n.origin, n.rows, n.cols) if frame is None
                                        else map_grid(n, *frame))
        d["origin"] = list(origin)
    elif n.kind == "stacks":
        runs = stack_runs(n) if frame is None else [map_run(r, *frame) for r in stack_runs(n)]
        d["runs"] = [_run_to_list(r) for r in runs]
        d["leftovers"] = [_node_to_dict(c, frame) for c in n.children]
        d["ledger"] = n.ledger
    elif n.kind == "waste":
        d["reason"] = n.reason
    return d


def plan_to_dict(plan, world: bool = True) -> dict:
    """The version 2 dict of `plan`; `dumps_stable` of it is the plan file. With
    `world`, the tree is flattened: every use written out in world coordinates."""
    return {
        "version": 2,
        "kind": plan.kind,
        "x": plan.x,
        "region": _region_to_dict(plan.region),
        "meta": plan.meta,
        "root": _node_to_dict(plan.root, (IDENTITY, False) if world else None),
    }


def v2_text(plan) -> str:
    """The version 2 file of `plan`'s world tree."""
    return dumps_stable(plan_to_dict(plan))


def plan_to_json_by_dicts(plan) -> str:
    """`plan.plan_to_json` as `dumps_stable` of one dict of the whole plan: each distinct node's
    dict built once, in the post-order of `definitions`, and nested into its parent's, instead of
    the writer's text per node, spliced between the keys on either side of the child array."""
    written, defs = {}, []  # id(children) -> the dict a use of it writes, before its graft

    def use(n) -> dict:
        d = written[id(n.children)]
        if n.graft is not None:
            (f, m) = n.graft
            d = dict(d) if "def" in d else d  # each use of a definition writes its own
            d["graft"] = [f.tx, f.ty, f.angle, m]
        return d

    for key, d in definitions(plan.root).items():
        n = d.node
        body = {"area": n.area, "kind": n.kind, "label": n.label,
                "region": _region_to_dict(n.region)}
        if n.kind == "split":
            body["children"] = [use(c) for c in n.children]
        elif n.kind == "grid":
            body.update(origin=list(n.origin), rows=n.rows, cols=n.cols)
        elif n.kind == "stacks":
            body["leftovers"] = [use(c) for c in n.children]
            body["ledger"] = n.ledger
            body["runs"] = [[*v[:5], c, m, *v[5:], label] for v, c, m, label
                            in zip(n.runs.tolist(), n.counts, n.repeats, n.run_labels)]
        elif n.kind == "waste":
            body["reason"] = n.reason
        if d.holds > 1:
            defs.append(body)
            body = {"def": len(defs) - 1}
        written[key] = body
    return dumps_stable({"defs": defs, "kind": plan.kind, "meta": plan.meta, "version": 3,
                         "region": _region_to_dict(plan.region), "root": use(plan.root),
                         "x": plan.x})


def world_plan(plan):
    """`plan` loaded from its version 2 text: every use a node of its own, in world
    coordinates, with no graft, so a test can edit one square, run or leaf."""
    return plan_from_json(v2_text(plan))


def _check_node(node, kind: str, path: str) -> tuple[int, list[int]]:
    """Assert conservation at `node` and below in one walk; return the
    subtree's square count and the count of each child subtree."""
    if node.kind not in NODE_KINDS:
        raise PlanError(f"{path}: unknown node kind {node.kind!r}")
    if kind == "cover" and node.kind == "waste":
        raise PlanError(f"{path}: covering plans cannot declare waste nodes")
    if node.kind == "split":
        child_sum = sum(c.area for c in node.children)
        if abs(child_sum - node.area) > AREA_RTOL * max(node.area, 1.0):
            raise PlanError(f"{path}: split children areas {child_sum} != {node.area}")
    parts = [_check_node(c, kind, f"{path}.{i}")[0] for i, c in enumerate(node.children)]
    count = node.own_count() + sum(parts)
    if kind == "pack" and node.area - count < -AREA_RTOL * max(node.area, 1.0):
        raise PlanError(f"{path}: packing node holds {count} squares in area {node.area}")
    return count, parts


def account_by_recursion(plan) -> WasteReport:
    """`plan.account` by recursion into every use of every node: conservation is
    asserted where each use stands, and an error names the first path in pre-order
    that fails a node's own checks, or whose subtree holds too many squares."""
    count, parts = _check_node(plan.root, plan.kind, "root")
    area = region_area(plan.region)
    value = area - count if plan.kind == "pack" else count - area
    if value < -AREA_RTOL * max(area, 1.0):
        raise PlanError(f"negative {plan.kind} balance: {value}")
    tops = zip(plan.root.children, parts) if plan.root.kind == "split" else [(plan.root, count)]
    per = [{"label": child.label or child.kind, "area": child.area, "count": c,
            "balance": (child.area - c) if plan.kind == "pack" else (c - child.area)}
           for child, c in tops]
    return WasteReport(kind=plan.kind, x=plan.x, area=area, square_count=count,
                       waste_or_excess=value, per_region=per, ledger=dict(plan.root.ledger))
