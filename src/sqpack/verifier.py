"""Independent geometric validation of finished plans.

The verifier sees a plan only through its target region and its lattices
(`plan_lattices`), and never lists a lattice: `_near_squares` solves them
near points. Every plan is checked in full, at a cost set by perimeters.

A lattice is *solid* when, in its square frame, its step is a unit step
along a square axis and its pitch moves at most 1 across and 1 along it (to
within TAU): its columns (runs along the step) are 1 wide and each meets or
overlaps the next, so the boundary of its union lies on its ring, the first
and last row and column, even where it overlaps itself. Solid lattices at
least 3 long each way are probed on the ring, others in full.

Packing: the target is convex, so each lattice's four extreme squares prove
containment. Where two solid lattices that do not overlap themselves
overlap, a ring square of one overlaps a square of the other; the probes
(0, 0) and (0, repeat - 1) meet every index offset. After an overlap, each
self-overlapping lattice and the smaller of each overlapping pair are
probed in full once more.

Covering: an uncovered patch of the target has a convex corner where two
edges cross, each of the target or of a lattice's union, so of a probe.
Each crossing is tested at the point nu outside both edges (inside, for a
target edge), nu = 2 * (TAU + 2 * _SLACK * max scale) being twice the widest
widening the point test gives near a square. So `passed` means no gap is
wider than about nu at all its corners; an `uncovered` point is a real gap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .config import TAU, PackConfig
from .geometry import corners, points_in_region
from .plan import Lattices, Plan, plan_lattices

_POINT_CHUNK = 1 << 15  # point-lattice pairs per narrow-phase batch; small batches stay in cache
_PROBE_CHUNK = 1 << 18  # probe squares per broad phase
_CELL_POINTS = 16       # mean points per broad-phase cell
_SLACK = 1e-12          # relative widening of the lattice bounds
_LISTED = 100           # overlapping pairs listed in a report
_REACH = math.sqrt(0.5)  # squares meet only if each centre is in the other inflated by this


@dataclass
class VerifyReport:
    """`status` is "failed" when a violation was found, else "passed"; `partial` is
    always False. `sampled_points` counts the covering candidate points tested."""

    kind: str
    square_count: int
    violations: list[dict] = field(default_factory=list)
    sampled_points: int = 0
    status: str = "failed"
    partial: bool = False
    runtime_stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    def finish(self) -> "VerifyReport":
        self.status = "failed" if self.violations else "passed"
        return self

    def add_violations(self, kind: str, locations: np.ndarray) -> None:
        """The first 100 violations of `kind` at (N, 2) `locations`, then one
        entry that counts the rest."""
        self.violations += [{"type": kind, "location": [float(x), float(y)], "magnitude": 1.0}
                            for x, y in locations[:100]]
        if len(locations) > 100:
            self.violations.append({"type": kind, "location": None,
                                    "magnitude": float(len(locations) - 100)})

    def to_dict(self, include_runtime: bool = True) -> dict:
        d = {"kind": self.kind, "square_count": self.square_count,
             "violations": self.violations, "sampled_points": self.sampled_points,
             "status": self.status, "passed": self.passed, "partial": self.partial}
        if include_runtime:
            d["runtime_stats"] = self.runtime_stats
        return d


def _overlap_mask(dx, dy, ca, sa, cb, sb, tau: float) -> np.ndarray:
    """SAT for unit squares a and b (angle cosines ca, cb, sines sa, sb; centre
    of b less centre of a (dx, dy)): overlap iff on each edge axis the depth,
    1/2 + (|cos d| + |sin d|)/2 less the centre offset, is > 2*tau."""
    limit = 0.5 * (np.abs(ca * cb + sa * sb) + np.abs(ca * sb - sa * cb)) + 0.5 - 2.0 * tau
    return ((np.abs(ca * dx + sa * dy) < limit) & (np.abs(ca * dy - sa * dx) < limit)
            & (np.abs(cb * dx + sb * dy) < limit) & (np.abs(cb * dy - sb * dx) < limit))


def _square_at(table, k, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Base of square (i, j) of lattice k, with the arithmetic of `Lattices.poses`."""
    return (table["bx"][k] + i * table["ux"][k] + j * table["px"][k],
            table["by"][k] + i * table["uy"][k] + j * table["py"][k])


def _setup(plan: Plan, kind: str):
    """Lattices, empty report, lattice table, first flat indices, full probes."""
    lat = plan_lattices(plan)
    sizes, table = lat.sizes(), _lattice_table(lat)
    first = np.array(list(accumulate([0] + sizes))[:-1], dtype=np.int64)
    full = ~table["solid"] | (np.minimum(lat.count, lat.repeat) <= 2)
    return lat, VerifyReport(kind=kind, square_count=sum(sizes)), table, first, full


def verify_packing(plan: Plan, cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Every square lies in `plan.region` and no two overlap (see the module
    notes); pairs are flat indices in `enumerate_placements` order."""
    t0 = time.perf_counter()
    lat, report, table, first, full = _setup(plan, "pack")
    n, m, sizes = lat.count, lat.repeat, lat.sizes()

    # containment: the corners of the extreme squares, each square once
    k = np.repeat(np.arange(len(lat)), 4)
    i = np.stack([0 * n, n - 1] * 2, axis=1).ravel()
    j = np.stack([0 * m, 0 * m, m - 1, m - 1], axis=1).ravel()
    _, pick = np.unique(first[k] + j * n[k] + i, return_index=True)
    poses = np.stack([*_square_at(table, k[pick], i[pick], j[pick]), table["ang"][k[pick]]], axis=1)
    inside = points_in_region(plan.region, corners(poses).reshape(-1, 2), TAU)
    report.add_violations("escape", poses[~inside.reshape(-1, 4).all(axis=1), :2])

    probes, tests, found, listed, links = _overlaps(table, lat, first, full)
    if found:
        for a, b in links:
            full[min(a, b, key=sizes.__getitem__)] = True
        probes, more, found, listed, _ = _overlaps(table, lat, first, full)
        tests += more
    for (a, b), (x, y, d) in zip(*listed):
        report.violations.append({"type": "overlap", "location": [float(x), float(y)],
                                  "magnitude": float(d), "pair": [int(a), int(b)]})
    report.runtime_stats.update(lattices=len(lat), probes=probes, candidate_pairs=tests,
                                overlap_pairs=found, seconds=round(time.perf_counter() - t0, 3))
    return report.finish()


def _overlaps(table, lat: Lattices, first: np.ndarray, full: np.ndarray):
    """The SAT on every probe pair (a pair of probes at its lower flat index): the
    numbers of probes, pairs and overlapping pairs, the first _LISTED of those as
    pairs a < b with (x, y, distance) between centres, and the lattice pairs."""
    probes = tests = found = 0
    pairs, where, links = np.empty((0, 2), np.int64), np.empty((0, 3)), set()
    for ka, a, cx, cy, kb, i, j, bx, by in _probe_pairs(table, lat, first, full):
        ca, cb, sa, sb = (table[f][k] for f in ("c", "s") for k in (ka, kb))
        dx, dy = bx + (cb - sb) / 2.0 - cx, by + (sb + cb) / 2.0 - cy
        hit, tests = _overlap_mask(dx, dy, ca, sa, cb, sb, TAU), tests + len(a)
        ka, a, kb, cx, cy, dx, dy = ka[hit], a[hit], kb[hit], cx[hit], cy[hit], dx[hit], dy[hit]
        b, ring = _index(lat, first, full, kb, i[hit], j[hit])  # each probe hits itself once
        keep, probes = (a != b) & ((a < b) | ~ring), probes + int((a == b).sum())
        found += int(keep.sum())
        links.update(zip(ka[keep].tolist(), kb[keep].tolist()))
        a, b, cx, cy, dx, dy = a[keep], b[keep], cx[keep], cy[keep], dx[keep], dy[keep]
        pairs = np.concatenate([pairs, np.stack([np.minimum(a, b), np.maximum(a, b)], 1)])
        where = np.concatenate([where, np.stack([cx, cy, np.hypot(dx, dy)], 1)])
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))[:_LISTED]
        pairs, where = pairs[order], where[order]
    return probes, tests, found, (pairs, where), links


def _probe_pairs(table, lat: Lattices, first: np.ndarray, full: np.ndarray):
    """Yield in chunks (ka, a, cx, cy, kb, i, j, bx, by): probe a (flat index; of
    lattice ka, centre (cx, cy)) and each square (i, j) of lattice kb, base (bx,
    by), within reach, itself once. Probes: all of `full` lattices, else the ring."""
    n, m, c, s = lat.count, lat.repeat, table["c"], table["s"]
    # probe runs within a row: whole rows of full lattices and rows 0 and
    # m - 1 of the others, else the first and the last square of the row
    rk, rj = np.repeat(np.arange(len(lat)), m), _ramp(m)
    split = ~full[rk] & (rj > 0) & (rj < m[rk] - 1)
    sk, sj = np.concatenate([rk, rk[split]]), np.concatenate([rj, rj[split]])
    si = np.concatenate([0 * rk, n[rk[split]] - 1])
    run = np.concatenate([np.where(split, 1, n[rk]), 0 * rk[split] + 1])
    for e, t in _chunks(run, _PROBE_CHUNK):
        pk, pj, pi = sk[e], sj[e], si[e] + t
        (tx, ty), flat = _square_at(table, pk, pi, pj), first[pk] + pj * n[pk] + pi
        cx, cy = tx + (c[pk] - s[pk]) / 2.0, ty + (s[pk] + c[pk]) / 2.0
        for q, k, i, j, bx, by in _near_squares(np.stack([cx, cy], axis=1), table, _REACH):
            yield pk[q], flat[q], cx[q], cy[q], k, i, j, bx, by


def _index(lat: Lattices, first: np.ndarray, full: np.ndarray, k, i, j):
    """Flat index of square (i, j) of lattice k, and whether it is a probe."""
    n, m, i, j = lat.count[k], lat.repeat[k], i.astype(np.int64), j.astype(np.int64)
    return first[k] + j * n + i, full[k] | (i == 0) | (i == n - 1) | (j == 0) | (j == m - 1)


def verify_covering(plan: Plan, cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Every point of `plan.region` lies in a square, checked where probe and
    target edges cross (see the module notes). Squares may leave the region."""
    t0 = time.perf_counter()
    lat, report, table, first, full = _setup(plan, "cover")
    ang = table["ang"]
    # a solid lattice whose columns start level has a rectangle for its union
    level = table["solid"] & ~full & (np.abs(table["pk"]) <= TAU)
    nu = 2.0 * (TAU + 2.0 * _SLACK * float(table["scale"].max(initial=0.0)))
    corner = np.array(plan.region.polygon())[::-1]  # clockwise; `polygon` runs counterclockwise
    side = np.roll(corner, -1, axis=0) - corner
    corner, side = corner[(side != 0).any(axis=1)], side[(side != 0).any(axis=1)]
    stats, found, gaps = report.runtime_stats, [_nudged(corner, np.roll(side, 1, 0), side, nu)], []
    stats.update(lattices=len(lat), probes=0, candidate_pairs=0, nudge=nu, point_tests=0)

    def test():  # the points found so far, in batches that bound the memory used
        pts = np.concatenate(found)
        found.clear()
        with np.errstate(invalid="ignore"):  # a point at infinity is in no region
            pts = pts[points_in_region(plan.region, pts, 0.0)]
        covered, tests = _points_covered(pts, lat, TAU)
        gaps.append(pts[~covered])
        report.sampled_points += len(pts)
        stats["point_tests"] += tests

    for ka, a, cx, cy, kb, i, j, bx, by in _probe_pairs(table, lat, first, full):
        (b, ring), ca, sa = _index(lat, first, full, kb, i, j), table["c"][ka], table["s"][ka]
        ax, ay = cx - (ca - sa) / 2.0, cy - (sa + ca) / 2.0
        # each probe, paired with itself once, against the target's edges
        me = a == b
        stats["probes"] += int(me.sum())
        p, d = _edges(ax[me], ay[me], ang[ka[me]])
        (row, e, t), at = _crossings(p[:, :, None], d[:, :, None], corner, side, nu)
        found.append(_nudged(at, d[row, e], side[t], nu))
        # each pair of probes once, leaving out the pairs within a level lattice
        keep = ring & (a < b) & ((ka != kb) | ~level[ka])
        stats["candidate_pairs"] += int(keep.sum())
        pa, da = _edges(ax[keep], ay[keep], ang[ka[keep]])
        pb, db = _edges(bx[keep], by[keep], ang[kb[keep]])
        (row, ea, eb), at = _crossings(pa[:, :, None], da[:, :, None], pb[:, None], db[:, None], nu)
        found.append(_nudged(at, da[row, ea], db[row, eb], nu))
        if sum(map(len, found)) >= _PROBE_CHUNK:
            test()
    test()
    report.add_violations("uncovered", np.concatenate(gaps))
    stats["seconds"] = round(time.perf_counter() - t0, 3)
    return report.finish()


def _edges(tx, ty, ang):
    """(N, 4, 2) corners and edge vectors of unit squares, counterclockwise."""
    sq = corners(np.stack([tx, ty, ang], axis=1))
    return sq, np.roll(sq, -1, axis=1) - sq


def _crossings(p, d, q, e, eps: float):
    """Indices and points where segments p + t*d, q + u*e cross, t and u in [-eps, 1 + eps]."""
    (px, py), (dx, dy), (qx, qy), (ex, ey) = (np.moveaxis(v, -1, 0) for v in (p, d, q, e))
    wx, wy, det = qx - px, qy - py, dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t, u = (wx * ey - wy * ex) / det, (wx * dy - wy * dx) / det
    at = np.nonzero((t >= -eps) & (t <= 1.0 + eps) & (u >= -eps) & (u <= 1.0 + eps))
    p, d = np.broadcast_to(p, t.shape + (2,)), np.broadcast_to(d, t.shape + (2,))
    return at, p[at] + t[at][:, None] * d[at]


def _nudged(at: np.ndarray, d1: np.ndarray, d2: np.ndarray, nu: float) -> np.ndarray:
    """at + nu (n1 + n2) / (1 + n1.n2): nu right of the lines along d1, d2 (normals n1, n2)."""
    n1, n2 = (d[:, ::-1] * [1.0, -1.0] / np.hypot(d[:, 0], d[:, 1])[:, None] for d in (d1, d2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return at + nu * (n1 + n2) / (1.0 + (n1 * n2).sum(axis=1))[:, None]


def _points_covered(pts: np.ndarray, lat: Lattices, tau: float) -> tuple[np.ndarray, int]:
    """Boolean mask: point inside at least one square of `lat` (squares
    inflated by tau); and the number of point-square tests made. Points
    already covered are not tested again."""
    covered, tests = np.zeros(len(pts), dtype=bool), 0
    table = _lattice_table(lat)
    for q, k, _, _, tx, ty in _near_squares(pts, table, tau, covered):
        dx, dy = pts[q, 0] - tx, pts[q, 1] - ty
        c, s = table["c"][k], table["s"][k]
        u, v = c * dx + s * dy, -s * dx + c * dy
        covered[q[(u >= -tau) & (u <= 1 + tau) & (v >= -tau) & (v <= 1 + tau)]] = True
        tests += len(q)
    return covered, tests


def _ramp(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[k] - 1 for each k in turn, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _chunks(counts: np.ndarray, size: int):
    """(entry, t) for t in [0, counts[entry]), in chunks of at most `size` (long entries split)."""
    ends, starts = np.cumsum(counts), np.cumsum(counts) - counts
    for lo in range(0, int(ends[-1]) if len(ends) else 0, size):
        hi = min(lo + size, int(ends[-1]))
        a, b = np.searchsorted(ends, [lo, hi - 1], "right") + [0, 1]
        part = np.minimum(ends[a:b], hi) - np.maximum(starts[a:b], lo)
        e = np.repeat(np.arange(a, b), part)
        yield e, _ramp(part) + np.repeat(np.maximum(lo - starts[a:b], 0), part)


def _index_range(w, lo, hi, n) -> tuple[np.ndarray, np.ndarray]:
    """First index and number of indices t in [0, n) with t*w in [lo, hi].

    Where w == 0 the quotients are infinite, all t or none, or NaN where lo
    or hi is 0, when every t qualifies; fmax and fmin pass over the NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ta, tb = lo / w, hi / w
    first = np.ceil(np.fmin(np.fmax(np.minimum(ta, tb), 0.0), n))
    last = np.floor(np.fmax(np.fmin(np.maximum(ta, tb), n - 1.0), -1.0))
    return first, np.maximum(last - first + 1.0, 0.0).astype(np.int64)


def _lattice_table(lat: Lattices) -> dict[str, np.ndarray]:
    """Per-lattice arrays for `_near_squares`, and which lattices are solid
    (to within TAU)."""
    (bx, by, ang), (ux, uy), (px, py) = lat.base.T, lat.step.T, lat.pitch.T
    n, m = lat.count.astype(float), lat.repeat.astype(float)
    c, s = np.cos(ang), np.sin(ang)
    scale = (np.abs(bx) + np.abs(by) + (n - 1) * (np.abs(ux) + np.abs(uy))
             + (m - 1) * (np.abs(px) + np.abs(py)) + 2.0)
    u1, u2 = c * ux + s * uy, -s * ux + c * uy
    p1, p2 = c * px + s * py, -s * px + c * py
    # Square (i, j) can hold the point (a, b) of the square frame only if the
    # cross product of U with (a, b) - i*U - j*P, where i drops out, is one of
    # U x [-r, 1 + r]^2: j*(U x P) in U x (a, b) + (u2 - u1)/2 -+ norm*(1/2 + r),
    # norm = |u1| + |u2|. Where U x P == 0 this passes every j or none.
    # i*U_k in [x_k - 1 - r, x_k + r] - j*P_k, along the axis where U is longer
    on1 = np.abs(u1) >= np.abs(u2)
    uk, pk = np.where(on1, u1, u2), np.where(on1, p1, p2)
    solid = ((np.abs(np.abs(uk) - 1.0) <= TAU) & (np.abs(np.where(on1, u2, u1)) <= TAU)
             & (np.abs(pk) <= 1.0 + TAU) & (np.abs(np.where(on1, p2, p1)) <= 1.0 + TAU))
    return {"bx": bx, "by": by, "ang": ang, "c": c, "s": s, "ux": ux, "uy": uy,
            "px": px, "py": py, "n": n, "m": m, "scale": scale, "u1": u1, "u2": u2,
            "jw": u1 * p2 - u2 * p1, "norm": np.abs(u1) + np.abs(u2), "on1": on1,
            "uk": uk, "pk": pk, "solid": solid}


def _near_squares(pts: np.ndarray, table: dict, r: float, done: np.ndarray | None = None):
    """Yield in chunks (q, k, i, j, tx, ty): point q lies in square (i, j)
    of lattice k, base (tx, ty), inflated by r in its frame. Points marked
    in `done` when a chunk starts are passed over. Broad phase: the points
    are sorted once into cells, and each lattice takes the points in the
    cells its box meets, the box of its base poses inflated by sqrt(2)*(1 + r).
    Narrow phase: the square-frame offset of the point from the base, less
    i*U and j*P, must be in [-r, 1 + r]^2; one linear bound on j, then one
    on i for each j, widened by _SLACK times the size of the coordinates."""
    if len(pts) == 0 or len(table["n"]) == 0:
        return
    bx, by, ux, uy, px, py, n, m = (table[f] for f in ("bx", "by", "ux", "uy", "px", "py", "n", "m"))

    # broad phase: cells of about _CELL_POINTS points, sorted row by row
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = x.min(), y.min()
    area = (x.max() - x0) * (y.max() - y0)
    inv = 1.0 / max(1.0, math.sqrt(_CELL_POINTS * area / len(pts)))
    cx = np.floor((x - x0) * inv).astype(np.int64)
    cy = np.floor((y - y0) * inv).astype(np.int64)
    ncx, ncy = int(cx.max()) + 1, int(cy.max()) + 1
    key = cy * ncx + cx
    order = np.argsort(key)
    key = key[order]
    ex = np.stack([bx, bx + (n - 1) * ux, bx + (m - 1) * px, bx + (n - 1) * ux + (m - 1) * px])
    ey = np.stack([by, by + (n - 1) * uy, by + (m - 1) * py, by + (n - 1) * uy + (m - 1) * py])
    reach = math.sqrt(2.0) * (1.0 + r) + _SLACK * table["scale"]

    def cells(lo, hi, origin, size):
        first = np.clip(np.floor((lo - reach - origin) * inv), 0, size)
        last = np.clip(np.floor((hi + reach - origin) * inv), -1, size - 1)
        return first.astype(np.int64), last.astype(np.int64)

    cx0, cx1 = cells(ex.min(axis=0), ex.max(axis=0), x0, ncx)
    cy0, cy1 = cells(ey.min(axis=0), ey.max(axis=0), y0, ncy)
    rows = np.where(cx1 >= cx0, np.maximum(cy1 - cy0 + 1, 0), 0)
    owner = np.repeat(np.arange(len(n)), rows)
    row = (cy0[owner] + _ramp(rows)) * ncx
    first = np.searchsorted(key, row + cx0[owner], "left")
    length = np.searchsorted(key, row + cx1[owner], "right") - first

    for e, t in _chunks(length, _POINT_CHUNK):
        which, q = owner[e], order[first[e] + t]
        if done is not None:
            keep = ~done[q]
            q, which = q[keep], which[keep]
        # narrow phase: point q[t] against lattice which[t]
        c, s = table["c"][which], table["s"][which]
        dx, dy = pts[q, 0] - bx[which], pts[q, 1] - by[which]
        a, b = c * dx + s * dy, -s * dx + c * dy
        rr = r + _SLACK * (table["scale"][which] + np.abs(pts[q, 0]) + np.abs(pts[q, 1]))
        u1, u2 = table["u1"][which], table["u2"][which]
        mid = u1 * b - u2 * a + 0.5 * (u2 - u1)
        half = table["norm"][which] * (0.5 + rr)
        jf, nj = _index_range(table["jw"][which], mid - half, mid + half, m[which])
        pair = np.repeat(np.arange(len(q)), nj)
        j = jf[pair] + _ramp(nj)
        row_lat = which[pair]
        xk = np.where(table["on1"][row_lat], a[pair], b[pair]) - j * table["pk"][row_lat]
        i_first, ni = _index_range(table["uk"][row_lat], xk - 1.0 - rr[pair], xk + rr[pair],
                                   n[row_lat])
        cand = np.repeat(np.arange(len(pair)), ni)
        i, j, k = i_first[cand] + _ramp(ni), j[cand], row_lat[cand]
        yield (q[pair[cand]], k, i, j, *_square_at(table, k, i, j))
