"""Independent geometric validation of finished plans.

The verifier sees a plan only through its target region and the table of its
lattices (`plan_lattices`, extended by `_lattice_table`), places each square it
reads by `square_at`, and never lists a lattice: `_near_squares` solves them
near points. Every plan is checked in full, packing at a cost set by lattices.

A lattice is *solid* when, in its square frame, its step is a unit step
along a square axis and its pitch moves at most 1 across and 1 along it (to
within TAU): its columns (runs along the step) are 1 wide and each meets or
overlaps the next, so the boundary of its union lies on its ring, the first
and last row and column, even where it overlaps itself. The probes of a
solid lattice at least 3 long each way are its ring, of others (the table's
`full` column) all squares.

Packing: the target is convex, so each lattice's four extreme squares prove
containment and span its hull. Hulls overlapping by at most 2*TAU on a square
axis, step or pitch normal of either hold no squares overlapping deeper there,
so on an axis of their own (`_overlap_mask`); one SAT per index offset clears
a lattice against itself. Other lattices are probed near the hulls they meet,
and after an overlap the smaller of each overlapping pair is probed in full.

Covering: lattices whose box misses the target's grown by 1 cover none of it
and are left out. An uncovered patch of the target has a convex corner where
two edges cross, each of the target or of a lattice's union, so of a probe.
A solid lattice is *level* when (n - 1) |step across| + (m - 1) |pitch along|
<= TAU: its union is its rectangle, the box of its hull on its square axes,
up to slivers narrower than TAU that the point test's widening covers, so
every gap corner on it lies on a side of the rectangle, its one probe. A
crossing on an inner edge of a ring square lies nu inside a neighbouring
square of the same lattice, so leaving it out changes no verdict. The other
lattices' probes are squares (`_probe_squares`). One sweep (`_box_pairs`) pairs
all probes whose boxes, grown by nu, overlap: a gap corner is an exact crossing
of two probe edges, so it lies in both boxes, which grown by nu > 0 overlap by
more than 0. `_crossings` accepts a unit edge up to nu past its ends; such a
point is in both grown boxes, on opposite rims of the two only where the edges
are parallel and so do not cross: every pair of squares it can cross is paired.
Each crossing is tested at the point nu outside both edges (inside, for a
target edge), nu = 2 * (TAU + 2 * _SLACK * max scale) being twice the widest
widening the point test gives near a square. So `passed` means no gap is
wider than about nu at all its corners; an `uncovered` point is a real gap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import TAU, PackConfig
from .geometry import corners, points_in_region
from .plan import LATTICE_COLUMNS, Plan, PlanError, lattice_sizes, plan_lattices, square_at

_POINT_CHUNK = 1 << 15  # point-lattice pairs per narrow-phase batch, 16x box pairs; stays in cache
_PROBE_CHUNK = 1 << 18  # probe squares per broad phase
_CELL_POINTS = 16       # mean points per broad-phase cell
_SLACK = 1e-12          # relative widening of the lattice bounds
_LISTED = 100           # overlapping pairs listed in a report
_REACH = math.sqrt(0.5)  # squares meet only if each centre is in the other inflated by this


@dataclass
class VerifyReport:
    """`status` is "failed" when a violation was found, else "passed"; `partial` is
    always False. `sampled_points` counts the covering candidate points tested, once per
    crossing, and each distinct uncovered point is listed once. In `runtime_stats`,
    `candidate_pairs` counts the probe pairs tested, for covering those whose boxes grown by
    nu overlap; covering counts the `rectangles` among its `probes`, and packing adds the
    lattice pairs (`hull_pairs`) and index `offsets` tested and the `fallback_lattices` probed."""

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
        """The first _LISTED violations of `kind` at (N, 2) `locations`, then one
        entry that counts the rest."""
        self.violations += [{"type": kind, "location": [float(x), float(y)], "magnitude": 1.0}
                            for x, y in locations[:_LISTED]]
        if len(locations) > _LISTED:
            self.violations.append({"type": kind, "location": None,
                                    "magnitude": float(len(locations) - _LISTED)})

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


def _setup(plan: Plan, kind: str):
    """Lattice table and empty report; flat indices are int64."""
    table = plan_lattices(plan)
    if (total := sum(lattice_sizes(table))) >= 2 ** 63:
        raise PlanError(f"plan holds {total} squares; verify takes fewer than 2**63")
    return _lattice_table(table), VerifyReport(kind=kind, square_count=total)


def verify_packing(plan: Plan, cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Every square lies in `plan.region` and no two overlap (see the module
    notes); pairs are flat indices in `enumerate_placements` order."""
    t0 = time.perf_counter()
    table, report = _setup(plan, "pack")
    hull, size = table["hull"], len(table["n"])

    # containment: the corners of the extreme squares, each square once
    sq = hull.reshape(-1, 4, 2)[np.unique(table["ends"], return_index=True)[1]]
    inside = points_in_region(plan.region, sq.reshape(-1, 2), TAU).reshape(-1, 4)
    report.add_violations("escape", sq[~inside.all(axis=1), 0])

    # rows of ka within _REACH < 1 of kb's box where hulls meet; all of ka == kb that meets itself
    (lo, hi), (self_hit, offsets) = (hull.min(axis=1), hull.max(axis=1)), _self_overlapping(table)
    pa, pb, tested = _meeting_hulls(table, lo, hi)
    ka, kb = (np.concatenate([u, v, np.flatnonzero(self_hit)]) for u, v in ((pa, pb), (pb, pa)))
    rows = _near_rows(table, ka, lo[kb] - 1.0, hi[kb] + 1.0)
    table["full"] |= self_hit
    probes, tests, found, listed = _overlaps(table, rows, np.unique(ka * size + kb))
    for (a, b), (x, y, d) in zip(*listed):
        report.violations.append({"type": "overlap", "location": [float(x), float(y)],
                                  "magnitude": float(d), "pair": [int(a), int(b)]})
    report.runtime_stats.update(lattices=size, probes=probes, candidate_pairs=tests,
                                overlap_pairs=found, hull_pairs=tested, offsets=offsets,
                                fallback_lattices=len(np.unique(ka)),
                                seconds=round(time.perf_counter() - t0, 3))
    return report.finish()


def _meeting_hulls(table, lo: np.ndarray, hi: np.ndarray):
    """Lattice pairs a, b whose hulls (corners `hull`, boxes [lo, hi]) overlap by more than
    2*TAU on every axis of both, and how many box pairs do."""
    # SAT on the hulls' 16 corners, along axes of length r; a zero step or pitch has none
    c, s, ux, uy, px, py, hull = (table[f] for f in ("c", "s", "ux", "uy", "px", "py", "hull"))
    axes = np.stack([[c, -s, -uy, -py], [s, c, ux, px]]).transpose(2, 0, 1)  # (L, 2, 4)
    norm, meet, tested = np.hypot(axes[:, 0], axes[:, 1]), [np.empty((2, 0), np.int64)], 0
    for a, b in _box_pairs(lo, hi, 2.0 * TAU):
        ax, r = (np.concatenate([v[a], v[b]], axis=-1) for v in (axes, norm))
        ra, rb = (hull[k, :, :1] * ax[:, :1] + hull[k, :, 1:] * ax[:, 1:] for k in (a, b))
        depth = np.minimum(ra.max(axis=1) - rb.min(axis=1), rb.max(axis=1) - ra.min(axis=1))
        keep, tested = ((depth > 2.0 * TAU * r) | (r == 0.0)).all(axis=1), tested + len(a)
        meet.append(np.stack([a[keep], b[keep]]))
    return *np.concatenate(meet, axis=1), tested


def _box_pairs(lo: np.ndarray, hi: np.ndarray, depth: float):
    """Yield in chunks of at most _POINT_CHUNK // 16 candidates the pairs a, b of boxes
    [lo, hi] overlapping by more than `depth` on both axes, each once, swept along x in
    slabs of y."""
    h = max(float((hi - lo)[:, 1].sum()) / max(len(lo), 1), 1.0)
    s0, s1 = (np.floor(v[:, 1] / h).astype(np.int64) for v in (lo, hi))
    box = np.repeat(np.arange(len(lo)), s1 - s0 + 1)
    slab, xs, w = s0[box] + _ramp(s1 - s0 + 1), np.sort(lo[box, 0]), len(box) + 1
    key = np.unique(slab, return_inverse=True)[1] * w + np.searchsorted(xs, lo[box, 0], "left")
    order = np.argsort(key)  # by the slab's rank among slabs, then the left edge's
    box, slab, key = box[order], slab[order], key[order]
    # each box against the later ones up to its right edge; a pair counts in its first slab
    end = np.searchsorted(key, key - key % w + np.searchsorted(xs, hi[box, 0], "right"))
    for at, t in _chunks(end - np.arange(len(box)) - 1, _POINT_CHUNK // 16):
        a, b = box[at], box[at + 1 + t]
        keep = (np.minimum(hi[a], hi[b]) - np.maximum(lo[a], lo[b]) > depth).all(axis=1)
        keep &= slab[at] == np.maximum(s0[a], s0[b])
        yield a[keep], b[keep]


def _self_overlapping(table) -> tuple[np.ndarray, int]:
    """Which lattices overlap themselves, and the offsets tested: a SAT for each
    (di, dj), dj > 0 or dj == 0 < di, whose centres may be within r = 1.5."""
    n, m, ux, uy, px, py, r = (*(table[f] for f in ("n", "m", "ux", "uy", "px", "py")), 1.5)
    # |U x (di*U + dj*P)| = dj*|U x P| <= |U|*r
    _, nj = _index_range(table["jw"], -np.hypot(ux, uy) * r, np.hypot(ux, uy) * r, m)
    k, dj = np.repeat(np.arange(len(n)), nj), _ramp(nj)
    # along the longer axis of U: di*uk + dj*pk in [-r, r], di + n - 1 in [0, 2n - 1)
    mid = (n[k] - 1.0) * table["uk"][k] - dj * table["pk"][k]
    first, ni = _index_range(table["uk"][k], mid - r, mid + r, 2.0 * n[k] - 1.0)
    e = np.repeat(np.arange(len(k)), ni)
    k, dj, di = k[e], dj[e], first[e] + _ramp(ni) - (n[k[e]] - 1.0)
    k, di, dj = (v[(dj > 0) | (di > 0)] for v in (k, di, dj))
    cs = [table["c"][k], table["s"][k]]
    hit = _overlap_mask(di * ux[k] + dj * px[k], di * uy[k] + dj * py[k], *cs, *cs, TAU)
    return np.bincount(k[hit], minlength=len(n)) > 0, len(k)


def _near_rows(table, k: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Rows (lattice, row, i from, i to) of the squares of lattice k[e] centred
    in [lo[e], hi[e]]: in each row, the hull of the boxes' intervals."""
    c, s, ux, uy, px, py = (table[f][k] for f in ("c", "s", "ux", "uy", "px", "py"))
    cx, cy = table["bx"][k] + (c - s) / 2.0, table["by"][k] + (s + c) / 2.0  # of square (0, 0)
    # rows j: along the normal (-uy, ux) of the step, j*P reaches the box
    across = [ux * (y - cy) - uy * (x - cx) for x in (lo[:, 0], hi[:, 0])
              for y in (lo[:, 1], hi[:, 1])]
    jf, nj = _index_range(ux * py - uy * px, np.min(across, 0), np.max(across, 0), table["m"][k])
    e = np.repeat(np.arange(len(k)), nj)
    k, j = k[e], jf[e].astype(np.int64) + _ramp(nj)
    rx, ry = cx[e] + j * px[e], cy[e] + j * py[e]
    fx, nx = _index_range(ux[e], lo[e, 0] - rx, hi[e, 0] - rx, table["n"][k])
    fy, ny = _index_range(uy[e], lo[e, 1] - ry, hi[e, 1] - ry, table["n"][k])
    i0, i1 = np.maximum(fx, fy).astype(np.int64), np.minimum(fx + nx, fy + ny).astype(np.int64)
    order = np.flatnonzero(i1 > i0)[np.lexsort((j[i1 > i0], k[i1 > i0]))]
    k, j, i0, i1 = k[order], j[order], i0[order], i1[order]
    row = np.flatnonzero(np.diff(k, prepend=-1) | np.diff(j, prepend=-1))
    return k[row], j[row], np.minimum.reduceat(i0, row), np.maximum.reduceat(i1, row)


def _overlaps(table, rows=None, allowed=None):
    """The SAT on every probe pair (a pair of probes at its lower flat index; only of lattices
    ka, kb with ka * L + kb in `allowed`, if given, of L lattices), again after an overlap with
    the smaller of each overlapping pair of lattices marked `full`: the numbers of probes (each hits
    itself once), pairs (both passes) and overlaps, the first _LISTED of those as a < b with
    (x, y, centre distance)."""
    tests, size, full = 0, table["count"] * table["repeat"], table["full"]
    for again in (False, True):
        probes = found = 0
        pairs, where, links = np.empty((0, 2), np.int64), np.empty((0, 3)), set()
        for ka, a, cx, cy, kb, b, ring, bx, by in _probe_pairs(table, rows):
            ca, cb, sa, sb = (table[f][k] for f in ("c", "s") for k in (ka, kb))
            dx, dy = bx + (cb - sb) / 2.0 - cx, by + (sb + cb) / 2.0 - cy
            hit, tests = _overlap_mask(dx, dy, ca, sa, cb, sb, TAU), tests + len(a)
            keep, probes = hit & (a != b) & ((a < b) | ~ring), probes + int((hit & (a == b)).sum())
            keep[keep] = allowed is None or np.isin(ka[keep] * len(full) + kb[keep], allowed)
            found += int(keep.sum())
            links.update(zip(ka[keep].tolist(), kb[keep].tolist()))
            a, b, cx, cy, dx, dy = a[keep], b[keep], cx[keep], cy[keep], dx[keep], dy[keep]
            pairs = np.concatenate([pairs, np.stack([np.minimum(a, b), np.maximum(a, b)], 1)])
            where = np.concatenate([where, np.stack([cx, cy, np.hypot(dx, dy)], 1)])
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))[:_LISTED]
            pairs, where = pairs[order], where[order]
        if again or not found:
            return probes, tests, found, (pairs, where)
        full[[min(a, b, key=size.__getitem__) for a, b in links]] = True


def _probe_squares(table, rows=None):
    """Yield in chunks (k, flat, tx, ty): each probe, of lattice k, flat index and base (tx, ty).
    Probes: in `rows` (lattice, row, i from, i to; default all), every square of `full`
    lattices and of rows 0 and m - 1, else squares 0 and n - 1."""
    n, m, first, full = (table[f] for f in ("count", "repeat", "first", "full"))
    rk = np.repeat(np.arange(len(n)), m) if rows is None else rows[0]
    rj, i0, i1 = (_ramp(m), 0 * rk, n[rk]) if rows is None else rows[1:]
    whole = full[rk] | (rj == 0) | (rj == m[rk] - 1)
    lead, tail = whole | (i0 == 0), ~whole & (i1 == n[rk])
    sk, sj = np.concatenate([rk[lead], rk[tail]]), np.concatenate([rj[lead], rj[tail]])
    si = np.concatenate([i0[lead], n[rk[tail]] - 1])
    run = np.concatenate([np.where(whole, i1 - i0, 1)[lead], 0 * rk[tail] + 1])
    for e, t in _chunks(run, _PROBE_CHUNK):
        k, j, i = sk[e], sj[e], si[e] + t
        yield k, first[k] + j * n[k] + i, *square_at(table, k, i, j)


def _probe_pairs(table, rows=None):
    """Yield in chunks (ka, a, cx, cy, kb, b, ring, bx, by): probe a (`_probe_squares`; flat
    index, of lattice ka, centre (cx, cy)) and each square b (of lattice kb, base (bx, by); a
    probe where `ring`) within reach, itself once (a == b)."""
    n, m, c, s, first, full = (table[f] for f in ("count", "repeat", "c", "s", "first", "full"))
    for pk, flat, tx, ty in _probe_squares(table, rows):
        cx, cy = tx + (c[pk] - s[pk]) / 2.0, ty + (s[pk] + c[pk]) / 2.0
        for q, k, i, j, bx, by in _near_squares(np.stack([cx, cy], axis=1), table, _REACH):
            i, j = i.astype(np.int64), j.astype(np.int64)
            ring = full[k] | (i == 0) | (i == n[k] - 1) | (j == 0) | (j == m[k] - 1)
            yield pk[q], flat[q], cx[q], cy[q], k, first[k] + j * n[k] + i, ring, bx, by


def verify_covering(plan: Plan, cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Every point of `plan.region` lies in a square, checked where probe and
    target edges cross (see the module notes). Squares may leave the region."""
    t0 = time.perf_counter()
    table, report = _setup(plan, "cover")
    corner = np.array(plan.region.polygon())[::-1]  # clockwise; `polygon` runs counterclockwise
    near = ((table["hull"].max(axis=1) >= corner.min(axis=0) - 1.0)
            & (table["hull"].min(axis=1) <= corner.max(axis=0) + 1.0)).all(axis=1)
    table = {f: v[near] for f, v in table.items()}
    # a solid lattice level to within TAU end to end has a rectangle for its union
    off = np.abs(np.where(table["on1"], table["u2"], table["u1"]))
    drift = (table["n"] - 1.0) * off + (table["m"] - 1.0) * np.abs(table["pk"])
    level = table["solid"] & (drift <= TAU)
    rest = {f: v[~level] for f, v in table.items()}
    nu = 2.0 * (TAU + 2.0 * _SLACK * float(table["scale"].max(initial=0.0)))
    side = np.roll(corner, -1, axis=0) - corner
    corner, side = corner[(side != 0).any(axis=1)], side[(side != 0).any(axis=1)]
    quads = np.concatenate([_rectangles(table, level)] + [
        corners(np.stack([tx, ty, rest["ang"][k]], axis=1))
        for k, _, tx, ty in _probe_squares(rest)])
    stats, found, gaps = report.runtime_stats, [_nudged(corner, np.roll(side, 1, 0), side, nu)], []
    stats.update(lattices=len(table["n"]), rectangles=int(level.sum()), probes=len(quads),
                 candidate_pairs=0, nudge=nu, point_tests=0)

    def test():  # the points found so far, in batches that bound the memory used
        pts = np.concatenate(found)
        found.clear()
        with np.errstate(invalid="ignore"):  # a point at infinity is in no region
            pts = pts[points_in_region(plan.region, pts, 0.0)]
        covered, tests = _points_covered(pts, table, TAU)
        gaps.append(pts[~covered])
        report.sampled_points += len(pts)
        stats["point_tests"] += tests

    def cross(p, q):  # where the edges of N quads cross those of N others (or of the target)
        (p, d), (q, e) = ((v, np.roll(v, -1, axis=1) - v) for v in (p, q))
        (row, i, j), at = _crossings(p[:, :, None], d[:, :, None], q[:, None], e[:, None], nu)
        e = np.broadcast_to(e, d.shape[:1] + e.shape[1:])
        found.append(_nudged(at, d[row, i], e[row, j], nu))
        if sum(map(len, found)) >= _PROBE_CHUNK:
            test()

    # every probe against the target's edges, and each pair whose boxes grown by nu overlap
    for lo in range(0, len(quads), _POINT_CHUNK // 16):
        cross(quads[lo:lo + _POINT_CHUNK // 16], corner[None])
    for a, b in _box_pairs(quads.min(axis=1) - nu, quads.max(axis=1) + nu, 0.0):
        stats["candidate_pairs"] += len(a)
        cross(quads[a], quads[b])
    if found:
        test()
    gaps = np.concatenate(gaps)  # listed by x, then y, each once, not in probe order
    gaps = gaps[np.lexsort((gaps[:, 1], gaps[:, 0]))]
    report.add_violations("uncovered", gaps[(np.diff(gaps, axis=0, prepend=np.nan) != 0).any(1)])
    stats["seconds"] = round(time.perf_counter() - t0, 3)
    return report.finish()


def _rectangles(table, level: np.ndarray) -> np.ndarray:
    """(N, 4, 2) counterclockwise corners of the rectangle of each `level` lattice: the box
    of its `hull` in its square frame."""
    c, s, hull = table["c"][level, None], table["s"][level, None], table["hull"][level]
    u, v = c * hull[..., 0] + s * hull[..., 1], c * hull[..., 1] - s * hull[..., 0]
    u = np.stack([u.min(axis=1), u.max(axis=1)], axis=1)[:, [0, 1, 1, 0]]
    v = np.stack([v.min(axis=1), v.max(axis=1)], axis=1)[:, [0, 0, 1, 1]]
    return np.stack([c * u - s * v, s * u + c * v], axis=-1)


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


def _points_covered(pts: np.ndarray, table: dict, tau: float) -> tuple[np.ndarray, int]:
    """Boolean mask: point inside at least one square of the lattices in `table`
    (squares inflated by tau); and the number of point-square tests made.
    Points already covered are not tested again."""
    covered, tests = np.zeros(len(pts), dtype=bool), 0
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


def _lattice_table(table: dict) -> dict[str, np.ndarray]:
    """`plan_lattices` columns, extended in place (and returned) by each fact the checks read:
    the arrays of `_near_squares` (n and m as floats), `solid` (to within TAU), `full` (probed in
    full: not solid, or at most 2 long one way), the `first` flat index, and the flat indices
    `ends` and corners `hull` (bases first) of the extreme squares."""
    bx, by, ang, ux, uy, px, py, count, repeat = (table[f] for f in LATTICE_COLUMNS)
    size = count * repeat
    n, m, first = count.astype(float), repeat.astype(float), np.cumsum(size) - size
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
    table.update(c=c, s=s, n=n, m=m, scale=scale, u1=u1, u2=u2, jw=u1 * p2 - u2 * p1,
                 norm=np.abs(u1) + np.abs(u2), on1=on1, uk=uk, pk=pk, solid=solid, first=first,
                 full=~solid | (np.minimum(count, repeat) <= 2))
    k, i = np.repeat(np.arange(len(n)), 4), np.stack([0 * count, count - 1] * 2, axis=1)
    j = np.stack([0 * repeat, 0 * repeat, repeat - 1, repeat - 1], axis=1)
    sq = corners(np.stack([*square_at(table, k, i.ravel(), j.ravel()), ang[k]], axis=1))
    table.update(ends=first[:, None] + j * count[:, None] + i, hull=sq.reshape(len(n), 16, 2))
    return table


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
    bx, by, n, m = (table[f] for f in ("bx", "by", "n", "m"))

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
    ex, ey = table["hull"][:, ::4].T  # (4, L) bases of the four extreme squares
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
        yield (q[pair[cand]], k, i, j, *square_at(table, k, i, j))
