"""Independent geometric validation of finished plans.

The verifier never reads plan accounting. It sees a plan only through its
grid and stack-run lattices (`plan_lattices`) and never lists a lattice's
squares: `_near_squares` solves each lattice near a point for the squares
near it, so the cost grows with lattices and points, not squares, and
every plan is checked in full. Covering: seeded samples of the target and
of its seams must each lie in a square. Packing: the target is convex
and square corners are affine in (i, j), so containment is checked on
the four extreme squares of each lattice. A lattice is *solid* when, in
its square frame, its step is a unit step along a square axis and its
pitch moves at most 1 across and at most 1 along it. A solid lattice that
does not overlap itself has a union with a connected interior and its
whole boundary on the ring (its first and last row and column), so when
two overlap, a ring square of one overlaps a square of the other. Solid
lattices at least 3 long each way are probed on the ring, others in full;
the corner probes (0, 0) and (0, repeat - 1) meet every index offset, so
self-overlaps are found too. After an overlap, each lattice that overlaps
itself and the smaller of each overlapping pair are probed in full once
more, which finds every overlapping pair.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .config import TAU, PackConfig
from .geometry import Region, corners, points_in_region, region_area
from .plan import Lattices, Plan, plan_lattices

_POINT_CHUNK = 1 << 15  # point-lattice pairs per narrow-phase batch; small batches stay in cache
_PROBE_CHUNK = 1 << 18  # probe squares per broad phase
_CELL_POINTS = 16       # mean points per broad-phase cell
_SLACK = 1e-12          # relative widening of the lattice bounds
_SAMPLE_DRAWS = 1 << 27  # most candidate points one call to _sample_region draws
_LISTED = 100           # overlapping pairs listed in a report
# the SAT flags a pair only if each centre lies within 1/2 + sqrt(2)/2 of
# the other along the other's axes: in the other square inflated by sqrt(2)/2
_PACK_REACH = math.sqrt(0.5)


@dataclass
class VerifyReport:
    """`status` is "failed" when a violation was found and "passed" when
    none was. Every check covers the whole plan, so `partial` is False."""

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
        for x, y in locations[:100]:
            self.violations.append({"type": kind, "location": [float(x), float(y)],
                                    "magnitude": 1.0})
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
    """SAT for unit squares a and b (angle cosines ca, cb, sines sa, sb;
    centre of b less centre of a (dx, dy)): overlap iff every axis shows
    depth > 2*tau. Exactly symmetric in a and b.

    For rectangles the 2+2 edge-direction axes are a complete separating set.
    On an edge axis of either square, one square projects to half-width 1/2
    and the other to (|cos d| + |sin d|)/2, d the angle between them; a
    projection is never shorter than 1 > 2*tau, so the depth is the sum of
    the half-widths minus the projected centre offset.
    """
    limit = 0.5 * (np.abs(ca * cb + sa * sb) + np.abs(ca * sb - sa * cb))
    limit += 0.5 - 2.0 * tau
    overlap = np.abs(ca * dx + sa * dy) < limit
    overlap &= np.abs(ca * dy - sa * dx) < limit
    overlap &= np.abs(cb * dx + sb * dy) < limit
    overlap &= np.abs(cb * dy - sb * dx) < limit
    return overlap


def _square_at(table, k, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Base of square (i, j) of lattice k, with the arithmetic of `Lattices.poses`."""
    return (table["bx"][k] + i * table["ux"][k] + j * table["px"][k],
            table["by"][k] + i * table["uy"][k] + j * table["py"][k])


def verify_packing(plan: Plan, cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Containment in `plan.region` and pairwise interior disjointness of
    every square, checked over the lattices (see the module notes). Pairs
    are named by flat index in `enumerate_placements` order."""
    t0 = time.perf_counter()
    lat = plan_lattices(plan)
    sizes = lat.sizes()
    report = VerifyReport(kind="pack", square_count=sum(sizes))
    table = _lattice_table(lat)
    n, m = lat.count, lat.repeat
    first = np.array(list(accumulate([0] + sizes))[:-1], dtype=np.int64)

    # containment: the corners of the extreme squares, each square once
    k = np.repeat(np.arange(len(lat)), 4)
    i = np.stack([0 * n, n - 1] * 2, axis=1).ravel()
    j = np.stack([0 * m, 0 * m, m - 1, m - 1], axis=1).ravel()
    _, pick = np.unique(first[k] + j * n[k] + i, return_index=True)
    poses = np.stack([*_square_at(table, k[pick], i[pick], j[pick]), table["ang"][k[pick]]], axis=1)
    inside = points_in_region(plan.region, corners(poses).reshape(-1, 2), TAU)
    report.add_violations("escape", poses[~inside.reshape(-1, 4).all(axis=1), :2])

    full = ~table["solid"] | (np.minimum(n, m) <= 2)
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
    """Probe every square of the lattices marked `full` and the ring of the
    others against the squares near it; a pair of probes counts at its lower
    flat index. Returns the probe and probe-square test counts, the number
    of overlapping pairs, the first _LISTED in order as flat index pairs
    a < b and (x, y, distance) from the probe's centre to the other's, and
    the lattice pairs they join."""
    n, m, c, s = lat.count, lat.repeat, table["c"], table["s"]
    # probe runs within a row: whole rows of full lattices and rows 0 and
    # m - 1 of the others, else the first and the last square of the row
    rk, rj = np.repeat(np.arange(len(lat)), m), _ramp(m)
    split = ~full[rk] & (rj > 0) & (rj < m[rk] - 1)
    sk, sj = np.concatenate([rk, rk[split]]), np.concatenate([rj, rj[split]])
    si = np.concatenate([0 * rk, n[rk[split]] - 1])
    run = np.concatenate([np.where(split, 1, n[rk]), 0 * rk[split] + 1])

    tests = found = 0
    pairs, where, links = np.empty((0, 2), np.int64), np.empty((0, 3)), set()
    for e, t in _chunks(run, _PROBE_CHUNK):
        pk, pj, pi = sk[e], sj[e], si[e] + t
        tx, ty = _square_at(table, pk, pi, pj)
        cx, cy = tx + (c[pk] - s[pk]) / 2.0, ty + (s[pk] + c[pk]) / 2.0
        for q, k, i, j, tx, ty in _near_squares(np.stack([cx, cy], axis=1), table, _PACK_REACH):
            tests += len(q)
            dx = tx + (c[k] - s[k]) / 2.0 - cx[q]
            dy = ty + (s[k] + c[k]) / 2.0 - cy[q]
            hit = _overlap_mask(dx, dy, c[pk[q]], s[pk[q]], c[k], s[k], TAU)
            q, k, dx, dy = q[hit], k[hit], dx[hit], dy[hit]
            i, j = i[hit].astype(np.int64), j[hit].astype(np.int64)
            a, b = first[pk[q]] + pj[q] * n[pk[q]] + pi[q], first[k] + j * n[k] + i
            probe = full[k] | (i == 0) | (i == n[k] - 1) | (j == 0) | (j == m[k] - 1)
            keep = (a != b) & ((a < b) | ~probe)
            found += int(keep.sum())
            links.update(zip(pk[q[keep]].tolist(), k[keep].tolist()))
            a, b, q, dx, dy = a[keep], b[keep], q[keep], dx[keep], dy[keep]
            pairs = np.concatenate([pairs, np.stack([np.minimum(a, b), np.maximum(a, b)], 1)])
            where = np.concatenate([where, np.stack([cx[q], cy[q], np.hypot(dx, dy)], 1)])
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))[:_LISTED]
            pairs, where = pairs[order], where[order]
    return int(run.sum()), tests, found, (pairs, where), links


def _sample_region(region: Region, n: int, rng: np.random.RandomState) -> np.ndarray:
    """n points uniform in the region via rejection from its bounding box,
    each draw sized by the region's share of the box. Raises ValueError when
    that takes more than _SAMPLE_DRAWS candidate points, expected or drawn.
    """
    poly = np.array(region.polygon())
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    box = float(np.prod(hi - lo))
    area = region_area(region)
    if not n * box <= area * _SAMPLE_DRAWS:
        raise ValueError(f"cannot sample {n} points from {region}: it fills "
                         f"{area:.3g} of a {box:.3g} bounding box")
    out = np.empty((0, 2))
    drawn = 0
    while len(out) < n:
        if drawn > _SAMPLE_DRAWS:
            raise ValueError(f"kept {len(out)} of {n} points from {region} "
                             f"after {drawn} draws")
        cand = rng.uniform(lo, hi, size=(max(math.ceil((n - len(out)) * box / area), 1024), 2))
        drawn += len(cand)
        keep = points_in_region(region, cand, 0.0)
        out = np.concatenate([out, cand[keep]], axis=0)
    return out[:n]


def _seam_samples(seams, region: Region, n: int, rng: np.random.RandomState) -> np.ndarray:
    segs = np.asarray(seams, dtype=float)
    if len(segs) == 0 or n <= 0:
        return np.empty((0, 2))
    lengths = np.hypot(segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1])
    total = lengths.sum()
    if total <= 0:
        return np.empty((0, 2))
    which = rng.choice(len(segs), size=n, p=lengths / total)
    t = rng.uniform(0.0, 1.0, size=n)
    dx, dy = segs[which, 2] - segs[which, 0], segs[which, 3] - segs[which, 1]
    px, py = segs[which, 0] + t * dx, segs[which, 1] + t * dy
    norm = np.hypot(dx, dy)
    off = rng.uniform(-0.1, 0.1, size=n)
    pts = np.stack([px - off * dy / norm, py + off * dx / norm], axis=1)
    return pts[points_in_region(region, pts, -1e-9)]


def _coverage_samples(plan: Plan, cfg: PackConfig) -> np.ndarray:
    """cfg.samples seeded uniform points of `plan.region`, then up to
    cfg.samples // 10 points scattered across its seams."""
    rng = np.random.RandomState(cfg.seed)
    pts = _sample_region(plan.region, cfg.samples, rng)
    seam_pts = _seam_samples(plan.seams, plan.region, cfg.samples // 10, rng)
    if len(seam_pts):
        pts = np.concatenate([pts, seam_pts], axis=0)
    return pts


def verify_covering(plan: Plan, cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Seeded uniform rejection sampling of `plan.region`, plus points
    scattered across the recorded seams: every sample must lie inside >= 1
    placed square. Escape is not checked; covering squares may exit the region.
    """
    t0 = time.perf_counter()
    lat = plan_lattices(plan)
    report = VerifyReport(kind="cover", square_count=plan.root.total_count())
    pts = _coverage_samples(plan, cfg)
    report.sampled_points = len(pts)
    covered, tests = _points_covered(pts, lat, TAU)
    report.add_violations("uncovered", pts[~covered])
    # coverage is checked probabilistically; the residual miss risk for a
    # gap of area A inside area S is about (1 - A/S) ** samples
    report.runtime_stats.update(
        method="seeded uniform rejection sampling plus seam-biased points", lattices=len(lat),
        point_tests=tests, seconds=round(time.perf_counter() - t0, 3))
    return report.finish()


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
    """Runs of consecutive entries of `counts` adding up to about `size`
    (at least one entry each), as (entry, t) for t in [0, counts[entry])."""
    ends, lo = np.cumsum(counts), 0
    while lo < len(counts):
        hi = max(int(np.searchsorted(ends, ends[lo] - counts[lo] + size, "right")), lo + 1)
        yield np.repeat(np.arange(lo, hi), counts[lo:hi]), _ramp(counts[lo:hi])
        lo = hi


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
    in `done` when a chunk starts are passed over.

    Broad phase: the points are sorted once into cells, and each lattice
    takes the points in the cells its box meets, the box of its base poses
    inflated by sqrt(2)*(1 + r). Narrow phase: the square-frame offset of
    the point from the base, less i*U and j*P, must be in [-r, 1 + r]^2;
    one linear bound on j, then one on i for each j, gives the squares,
    widened by _SLACK times the size of the coordinates.
    """
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
