"""Independent geometric validation of finished plans.

The verifier never reads plan accounting to decide validity; it sees a
plan only through its grid and stack-run lattices (`plan_lattices`).
Packing: it expands the lattices into placements, all of them or, over
the enumeration limit, a seeded sample of whole lattices, then checks
pairwise interior disjointness and containment. Candidate pairs come from a KD-tree on the square centres
(scipy's cKDTree, imported on first use), as two unit squares can only
intersect if their centres are at most sqrt(2) apart. Covering: it samples
the target and checks that every sample lies in a square, solving for the
squares of each nearby lattice instead of expanding them, so its cost
grows with lattices and samples, not squares, and it has no limit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import TAU, PackConfig
from .geometry import Region, corners, points_in_region, region_area
from .plan import Lattices, OverLimit, Plan, enumerate_placements, plan_lattices

_PAIR_CHUNK = 1 << 20
_POINT_CHUNK = 1 << 15  # point-lattice pairs per narrow-phase batch; small batches stay in cache
_CELL_POINTS = 16       # mean sample points per broad-phase cell
_SLACK = 1e-12          # relative widening of the lattice bounds
_SAMPLE_DRAWS = 1 << 27  # most candidate points one call to _sample_region draws


@dataclass
class VerifyReport:
    """`status` is "failed" when a violation was found, "unverified" when
    only part of the plan was checked and nothing was found there, and
    "passed" only after a full check found nothing."""

    kind: str
    square_count: int
    violations: list[dict] = field(default_factory=list)
    sampled_points: int = 0
    status: str = "unverified"
    partial: bool = False
    runtime_stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    def finish(self) -> "VerifyReport":
        if self.violations:
            self.status = "failed"
        else:
            self.status = "unverified" if self.partial else "passed"
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
        d = {
            "kind": self.kind,
            "square_count": self.square_count,
            "violations": self.violations,
            "sampled_points": self.sampled_points,
            "status": self.status,
            "passed": self.passed,
            "partial": self.partial,
        }
        if include_runtime:
            d["runtime_stats"] = self.runtime_stats
        return d


def _centers(poses: np.ndarray) -> np.ndarray:
    c = np.cos(poses[:, 2])
    s = np.sin(poses[:, 2])
    return np.stack([poses[:, 0] + (c - s) / 2.0, poses[:, 1] + (s + c) / 2.0], axis=1)


def _overlap_mask(centers: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                  ii: np.ndarray, jj: np.ndarray, tau: float) -> np.ndarray:
    """SAT for pairs of unit squares: overlap iff every axis shows depth > 2*tau.

    For rectangles the 2+2 edge-direction axes are a complete separating set.
    On an edge axis of either square, one square projects to half-width 1/2
    and the other to (|cos d| + |sin d|)/2, d the angle between them; a
    projection is never shorter than 1 > 2*tau, so the depth is the sum of
    the half-widths minus the projected centre offset.
    """
    dx = centers[jj, 0] - centers[ii, 0]
    dy = centers[jj, 1] - centers[ii, 1]
    ca, sa, cb, sb = cos[ii], sin[ii], cos[jj], sin[jj]
    limit = 0.5 * (np.abs(ca * cb + sa * sb) + np.abs(ca * sb - sa * cb))
    limit += 0.5 - 2.0 * tau
    overlap = np.abs(ca * dx + sa * dy) < limit
    overlap &= np.abs(ca * dy - sa * dx) < limit
    overlap &= np.abs(cb * dx + sb * dy) < limit
    overlap &= np.abs(cb * dy - sb * dx) < limit
    return overlap


def _sampled_lattices(lat: Lattices, cfg: PackConfig) -> Lattices:
    """Whole lattices, taken in a seeded random order while they fit in
    the enumeration limit."""
    order = np.random.RandomState(cfg.seed).permutation(len(lat))
    keep = []
    budget = cfg.enum_limit
    for k, n in zip(order.tolist(), lat[order].sizes()):
        if n <= budget:
            keep.append(k)
            budget -= n
            if budget <= 0:
                break
    return lat[np.array(keep, dtype=np.int64)]


def verify_packing(plan: Plan, cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Pairwise interior disjointness + containment in `plan.region`.

    Over the enumeration limit, a seeded random sample of whole lattices
    (grids and stack runs) is checked instead and the report is marked
    partial: "unverified" unless a violation is found.
    """
    t0 = time.perf_counter()
    report = VerifyReport(kind="pack", square_count=0)
    try:
        poses = enumerate_placements(plan, cfg.enum_limit)
    except OverLimit as exc:
        report.partial = True
        report.runtime_stats["note"] = str(exc)
        poses = _sampled_lattices(plan_lattices(plan), cfg).poses()
    report.square_count = len(poses)

    quads = corners(poses)
    flat_in = points_in_region(plan.region, quads.reshape(-1, 2), TAU)
    del quads
    report.add_violations("escape", poses[~flat_in.reshape(-1, 4).all(axis=1), :2])

    from scipy.spatial import cKDTree  # deferred: keeps `import sqpack` light

    centers = _centers(poses)
    cos = np.cos(poses[:, 2])
    sin = np.sin(poses[:, 2])
    pairs = cKDTree(centers).query_pairs(math.sqrt(2.0), output_type="ndarray")
    n_pairs = len(pairs)
    n_overlaps = 0
    for lo in range(0, n_pairs, _PAIR_CHUNK):
        ii, jj = pairs[lo:lo + _PAIR_CHUNK].T
        mask = _overlap_mask(centers, cos, sin, ii, jj, TAU)
        if mask.any():
            for a, b in zip(ii[mask][:50], jj[mask][:50]):
                report.violations.append({
                    "type": "overlap",
                    "location": [float(centers[a, 0]), float(centers[a, 1])],
                    "magnitude": float(np.linalg.norm(centers[a] - centers[b])),
                    "pair": [int(a), int(b)],
                })
            n_overlaps += int(mask.sum())
    report.runtime_stats["candidate_pairs"] = n_pairs
    report.runtime_stats["overlap_pairs"] = n_overlaps
    report.runtime_stats["seconds"] = round(time.perf_counter() - t0, 3)
    return report.finish()


def _sample_region(region: Region, n: int, rng: np.random.RandomState) -> np.ndarray:
    """n points uniform in the region via rejection from its bounding box.

    Raises ValueError when that takes more than _SAMPLE_DRAWS candidate
    points, expected (from the region's share of its box) or drawn.
    """
    poly = np.array(region.polygon())
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    box = float(np.prod(hi - lo))
    if not n * box <= region_area(region) * _SAMPLE_DRAWS:
        raise ValueError(f"cannot sample {n} points from {region}: it fills "
                         f"{region_area(region):.3g} of a {box:.3g} bounding box")
    out = np.empty((0, 2))
    drawn = 0
    while len(out) < n:
        if drawn > _SAMPLE_DRAWS:
            raise ValueError(f"kept {len(out)} of {n} points from {region} "
                             f"after {drawn} draws")
        cand = rng.uniform(lo, hi, size=(max(2 * (n - len(out)), 1024), 2))
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
    px = segs[which, 0] + t * (segs[which, 2] - segs[which, 0])
    py = segs[which, 1] + t * (segs[which, 3] - segs[which, 1])
    dx = segs[which, 2] - segs[which, 0]
    dy = segs[which, 3] - segs[which, 1]
    norm = np.hypot(dx, dy)
    off = rng.uniform(-0.1, 0.1, size=n)
    pts = np.stack([px - off * dy / norm, py + off * dx / norm], axis=1)
    keep = points_in_region(region, pts, -1e-9)
    return pts[keep]


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
    placed square. The cost grows with lattices and samples, not squares,
    so every plan is checked in full; `cfg.enum_limit` plays no part.

    Escape is not checked; covering squares may exit the region.
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
    report.runtime_stats["method"] = "seeded uniform rejection sampling plus seam-biased points"
    report.runtime_stats["lattices"] = len(lat)
    report.runtime_stats["point_tests"] = tests
    report.runtime_stats["seconds"] = round(time.perf_counter() - t0, 3)
    return report.finish()


def _ramp(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[k] - 1 for each k in turn, concatenated."""
    total = int(counts.sum())
    return np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)


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
    """Per-lattice arrays for `_points_covered`. Squares that coincide (zero
    step or pitch) count once."""
    (bx, by, ang), (ux, uy), (px, py) = lat.base.T, lat.step.T, lat.pitch.T
    n = np.where((ux == 0) & (uy == 0), 1, lat.count).astype(float)
    m = np.where((px == 0) & (py == 0), 1, lat.repeat).astype(float)
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
    return {"bx": bx, "by": by, "c": c, "s": s, "ux": ux, "uy": uy, "px": px, "py": py,
            "n": n, "m": m, "scale": scale, "u1": u1, "u2": u2, "jw": u1 * p2 - u2 * p1,
            "norm": np.abs(u1) + np.abs(u2), "on1": on1,
            "uk": np.where(on1, u1, u2), "pk": np.where(on1, p1, p2)}


def _points_covered(pts: np.ndarray, lat: Lattices, tau: float) -> tuple[np.ndarray, int]:
    """Boolean mask: point inside at least one square of `lat` (squares
    inflated by tau); and the number of point-square tests made.

    Broad phase: the points are sorted once into cells, and each lattice
    takes the points in the cells its box meets, the box of its base poses
    inflated by sqrt(2)*(1 + tau). Narrow phase: a point lies in square
    (i, j) when its square-frame offset (a, b) from the base, less i*U and
    j*P (step and pitch in the square frame), is in [-tau, 1 + tau]^2. One
    linear bound on j, then one on i for each j, gives the candidates, and
    each candidate is tested with the pose arithmetic of
    `enumerate_placements`, so the mask is the one a test against every
    enumerated square gives. The bounds are widened by _SLACK times the size
    of the coordinates, far above their rounding error. Points already
    covered are not tested again.
    """
    covered = np.zeros(len(pts), dtype=bool)
    if len(pts) == 0 or len(lat) == 0:
        return covered, 0
    table = _lattice_table(lat)
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
    reach = math.sqrt(2.0) * (1.0 + tau) + _SLACK * table["scale"]

    def cells(lo, hi, origin, size):
        first = np.clip(np.floor((lo - reach - origin) * inv), 0, size)
        last = np.clip(np.floor((hi + reach - origin) * inv), -1, size - 1)
        return first.astype(np.int64), last.astype(np.int64)

    cx0, cx1 = cells(ex.min(axis=0), ex.max(axis=0), x0, ncx)
    cy0, cy1 = cells(ey.min(axis=0), ey.max(axis=0), y0, ncy)
    rows = np.where(cx1 >= cx0, np.maximum(cy1 - cy0 + 1, 0), 0)
    owner = np.repeat(np.arange(len(lat)), rows)
    row = (cy0[owner] + _ramp(rows)) * ncx
    first = np.searchsorted(key, row + cx0[owner], "left")
    length = np.searchsorted(key, row + cx1[owner], "right") - first
    ends = np.cumsum(length)

    tests = done = start = 0
    while start < len(owner):
        stop = max(int(np.searchsorted(ends, done + _POINT_CHUNK, "right")), start + 1)
        span = length[start:stop]
        which = np.repeat(owner[start:stop], span)
        q = order[np.repeat(first[start:stop], span) + _ramp(span)]
        keep = ~covered[q]
        tests += _cover_chunk(pts, q[keep], which[keep], table, tau, covered)
        done = ends[stop - 1]
        start = stop
    return covered, tests


def _cover_chunk(pts, q, which, table, tau, covered) -> int:
    """Narrow phase for point q[k] against lattice which[k]; marks covered
    points and returns the number of squares tested."""
    bx, by, c, s, scale, u1, u2, norm = (
        table[f][which] for f in ("bx", "by", "c", "s", "scale", "u1", "u2", "norm"))
    qx, qy = pts[q, 0], pts[q, 1]
    dx, dy = qx - bx, qy - by
    a = c * dx + s * dy
    b = -s * dx + c * dy
    r = tau + _SLACK * (scale + np.abs(qx) + np.abs(qy))
    mid = u1 * b - u2 * a + 0.5 * (u2 - u1)
    half = norm * (0.5 + r)
    jf, nj = _index_range(table["jw"][which], mid - half, mid + half, table["m"][which])
    pair = np.repeat(np.arange(len(q)), nj)
    j = jf[pair] + _ramp(nj)
    row_lat = which[pair]
    xk = np.where(table["on1"][row_lat], a[pair], b[pair]) - j * table["pk"][row_lat]
    rp = r[pair]
    i_first, ni = _index_range(table["uk"][row_lat], xk - 1.0 - rp, xk + rp,
                               table["n"][row_lat])
    cand = np.repeat(np.arange(len(pair)), ni)
    i = i_first[cand] + _ramp(ni)
    j = j[cand]
    k = pair[cand]
    cand_lat = row_lat[cand]
    tx = bx[k] + i * table["ux"][cand_lat] + j * table["px"][cand_lat]
    ty = by[k] + i * table["uy"][cand_lat] + j * table["py"][cand_lat]
    dxp = qx[k] - tx
    dyp = qy[k] - ty
    ck, sk = c[k], s[k]
    u = ck * dxp + sk * dyp
    v = -sk * dxp + ck * dyp
    inside = (u >= -tau) & (u <= 1 + tau) & (v >= -tau) & (v <= 1 + tau)
    covered[q[k[inside]]] = True
    return len(k)
