"""Independent geometric validation of finished plans.

The verifier never reads plan accounting to decide validity: it expands
placements, then checks pairwise interior disjointness and containment
(packing) or samples the target for uncovered points (covering). Pair
candidates come from a uniform spatial hash with cell size 2: two unit
squares can only intersect if their centres are at most sqrt(2) apart,
and a point only lies in a square whose centre is within sqrt(2)/2.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import PackConfig
from .geometry import Region, points_in_region
from .plan import OverLimit, Plan, PlanNode, enumerate_placements

CELL = 2.0
_PAIR_CHUNK = 4_000_000


@dataclass
class VerifyReport:
    kind: str
    square_count: int
    violations: list[dict] = field(default_factory=list)
    sampled_points: int = 0
    passed: bool = True
    partial: bool = False
    runtime_stats: dict = field(default_factory=dict)

    def finish(self) -> "VerifyReport":
        self.passed = not self.violations
        return self

    def to_dict(self, include_runtime: bool = True) -> dict:
        d = {
            "kind": self.kind,
            "square_count": self.square_count,
            "violations": self.violations,
            "sampled_points": self.sampled_points,
            "passed": self.passed,
            "partial": self.partial,
        }
        if include_runtime:
            d["runtime_stats"] = self.runtime_stats
        return d


def _corners(poses: np.ndarray) -> np.ndarray:
    """(N, 4, 2) corner array for (N, 3) poses."""
    c = np.cos(poses[:, 2])
    s = np.sin(poses[:, 2])
    base = poses[:, :2]
    out = np.empty((len(poses), 4, 2))
    out[:, 0] = base
    out[:, 1, 0] = base[:, 0] + c
    out[:, 1, 1] = base[:, 1] + s
    out[:, 2, 0] = base[:, 0] + c - s
    out[:, 2, 1] = base[:, 1] + s + c
    out[:, 3, 0] = base[:, 0] - s
    out[:, 3, 1] = base[:, 1] + c
    return out


def _centers(poses: np.ndarray) -> np.ndarray:
    c = np.cos(poses[:, 2])
    s = np.sin(poses[:, 2])
    return np.stack([poses[:, 0] + (c - s) / 2.0, poses[:, 1] + (s + c) / 2.0], axis=1)


def _cell_ids(pts: np.ndarray) -> np.ndarray:
    cells = np.floor(pts / CELL).astype(np.int64)
    return (cells[:, 0] + 2**31) * np.int64(2**32) + (cells[:, 1] + 2**31)


def _group_by_cell(ids: np.ndarray):
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    uniq, starts = np.unique(sorted_ids, return_index=True)
    counts = np.diff(np.append(starts, len(sorted_ids)))
    return order, uniq, starts, counts


def _expand_join(sa, ca, sb, cb, order_a, order_b):
    """All (a, b) combinations for matched groups, yielded in bounded chunks."""
    sizes = (ca * cb).astype(np.int64)
    if len(sizes) == 0:
        return
    bounds = np.cumsum(sizes)
    total = int(bounds[-1])
    if total == 0:
        return
    lo = 0
    while lo < total:
        hi = min(lo + _PAIR_CHUNK, total)
        g_lo = int(np.searchsorted(bounds, lo, side="right"))
        g_hi = int(np.searchsorted(bounds, hi - 1, side="right")) + 1
        gsz = sizes[g_lo:g_hi]
        goff = bounds[g_lo:g_hi] - gsz
        grp = np.repeat(np.arange(g_lo, g_hi), gsz)
        within = np.arange(goff[0], bounds[g_hi - 1]) - goff[np.repeat(
            np.arange(len(gsz)), gsz)]
        ia = within // cb[grp]
        ib = within - ia * cb[grp]
        ii = order_a[sa[grp] + ia]
        jj = order_b[sb[grp] + ib]
        sel = slice(lo - int(goff[0]), hi - int(goff[0]))
        yield ii[sel], jj[sel]
        lo = hi


def _candidate_pairs(centers: np.ndarray, max_dist: float):
    """Unordered candidate index pairs from the spatial hash, distance-filtered."""
    ids = _cell_ids(centers)
    order, uniq, starts, counts = _group_by_cell(ids)
    max_d2 = max_dist * max_dist
    shifts = [0, 2**32, 2**32 + 1, 1, 2**32 - 1]  # self + 4 half-plane neighbours
    for shift in shifts:
        if shift == 0:
            src = np.arange(len(uniq))
            dst = src
        else:
            target = uniq + shift
            pos = np.searchsorted(uniq, target)
            posc = np.clip(pos, 0, len(uniq) - 1)
            valid = uniq[posc] == target
            src = np.nonzero(valid)[0]
            dst = posc[valid]
        for ii, jj in _expand_join(starts[src], counts[src], starts[dst], counts[dst],
                                   order, order):
            if shift == 0:
                keep = ii < jj
                ii, jj = ii[keep], jj[keep]
            if len(ii) == 0:
                continue
            d = centers[ii] - centers[jj]
            keep = (d * d).sum(axis=1) <= max_d2
            if keep.any():
                yield ii[keep], jj[keep]


def _overlap_mask(corners_a: np.ndarray, corners_b: np.ndarray,
                  angles_a: np.ndarray, angles_b: np.ndarray, tau: float) -> np.ndarray:
    """SAT for pairs of unit squares: overlap iff every axis shows depth > 2*tau.

    For rectangles the 2+2 edge-direction axes are a complete separating set.
    """
    overlap = np.ones(len(corners_a), dtype=bool)
    for angles in (angles_a, angles_b):
        for extra in (0.0, math.pi / 2):
            ang = angles + extra
            ax = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            pa = np.einsum("nkd,nd->nk", corners_a, ax)
            pb = np.einsum("nkd,nd->nk", corners_b, ax)
            depth = np.minimum(pa.max(axis=1), pb.max(axis=1)) - np.maximum(
                pa.min(axis=1), pb.min(axis=1))
            overlap &= depth > 2.0 * tau
            if not overlap.any():
                return overlap
    return overlap


def _leaf_nodes(node, out):
    if node.kind in ("grid", "stacks") and node.own_count() > 0:
        out.append(node)
    for c in node.children:
        _leaf_nodes(c, out)
    return out


def _sampled_poses(plan: Plan, cfg: PackConfig) -> np.ndarray:
    """Uniformly chosen leaves totalling at most the enumeration limit."""
    leaves = _leaf_nodes(plan.root, [])
    rng = np.random.RandomState(cfg.seed)
    order = rng.permutation(len(leaves))
    chunks = []
    budget = cfg.enum_limit
    for i in order:
        leaf = leaves[i]
        n = leaf.own_count()
        if n > budget:
            continue
        bare = PlanNode(kind=leaf.kind, region=leaf.region, area=leaf.area,
                        origin=leaf.origin, rows=leaf.rows, cols=leaf.cols,
                        runs=leaf.runs)
        chunks.append(enumerate_placements(bare, cfg.enum_limit))
        budget -= n
        if budget <= 0:
            break
    return np.concatenate(chunks, axis=0) if chunks else np.empty((0, 3))


def verify_packing(plan: Plan, region: Region | None = None,
                   cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Pairwise interior disjointness + containment + count consistency.

    Over the enumeration limit, a seeded random sample of leaves is checked
    instead and the report is marked partial.
    """
    t0 = time.perf_counter()
    region = region if region is not None else plan.region
    report = VerifyReport(kind="pack", square_count=0)
    analytic = plan.root.total_count()
    try:
        poses = enumerate_placements(plan, cfg.enum_limit)
    except OverLimit as exc:
        report.partial = True
        report.runtime_stats["note"] = str(exc)
        poses = _sampled_poses(plan, cfg)
    report.square_count = len(poses)

    if not report.partial and analytic != len(poses):
        report.violations.append({"type": "count", "location": None,
                                  "magnitude": float(analytic - len(poses))})

    corners = _corners(poses)
    flat_in = points_in_region(region, corners.reshape(-1, 2), cfg.tau)
    bad = np.nonzero(~flat_in.reshape(-1, 4).all(axis=1))[0]
    for i in bad[:100]:
        report.violations.append({
            "type": "escape",
            "location": [float(poses[i, 0]), float(poses[i, 1])],
            "magnitude": 1.0,
        })
    if len(bad) > 100:
        report.violations.append({"type": "escape", "location": None,
                                  "magnitude": float(len(bad) - 100)})

    centers = _centers(poses)
    angles = poses[:, 2]
    n_overlaps = 0
    n_pairs = 0
    for ii, jj in _candidate_pairs(centers, math.sqrt(2.0)):
        n_pairs += len(ii)
        mask = _overlap_mask(corners[ii], corners[jj], angles[ii], angles[jj], cfg.tau)
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
    """n points uniform in the region via rejection from its bounding box."""
    poly = np.array(region.polygon())
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    out = np.empty((0, 2))
    while len(out) < n:
        cand = rng.uniform(lo, hi, size=(max(2 * (n - len(out)), 1024), 2))
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


def verify_covering(plan: Plan, region: Region | None = None,
                    cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Stratified sampling: every sample must lie inside >= 1 placed square.

    Escape is not checked; covering squares may exit the region.
    """
    t0 = time.perf_counter()
    region = region if region is not None else plan.region
    report = VerifyReport(kind="cover", square_count=0)
    try:
        poses = enumerate_placements(plan, cfg.enum_limit)
    except OverLimit as exc:
        report.partial = True
        report.runtime_stats["note"] = str(exc)
        report.square_count = plan.root.total_count()
        return report.finish()
    report.square_count = len(poses)

    rng = np.random.RandomState(cfg.seed)
    pts = _sample_region(region, cfg.samples, rng)
    seam_pts = _seam_samples(plan.seams, region, cfg.samples // 10, rng)
    if len(seam_pts):
        pts = np.concatenate([pts, seam_pts], axis=0)
    report.sampled_points = len(pts)

    covered = _points_covered(pts, poses, cfg.tau)
    bad = np.nonzero(~covered)[0]
    for i in bad[:100]:
        report.violations.append({
            "type": "uncovered",
            "location": [float(pts[i, 0]), float(pts[i, 1])],
            "magnitude": 1.0,
        })
    if len(bad) > 100:
        report.violations.append({"type": "uncovered", "location": None,
                                  "magnitude": float(len(bad) - 100)})
    # coverage is checked probabilistically; the residual miss risk for a
    # gap of area A inside area S is about (1 - A/S) ** samples
    report.runtime_stats["method"] = "seeded stratified sampling (seam-biased)"
    report.runtime_stats["seconds"] = round(time.perf_counter() - t0, 3)
    return report.finish()


def _points_covered(pts: np.ndarray, poses: np.ndarray, tau: float) -> np.ndarray:
    """Boolean mask: point inside at least one square (squares inflated by tau)."""
    centers = _centers(poses)
    order, uniq, starts, counts = _group_by_cell(_cell_ids(centers))
    cos = np.cos(poses[:, 2])
    sin = np.sin(poses[:, 2])
    pt_ids = _cell_ids(pts)
    pt_order, pt_uniq, pt_starts, pt_counts = _group_by_cell(pt_ids)

    covered = np.zeros(len(pts), dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            shift = dx * np.int64(2**32) + dy
            target = pt_uniq + shift
            pos = np.searchsorted(uniq, target)
            posc = np.clip(pos, 0, max(len(uniq) - 1, 0))
            valid = (len(uniq) > 0) & (uniq[posc] == target)
            src = np.nonzero(valid)[0]
            dst = posc[valid]
            for prow, srow in _expand_join(pt_starts[src], pt_counts[src],
                                           starts[dst], counts[dst],
                                           pt_order, order):
                live = ~covered[prow]
                prow, srow = prow[live], srow[live]
                if len(prow) == 0:
                    continue
                dxp = pts[prow, 0] - poses[srow, 0]
                dyp = pts[prow, 1] - poses[srow, 1]
                u = cos[srow] * dxp + sin[srow] * dyp
                v = -sin[srow] * dxp + cos[srow] * dyp
                inside = (u >= -tau) & (u <= 1 + tau) & (v >= -tau) & (v <= 1 + tau)
                if inside.any():
                    covered[prow[inside]] = True
    return covered
