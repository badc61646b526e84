"""Independent geometric validation of finished plans.

The verifier never reads plan accounting to decide validity: it expands
placements, then checks pairwise interior disjointness and containment
(packing) or samples the target for uncovered points (covering). Candidates
come from a KD-tree on the square centres (scipy's cKDTree, imported on
first use): two unit squares can only intersect if their centres are at
most sqrt(2) apart, and a point only lies in a square whose centre is
within sqrt(2)/2.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import PackConfig
from .geometry import Region, corners, points_in_region, region_area
from .plan import OverLimit, Plan, PlanNode, enumerate_placements

_PAIR_CHUNK = 1 << 20
_SAMPLE_DRAWS = 1 << 27  # most candidate points one call to _sample_region draws


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


def verify_packing(plan: Plan, cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Pairwise interior disjointness + containment in `plan.region` + count
    consistency.

    Over the enumeration limit, a seeded random sample of leaves is checked
    instead and the report is marked partial.
    """
    t0 = time.perf_counter()
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

    quads = corners(poses)
    flat_in = points_in_region(plan.region, quads.reshape(-1, 2), cfg.tau)
    del quads
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

    from scipy.spatial import cKDTree  # deferred: keeps `import sqpack` light

    centers = _centers(poses)
    cos = np.cos(poses[:, 2])
    sin = np.sin(poses[:, 2])
    pairs = cKDTree(centers).query_pairs(math.sqrt(2.0), output_type="ndarray")
    n_pairs = len(pairs)
    n_overlaps = 0
    for lo in range(0, n_pairs, _PAIR_CHUNK):
        ii, jj = pairs[lo:lo + _PAIR_CHUNK].T
        mask = _overlap_mask(centers, cos, sin, ii, jj, cfg.tau)
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


def verify_covering(plan: Plan, cfg: PackConfig = PackConfig()) -> VerifyReport:
    """Stratified sampling of `plan.region`: every sample must lie inside >= 1
    placed square.

    Escape is not checked; covering squares may exit the region.
    """
    t0 = time.perf_counter()
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
    pts = _sample_region(plan.region, cfg.samples, rng)
    seam_pts = _seam_samples(plan.seams, plan.region, cfg.samples // 10, rng)
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
    from scipy.spatial import cKDTree  # deferred: keeps `import sqpack` light

    # a point of a tau-inflated unit square lies within sqrt(1/2) + sqrt(2) tau
    # of its centre
    near = cKDTree(_centers(poses)).sparse_distance_matrix(
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
