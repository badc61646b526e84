from __future__ import annotations

import copy
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sqpack.config import TAU, PackConfig
from sqpack.geometry import Pose, square_corners, rect_region, trap_region
from sqpack.plan import Plan, StackRun, enumerate_placements, grid_node, stacks_node
from sqpack.planner import cover_square, cover_strip, pack_square, pack_strip
from sqpack.verifier import _points_covered, _sample_region, verify_covering, verify_packing
from oracles import point_in_quad, quads_disjoint

CFG = PackConfig(samples=100_000)


def test_clean_grid_passes():
    plan = pack_square(50.0)
    report = verify_packing(plan, cfg=CFG)
    assert report.passed and report.square_count == 2500
    assert report.violations == []


def test_nudged_square_reports_overlap():
    plan = pack_square(50.0)
    node = plan.root
    # shear one square half a cell to the right
    extra = StackRun(base=Pose(10.5, 10.0, 0.0), step=(1.0, 0.0), count=1)
    bad = stacks_node(rect_region(50.0, 50.0), [extra], leftovers=[node])
    bad_plan = Plan(kind="pack", x=50.0, region=plan.region, root=bad)
    report = verify_packing(bad_plan, cfg=CFG)
    assert not report.passed
    kinds = {v["type"] for v in report.violations}
    assert "overlap" in kinds
    # the nudged square overlaps exactly its two horizontal neighbours
    overlaps = [v for v in report.violations if v["type"] == "overlap"]
    assert len(overlaps) == 2


def test_escape_reported():
    node = grid_node(rect_region(5.0, 5.0), (0.0, 0.0), 5, 5)
    plan = Plan(kind="pack", x=5.0, region=rect_region(4.5, 5.0), root=node)
    report = verify_packing(plan, cfg=CFG)
    assert not report.passed
    assert any(v["type"] == "escape" for v in report.violations)


def test_flush_edges_are_not_violations():
    plan = pack_strip(10.5, 300.0)
    report = verify_packing(plan, cfg=CFG)
    assert report.passed, report.violations[:5]


def test_verifier_ignores_accounting():
    # verdicts come from geometry alone: corrupting the declared area of the
    # root must not change the verdict
    plan = pack_square(120.5)
    plan.root.area *= 2
    report = verify_packing(plan, cfg=CFG)
    assert report.passed


def test_over_limit_marks_partial():
    plan = pack_square(400.5)
    report = verify_packing(plan, cfg=PackConfig(enum_limit=10))
    assert report.partial
    assert report.status == "unverified" and not report.passed


def test_covering_clean():
    report = verify_covering(cover_square(50.0), cfg=CFG)
    assert report.passed


def test_covering_detects_deleted_leaf():
    plan = cover_square(400.5)
    mutated = copy.deepcopy(plan)

    def kill_first_grid(node):
        for child in node.children:
            if child.kind == "grid" and child.rows * child.cols > 100:
                child.rows = 0
                child.cols = 0
                return True
            if kill_first_grid(child):
                return True
        return False

    assert kill_first_grid(mutated.root) or mutated.root.kind == "grid"
    report = verify_covering(mutated, cfg=CFG)
    assert not report.passed
    assert any(v["type"] == "uncovered" for v in report.violations)


def test_covering_detects_deleted_stack_run():
    plan = cover_strip(10.5, 200.0)
    mutated = copy.deepcopy(plan)
    run = mutated.root.runs[0]
    mutated.root.runs[0] = StackRun(base=run.base, step=run.step, count=run.count,
                                    repeat=run.repeat - 20, pitch=run.pitch)
    report = verify_covering(mutated, cfg=CFG)
    assert not report.passed


def test_pair_search_matches_all_pairs():
    plan = pack_square(60.5)
    poses = enumerate_placements(plan)
    assert len(poses) <= 10_000
    report = verify_packing(plan, cfg=CFG)
    overlap_pairs = report.runtime_stats["overlap_pairs"]
    # brute force over all pairs i < j: a numpy distance prefilter in row
    # blocks, then the scalar predicate on every pair it keeps
    corners = [square_corners(Pose(*p)) for p in poses]
    base = poses[:, :2]
    brute = 0
    for lo in range(0, len(poses), 512):
        d = base[lo:lo + 512, None, :] - base[None, lo:, :]
        ii, jj = np.nonzero((d ** 2).sum(axis=2) <= 8.0)
        for i, j in zip(ii + lo, jj + lo):
            if i < j and not quads_disjoint(corners[i], corners[j], 1e-9):
                brute += 1
    assert overlap_pairs == brute == 0


def test_seeded_sampling_is_deterministic():
    plan = cover_square(120.5)
    r1 = verify_covering(plan, cfg=CFG)
    r2 = verify_covering(plan, cfg=CFG)
    assert r1.sampled_points == r2.sampled_points
    assert r1.passed == r2.passed


def test_sample_region_keeps_points_of_a_mirrored_trapezoid():
    region = trap_region(4.0, 1.0, 3.0, Pose(2.0, 1.0, math.pi / 2), mirror=True)
    quad = region.polygon()
    pts = _sample_region(region, 2000, np.random.RandomState(3))
    assert len(pts) == 2000
    assert all(point_in_quad(p, quad) for p in pts)


@pytest.mark.parametrize("region", [
    rect_region(1e-12, 1.0, Pose(1e6, 0.0, 0.3)),
    trap_region(1e-13, 1.0, 1.0, Pose(1e7, 0.0, 0.1)),
])
def test_sample_region_rejects_a_region_its_box_dwarfs(region):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=region.kind):
        _sample_region(region, 10, np.random.RandomState(0))
    assert time.perf_counter() - t0 < 2.0



def _mixed_poses(seed: int = 11) -> np.ndarray:
    """A few thousand squares at angles 0, pi/2 and tilted, with exactly
    touching neighbours, planted overlaps and contact depths within a few
    tau of the 2*tau overlap threshold."""
    rng = np.random.RandomState(seed)
    blocks = []
    # exactly touching upright and quarter-turned grids
    gx, gy = np.meshgrid(np.arange(20.0), np.arange(20.0))
    blocks.append(np.stack([gx.ravel(), gy.ravel(), np.zeros(400)], axis=1))
    qx, qy = np.meshgrid(np.arange(15.0), np.arange(15.0))
    blocks.append(np.stack([qx.ravel() + 31.0, qy.ravel(), np.full(225, math.pi / 2)], axis=1))
    # planted overlaps inside the upright grid
    picks = rng.randint(0, 400, size=60)
    planted = blocks[0][picks].copy()
    planted[:, :2] += rng.uniform(-0.9, 0.9, size=(60, 2))
    planted[:, 2] = rng.choice([0.0, math.pi / 2, 0.3], size=60)
    blocks.append(planted)
    # a jittered lattice of tilted squares, some overlapping
    lx, ly = np.meshgrid(np.arange(30.0), np.arange(30.0))
    tilted = np.stack([lx.ravel() * 1.3, ly.ravel() * 1.3 + 25.0,
                       rng.uniform(-math.pi / 2, math.pi / 2, size=900)], axis=1)
    tilted[:, :2] += rng.uniform(-0.2, 0.2, size=(900, 2))
    blocks.append(tilted)
    # side-by-side pairs along one square's own axis; the oracle shrinks each
    # corner by tau along its diagonal, so it flags depths above sqrt(2)*tau
    # where the verifier needs 2*tau: planted depths avoid that band
    pairs = []
    depths = np.array([-3.0, -1.0, 0.0, 0.5, 1.0, 2.5, 3.0, 5.0]) * TAU
    for k in range(400):
        ang = [0.0, math.pi / 2, rng.uniform(-1.5, 1.5)][k % 3]
        depth = depths[k % len(depths)]
        c, s = math.cos(ang), math.sin(ang)
        x0, y0 = 50.0 + 3.0 * (k % 20), 3.0 * (k // 20)
        along = (1.0 - depth) * np.array([c, s] if k % 2 else [-s, c])
        pairs += [[x0, y0, ang], [x0 + along[0], y0 + along[1], ang]]
    blocks.append(np.array(pairs))
    return np.concatenate(blocks, axis=0)


def _loose_plan(poses: np.ndarray) -> Plan:
    runs = [StackRun(base=Pose(*p), step=(0.0, 0.0), count=1) for p in poses]
    region = rect_region(200.0, 200.0, Pose(-50.0, -50.0, 0.0))
    return Plan(kind="pack", x=200.0, region=region, root=stacks_node(region, runs))


def _unit_centres(poses: np.ndarray) -> np.ndarray:
    c, s = np.cos(poses[:, 2]), np.sin(poses[:, 2])
    return poses[:, :2] + 0.5 * np.stack([c - s, s + c], axis=1)


def test_pair_search_and_sat_match_brute_force_on_mixed_poses():
    plan = _loose_plan(_mixed_poses())
    poses = enumerate_placements(plan)
    assert len(poses) > 2000
    report = verify_packing(plan, cfg=PackConfig())
    centres = _unit_centres(poses)
    quads = [square_corners(Pose(*p)) for p in poses]
    brute_pairs = brute_overlaps = 0
    for i in range(len(poses) - 1):
        d = np.hypot(*(centres[i + 1:] - centres[i]).T)
        for j in np.nonzero(d <= math.sqrt(2.0))[0] + i + 1:
            brute_pairs += 1
            brute_overlaps += not quads_disjoint(quads[i], quads[j], TAU)
    assert report.runtime_stats["candidate_pairs"] == brute_pairs
    assert report.runtime_stats["overlap_pairs"] == brute_overlaps > 0


def test_points_covered_matches_brute_force_on_mixed_poses():
    poses = enumerate_placements(_loose_plan(_mixed_poses()))
    rng = np.random.RandomState(5)
    cs = np.cos(poses[:, 2])
    sn = np.sin(poses[:, 2])
    # random points, plus points just inside and just outside square edges
    pick = rng.randint(0, len(poses), size=1500)
    u = rng.choice([-3.0 * TAU, -0.5 * TAU, 0.0, 0.5, 1.0 + 0.5 * TAU, 1.0 + 3.0 * TAU], size=1500)
    v = rng.uniform(0.0, 1.0, size=1500)
    edge = poses[pick, :2] + np.stack([cs[pick] * u - sn[pick] * v,
                                       sn[pick] * u + cs[pick] * v], axis=1)
    pts = np.concatenate([rng.uniform(-5.0, 115.0, size=(2500, 2)), edge], axis=0)
    got = _points_covered(pts, poses, TAU)
    want = np.zeros(len(pts), dtype=bool)
    for k, (px, py) in enumerate(pts):
        dx, dy = px - poses[:, 0], py - poses[:, 1]
        lu = cs * dx + sn * dy
        lv = -sn * dx + cs * dy
        want[k] = ((lu >= -TAU) & (lu <= 1 + TAU) & (lv >= -TAU) & (lv <= 1 + TAU)).any()
    assert want.any() and not want.all()
    assert np.array_equal(got, want)


def test_import_sqpack_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import sys, sqpack; print('scipy' in sys.modules)"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
