from __future__ import annotations

import copy
import math

import numpy as np

from sqpack.config import PackConfig
from sqpack.coverer import cover_square, cover_strip
from sqpack.geometry import Pose, square_corners, quads_disjoint, rect_region, trap_region
from sqpack.packer import pack_square, pack_strip
from sqpack.plan import Plan, StackRun, enumerate_placements, grid_node, stacks_node
from sqpack.verifier import _sample_region, verify_covering, verify_packing
from oracles import point_in_quad

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


def test_spatial_hash_matches_all_pairs():
    plan = pack_square(60.5)
    poses = enumerate_placements(plan)
    assert len(poses) <= 10_000
    report = verify_packing(plan, cfg=CFG)
    overlap_pairs = report.runtime_stats["overlap_pairs"]
    # brute force with the scalar predicate
    corners = [square_corners(Pose(*p)) for p in poses]
    brute = 0
    for i in range(len(corners)):
        for j in range(i + 1, len(corners)):
            ci = poses[i][:2]
            cj = poses[j][:2]
            if (ci[0] - cj[0]) ** 2 + (ci[1] - cj[1]) ** 2 > 8.0:
                continue
            if not quads_disjoint(corners[i], corners[j], 1e-9):
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
