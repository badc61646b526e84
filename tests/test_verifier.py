from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sqpack.config import TAU, PackConfig
from sqpack.geometry import Pose, corners, rect_region
from sqpack.plan import (
    OverLimit, Plan, StackRun, dumps_stable, enumerate_placements, grid_node, lattice_sizes,
    plan_lattices, split_node, stacks_node,
)
from sqpack.planner import build_plan, cover_square, pack_square
from sqpack import verifier
from sqpack.verifier import _lattice_table, _points_covered, verify_covering, verify_packing
from oracles import (
    covered_by_kd_join, covering_by_ring_probes, enumerate_by_node, packing_by_kd_pairs,
    packing_by_ring_probes, point_in_quad, quads_disjoint, sample_quad, set_runs, stack_runs,
    uncovered_samples, world_plan,
)
from test_graft import HUGE_CASES, PLAN_CASES, _build_case

CFG = PackConfig()


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
    plan = build_plan("pack", "strip", 10.5, 300.0)
    report = verify_packing(plan, cfg=CFG)
    assert report.passed, report.violations[:5]


def test_verifier_ignores_accounting():
    # verdicts come from geometry alone: corrupting the declared area of the
    # root must not change the verdict
    plan = pack_square(120.5)
    plan.root.area *= 2
    report = verify_packing(plan, cfg=CFG)
    assert report.passed


def test_large_packing_is_checked_in_full():
    # 4.0e8 squares, far over what enumeration allows: every one is checked
    plan = pack_square(20000.5)
    report = verify_packing(plan, cfg=CFG)
    assert report.status == "passed" and not report.partial
    assert report.square_count == plan.root.total_count() > 10 ** 8
    assert report.runtime_stats["probes"] < report.square_count // 1000


def test_failing_packing_report_is_deterministic():
    plan = _mutated_plan("nudged square")
    r1 = verify_packing(plan, cfg=CFG)
    r2 = verify_packing(plan, cfg=CFG)
    assert r1.status == "failed"
    assert (dumps_stable(r1.to_dict(include_runtime=False))
            == dumps_stable(r2.to_dict(include_runtime=False)))


def test_covering_2_64_squares():
    # one 2**32 x 2**32 grid: its count overflows int64, the exact sum does
    # not. Its ring holds 1.7e10 squares, too many to probe, so the lattice
    # count the verifier starts from is checked instead
    side = 2 ** 32
    region = rect_region(float(side), float(side))
    plan = Plan(kind="cover", x=float(side), region=region,
                root=grid_node(region, (0.0, 0.0), side, side))
    assert sum(lattice_sizes(plan_lattices(plan))) == plan.root.total_count() == 2 ** 64


def test_covering_counts_past_2_53_exactly():
    # one row of 2**53 + 1 squares over its rectangle, 2**53 wide in float64:
    # through a float64 table its count read 2**53 and the plan was refused
    cols = 2 ** 53 + 1
    region = rect_region(float(cols), 1.0)
    plan = Plan(kind="cover", x=float(cols), region=region,
                root=grid_node(region, (0.0, 0.0), 1, cols))
    report = verify_covering(plan, cfg=CFG)
    assert report.passed and report.square_count == 9007199254740993


def _nodes(node):
    yield node
    for c in node.children:
        yield from _nodes(c)


def test_covering_ignores_the_enumeration_limit():
    plan = cover_square(10000.5)
    cfg = PackConfig()
    with pytest.raises(OverLimit):
        enumerate_placements(plan)
    report = verify_covering(plan, cfg)
    assert report.status == "passed" and not report.partial
    assert report.square_count == plan.root.total_count() > 10 ** 8
    # deleting a leaf of the strip is still caught; the leaf is deleted from the
    # world tree, where no other use shares it
    plan = world_plan(plan)
    strip = plan.root.children[1]
    assert strip.label == "strip"
    parent, i = next((n, i) for n in _nodes(strip) for i, c in enumerate(n.children)
                     if c.kind == "grid" and c.area >= 50.0)
    del parent.children[i]
    report = verify_covering(plan, cfg)
    assert report.status == "failed"
    assert any(v["type"] == "uncovered" for v in report.violations)


def test_covering_clean():
    report = verify_covering(cover_square(50.0), cfg=CFG)
    assert report.passed and report.square_count == 2500
    # one 50 x 50 grid, level, so one rectangle probe and no pair: the points
    # are its sides' crossings with the target's edges; each took a test
    stats = report.runtime_stats
    assert stats["lattices"] == stats["rectangles"] == stats["probes"] == 1
    assert stats["candidate_pairs"] == 0
    assert report.runtime_stats["point_tests"] >= report.sampled_points > 0


@pytest.mark.parametrize("chunk", [1, 16])
def test_covering_report_does_not_depend_on_the_batch_size(chunk, monkeypatch):
    # a batch flushed inside the probe loop can leave no points for the last one,
    # and a covering with thousands of gaps lists the same first 100; the box
    # sweep then yields `chunk` candidate pairs at a time
    plans = [cover_square(50.5), _random_lattice_plan(7)]
    expected = [verify_covering(plan, cfg=CFG).to_dict(include_runtime=False) for plan in plans]
    monkeypatch.setattr(verifier, "_PROBE_CHUNK", chunk)
    monkeypatch.setattr(verifier, "_POINT_CHUNK", 16 * chunk)
    assert [verify_covering(plan, cfg=CFG).to_dict(include_runtime=False)
            for plan in plans] == expected


def test_covering_detects_deleted_leaf():
    mutated = world_plan(cover_square(400.5))

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
    _assert_real_gaps(mutated, verify_covering(mutated, cfg=CFG))


def test_covering_detects_deleted_stack_run():
    mutated = world_plan(build_plan("cover", "strip", 10.5, 200.0))
    runs = stack_runs(mutated.root)
    run = runs[0]
    runs[0] = StackRun(base=run.base, step=run.step, count=run.count,
                       repeat=run.repeat - 20, pitch=run.pitch)
    set_runs(mutated.root, runs)
    _assert_real_gaps(mutated, verify_covering(mutated, cfg=CFG))


def _boxes(seed: int):
    """Boxes on a grid of 1/8, so every overlap is exact: small ones, tall ones
    that span many slabs, coincident copies, and copies moved right to overlap
    by exactly 1/4 or by 1/8 more."""
    rng = np.random.RandomState(seed)
    lo = rng.randint(0, 160, (40, 2)) / 8.0
    size = rng.randint(1, 24, (40, 2)) / 8.0
    size[:6, 1] = rng.randint(200, 600, 6) / 8.0
    lo, size = np.concatenate([lo, lo[:5]]), np.concatenate([size, size[:5]])
    moved = lo[5:15] + np.stack([size[5:15, 0] - 0.25 - rng.randint(0, 2, 10) / 8.0,
                                 rng.randint(-2, 3, 10) / 8.0], axis=1)
    lo, size = np.concatenate([lo, moved]), np.concatenate([size, size[5:15]])
    order = rng.permutation(len(lo))
    return lo[order], lo[order] + size[order]


@pytest.mark.parametrize("chunk", [16, 1 << 15])
@pytest.mark.parametrize("seed", range(4))
def test_box_pairs_match_brute_force(seed, chunk, monkeypatch):
    # every pair of boxes overlapping by more than 1/4 on both axes, once;
    # chunk 16 yields one candidate at a time
    monkeypatch.setattr(verifier, "_POINT_CHUNK", chunk)
    lo, hi = _boxes(seed)
    depth = 0.25
    for n in (0, 1, len(lo)):
        found = [(int(a), int(b)) for pairs in verifier._box_pairs(lo[:n], hi[:n], depth)
                 for a, b in zip(*pairs)]
        brute = {(a, b) for a in range(n) for b in range(a + 1, n)
                 if (np.minimum(hi[a], hi[b]) - np.maximum(lo[a], lo[b]) > depth).all()}
        unordered = [(min(a, b), max(a, b)) for a, b in found]
        assert len(set(unordered)) == len(unordered) and set(unordered) == brute
    overlap = np.minimum(hi[:, None], hi[None]) - np.maximum(lo[:, None], lo[None])
    assert len(brute) > 20 and (overlap.min(axis=2) == depth).sum() > 0


def test_pair_search_matches_all_pairs():
    plan = pack_square(60.5)
    poses = enumerate_placements(plan)
    assert len(poses) <= 10_000
    report = verify_packing(plan, cfg=CFG)
    overlap_pairs = report.runtime_stats["overlap_pairs"]
    # brute force over all pairs i < j: a numpy distance prefilter in row
    # blocks, then the scalar predicate on every pair it keeps
    quads = corners(poses).tolist()
    base = poses[:, :2]
    brute = 0
    for lo in range(0, len(poses), 512):
        d = base[lo:lo + 512, None, :] - base[None, lo:, :]
        ii, jj = np.nonzero((d ** 2).sum(axis=2) <= 8.0)
        for i, j in zip(ii + lo, jj + lo):
            if i < j and not quads_disjoint(quads[i], quads[j], 1e-9):
                brute += 1
    assert overlap_pairs == brute == 0


def test_failing_covering_report_is_deterministic():
    plan = _random_lattice_plan(7)
    r1, r2 = verify_covering(plan, cfg=CFG), verify_covering(plan, cfg=CFG)
    assert r1.status == "failed" and len(r1.violations) == 101
    assert (dumps_stable(r1.to_dict(include_runtime=False))
            == dumps_stable(r2.to_dict(include_runtime=False)))


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


def test_pair_search_and_sat_match_brute_force_on_mixed_poses(monkeypatch):
    plan = _loose_plan(_mixed_poses())
    poses = enumerate_placements(plan)
    assert len(poses) > 2000
    report = verify_packing(plan, cfg=PackConfig())
    centres = _unit_centres(poses)
    quads = corners(poses).tolist()
    brute = []
    for i in range(len(poses) - 1):
        d = np.hypot(*(centres[i + 1:] - centres[i]).T)
        brute += [[i, int(j)] for j in np.nonzero(d <= math.sqrt(2.0))[0] + i + 1
                  if not quads_disjoint(quads[i], quads[j], TAU)]
    assert report.status == "failed"
    assert report.runtime_stats["overlap_pairs"] == len(brute) > 100
    assert _listed_pairs(report) == brute[:100]
    # every pair, once the report may list them all
    monkeypatch.setattr(verifier, "_LISTED", len(brute) + 1)
    assert _listed_pairs(verify_packing(plan, cfg=PackConfig())) == brute


def test_over_limit_sample_finds_overlaps():
    # the first 1000 of the 2385 one-square lattices, planted overlaps among
    # them: a plan of any size is checked in full, never sampled
    report = verify_packing(_loose_plan(_mixed_poses()[:1000]), cfg=PackConfig())
    assert not report.partial and report.square_count == 1000
    assert report.status == "failed"
    assert any(v["type"] == "overlap" for v in report.violations)


def _edge_points(poses: np.ndarray, rng: np.random.RandomState, n: int) -> np.ndarray:
    """Points just inside and just outside the edges of random squares:
    -3, -0.5, 0.5 or 3 tau across one edge, anywhere along it."""
    pick = rng.randint(0, len(poses), size=n)
    across = rng.choice([-3.0, -0.5, 0.5, 3.0], size=n) * TAU + rng.randint(0, 2, size=n)
    along = rng.uniform(0.0, 1.0, size=n)
    flip = rng.randint(0, 2, size=n).astype(bool)
    u, v = np.where(flip, along, across), np.where(flip, across, along)
    c, s = np.cos(poses[pick, 2]), np.sin(poses[pick, 2])
    return poses[pick, :2] + np.stack([c * u - s * v, s * u + c * v], axis=1)


def _brute_covered(pts: np.ndarray, poses: np.ndarray) -> np.ndarray:
    """One point at a time against every square."""
    cs = np.cos(poses[:, 2])
    sn = np.sin(poses[:, 2])
    want = np.zeros(len(pts), dtype=bool)
    for k, (px, py) in enumerate(pts):
        dx, dy = px - poses[:, 0], py - poses[:, 1]
        lu = cs * dx + sn * dy
        lv = -sn * dx + cs * dy
        want[k] = ((lu >= -TAU) & (lu <= 1 + TAU) & (lv >= -TAU) & (lv <= 1 + TAU)).any()
    return want


def test_points_covered_matches_brute_force_on_mixed_poses():
    plan = _loose_plan(_mixed_poses())
    lat = plan_lattices(plan)
    poses = enumerate_placements(plan)
    assert len(lat["count"]) == len(poses) == 2385
    rng = np.random.RandomState(5)
    # random points, plus points just inside and just outside square edges
    pick = rng.randint(0, len(poses), size=1500)
    u = rng.choice([-3.0 * TAU, -0.5 * TAU, 0.0, 0.5, 1.0 + 0.5 * TAU, 1.0 + 3.0 * TAU], size=1500)
    v = rng.uniform(0.0, 1.0, size=1500)
    cs, sn = np.cos(poses[pick, 2]), np.sin(poses[pick, 2])
    edge = poses[pick, :2] + np.stack([cs * u - sn * v, sn * u + cs * v], axis=1)
    pts = np.concatenate([rng.uniform(-5.0, 115.0, size=(2500, 2)), edge], axis=0)
    got, tests = _points_covered(pts, _lattice_table(lat), TAU)
    want = _brute_covered(pts, poses)
    assert want.any() and not want.all()
    assert np.array_equal(got, want)
    assert tests >= want.sum()


def _random_lattice_plan(seed: int) -> Plan:
    """Overlapping grids and runs with tilted steps and pitches, bases whose
    angle folds, count == 1, repeat == 1 with zero pitch, collinear step and
    pitch, and a zero step under several coincident squares."""
    rng = np.random.RandomState(seed)
    runs = []
    for k in range(72):
        angle = rng.uniform(-math.pi, math.pi)
        base = Pose(rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0), angle)
        t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
        step = rng.uniform(0.3, 1.6) * np.array([math.cos(t1), math.sin(t1)])
        pitch = rng.uniform(0.3, 1.6) * np.array([math.cos(t2), math.sin(t2)])
        count, repeat = rng.randint(2, 9), rng.randint(2, 7)
        shape = k % 6
        if shape == 1:
            count = 1
        elif shape == 2:
            repeat, pitch = 1, np.zeros(2)
        elif shape == 3:
            pitch = rng.choice([-2.5, 0.5, 1.0, count]) * step
        elif shape == 4:  # a stack: the step along the square's own axis
            step = np.array([-math.sin(angle), math.cos(angle)])
            pitch = np.array([1.0 / max(abs(math.cos(angle)), 0.2), 0.0])
        elif shape == 5:
            step = np.zeros(2)
        runs.append(StackRun(base=base, step=tuple(step), count=count, repeat=repeat,
                             pitch=tuple(pitch)))
    region = rect_region(60.0, 60.0, Pose(-10.0, -10.0, 0.0))
    grids = [grid_node(rect_region(7.0, 5.0, Pose(x, y, 0.0)), (x, y), 5, 7)
             for x, y in rng.uniform(0.0, 40.0, size=(3, 2))]
    return Plan(kind="cover", x=60.0, region=region,
                root=stacks_node(region, runs, leftovers=grids))


@pytest.mark.parametrize("seed", [7, 8])
def test_points_covered_matches_brute_force_on_random_lattices(seed):
    plan = _random_lattice_plan(seed)
    lat = plan_lattices(plan)
    poses = enumerate_placements(plan)
    assert poses.tobytes() == enumerate_by_node(plan.root).tobytes()
    assert np.any(np.abs(plan.root.runs[:, 2]) > math.pi / 2)
    rng = np.random.RandomState(seed)
    edge = _edge_points(poses, rng, 3000)
    pts = np.concatenate([rng.uniform(-12.0, 52.0, size=(3000, 2)), edge], axis=0)
    got, _ = _points_covered(pts, _lattice_table(lat), TAU)
    want = _brute_covered(pts, poses)
    assert want[:3000].any() and not want[:3000].all()
    assert want[3000:].any() and not want[3000:].all()
    assert np.array_equal(got, want)


def _candidate_points(plan: Plan, monkeypatch) -> np.ndarray:
    """The points `verify_covering` hands to `_points_covered`."""
    seen = []

    def record(pts, table, tau):
        seen.append(pts)
        return _points_covered(pts, table, tau)

    monkeypatch.setattr(verifier, "_points_covered", record)
    verify_covering(plan, cfg=CFG)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("kind,case", [(k, c) for k in ("pack", "cover")
                                       for c in PLAN_CASES if c not in HUGE_CASES])
def test_lattice_coverage_matches_kd_join_on_plans(kind, case, monkeypatch):
    plan = _build_case(kind, case)
    poses = enumerate_placements(plan, limit=2_000_000)
    quad = plan.region.polygon()
    pts = sample_quad(quad + quad[-1:] * (4 - len(quad)), np.random.RandomState(0), 100_000)
    pts = np.concatenate([pts, _candidate_points(plan, monkeypatch)])
    got, _ = _points_covered(pts, _lattice_table(plan_lattices(plan)), TAU)
    assert np.array_equal(got, covered_by_kd_join(pts, poses, TAU))


def _listed_pairs(report) -> list[list[int]]:
    return [v["pair"] for v in report.violations if v["type"] == "overlap"]


def _assert_matches_kd_oracle(plan: Plan):
    """The verifier's verdicts, pair count and listed pairs equal those of
    the check over every enumerated square."""
    report = verify_packing(plan, cfg=CFG)
    escapes, pairs = packing_by_kd_pairs(plan, TAU)
    assert any(v["type"] == "escape" for v in report.violations) == (len(escapes) > 0)
    assert report.runtime_stats["overlap_pairs"] == len(pairs)
    assert _listed_pairs(report) == pairs[:100].tolist()
    assert report.passed == (len(escapes) == len(pairs) == 0)
    return report, pairs


@pytest.mark.parametrize("case", [c for c in PLAN_CASES if c not in HUGE_CASES])
def test_packing_matches_kd_oracle_on_plans(case):
    report, _ = _assert_matches_kd_oracle(_build_case("pack", case))
    assert report.passed


@pytest.mark.parametrize("seed", [7, 8])
def test_packing_matches_kd_oracle_on_random_lattices(seed):
    lattices = _random_lattice_plan(seed)
    plan = Plan(kind="pack", x=lattices.x, region=lattices.region, root=lattices.root)
    _, pairs = _assert_matches_kd_oracle(plan)
    assert len(pairs) > 100


def _mutated_plan(name: str) -> Plan:
    """pack_square(300.5), whose core is a 228 x 228 grid at the origin
    under a tilted strip, with one defect planted around the core."""
    plan = pack_square(300.5)
    parent, at = next((nd, i) for nd in _nodes(plan.root) for i, c in enumerate(nd.children)
                      if c.kind == "grid" and c.rows * c.cols > 50_000)
    core = parent.children[at]
    rows, cols = core.rows, core.cols

    def add(*runs, grids=()):
        plan.root.children.append(stacks_node(None, list(runs), leftovers=list(grids), area=1.0))

    def replace(pitch, repeat):
        run = StackRun(base=Pose(0.0, 0.0, 0.0), step=(1.0, 0.0), count=cols,
                       repeat=repeat, pitch=pitch)
        parent.children[at] = stacks_node(core.region, [run])

    if name == "nudged square":
        add(StackRun(base=Pose(100.5, 100.0, 0.0), step=(1.0, 0.0), count=1))
    elif name == "shifted grid":  # into the strip above the core
        core.origin = (0.0, 0.5)
    elif name == "grid inside grid":
        add(grids=[grid_node(rect_region(3.0, 3.0, Pose(100.5, 100.5, 0.0)), (100.5, 100.5), 3, 3)])
    elif name == "shrunk pitch":
        replace((0.0, 0.99), rows)
    elif name == "zero step":
        add(StackRun(base=Pose(100.0, 100.0, 0.0), step=(0.0, 0.0), count=2))
    else:  # rows 0, 2, 4, ... of the core, one square in a gap
        replace((0.0, 2.0), rows // 2)
        y = {"flush in gap": 101.0, "shifted in gap": 101.5}[name]
        add(StackRun(base=Pose(100.0, y, 0.0), step=(1.0, 0.0), count=1))
    return plan


@pytest.mark.parametrize("name", ["nudged square", "shifted grid", "grid inside grid",
                                  "shrunk pitch", "zero step", "flush in gap", "shifted in gap"])
def test_packing_matches_kd_oracle_on_mutated_plans(name):
    report, pairs = _assert_matches_kd_oracle(_mutated_plan(name))
    assert report.passed == (name == "flush in gap")
    want = {"nudged square": 2, "grid inside grid": 36, "shrunk pitch": 228 * 227,
            "zero step": 3, "flush in gap": 0, "shifted in gap": 1}
    assert len(pairs) == want.get(name, len(pairs))


def test_packing_finds_gapped_lattices_crossing_at_their_centres():
    # rows 2 apart and columns 2 apart meet only in the centre square of
    # each, where no ring square reaches: both are probed in full
    rows = StackRun(base=Pose(4.5, 3.5, 0.0), step=(1.0, 0.0), count=3, repeat=3, pitch=(0.0, 2.0))
    cols = StackRun(base=Pose(3.5, 4.5, 0.0), step=(0.0, 1.0), count=3, repeat=3, pitch=(2.0, 0.0))
    region = rect_region(12.0, 12.0)
    plan = Plan(kind="pack", x=12.0, region=region, root=stacks_node(region, [rows, cols]))
    _, pairs = _assert_matches_kd_oracle(plan)
    assert pairs.tolist() == [[4, 13]]


def _assert_matches_ring_oracle(plan: Plan):
    """The verifier's overlap verdict, pair count and listed pairs equal those
    of ring probes over every lattice."""
    report = verify_packing(plan, cfg=CFG)
    found, pairs = packing_by_ring_probes(plan)
    assert report.runtime_stats["overlap_pairs"] == found
    assert _listed_pairs(report) == pairs.tolist()
    assert any(v["type"] == "overlap" for v in report.violations) == (found > 0)
    return report


@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_packing_matches_ring_oracle_on_plans(case):
    assert _assert_matches_ring_oracle(_build_case("pack", case)).passed


@pytest.mark.parametrize("name", ["nudged square", "shifted grid", "grid inside grid",
                                  "shrunk pitch", "zero step", "flush in gap", "shifted in gap",
                                  "random 7", "random 8"])
def test_packing_matches_ring_oracle_on_failing_plans(name):
    if name.startswith("random"):
        lattices = _random_lattice_plan(int(name[-1]))
        plan = Plan(kind="pack", x=lattices.x, region=lattices.region, root=lattices.root)
    else:
        plan = _mutated_plan(name)
    assert _assert_matches_ring_oracle(plan).passed == (name == "flush in gap")


def _runs_plan(*runs: StackRun) -> Plan:
    region = rect_region(40.0, 40.0)
    return Plan(kind="pack", x=40.0, region=region, root=stacks_node(region, list(runs)))


def test_flush_rows_inside_each_others_hull_pass():
    # rows 2 apart, the second set one row up: hull inside hull, so both
    # lattices are probed, and every pair of squares only touches
    plan = _runs_plan(*(StackRun(base=Pose(1.0, y, 0.0), step=(1.0, 0.0), count=5, repeat=repeat,
                                 pitch=(0.0, 2.0)) for y, repeat in ((1.0, 3), (2.0, 2))))
    report, pairs = _assert_matches_kd_oracle(plan)
    assert report.passed and len(pairs) == 0
    stats = report.runtime_stats
    assert stats["hull_pairs"] == 1 and stats["fallback_lattices"] == 2


def test_nearly_collinear_lattice_reports_every_self_overlap():
    # step and pitch 0.033 rad apart: every row up to dj = 36 has squares
    # within sqrt(2) of square (0, 0), so far more than O(1) offsets are tested
    run = StackRun(base=Pose(1.0, 1.0, 0.0), step=(1.0, 0.0), count=12, repeat=60,
                   pitch=(0.3, 0.01))
    report, pairs = _assert_matches_kd_oracle(_runs_plan(run))
    assert len(pairs) > 10_000 and report.runtime_stats["offsets"] > 100
    assert report.runtime_stats["fallback_lattices"] == 1


def test_lattice_overlapping_itself_through_one_offset():
    # only offset (di, dj) = (-3, 1) brings two squares within reach: squares
    # (3, j) and (0, j + 1) overlap by half a unit each way
    run = StackRun(base=Pose(1.0, 1.0, 0.0), step=(1.0, 0.0), count=4, repeat=3,
                   pitch=(3.5, 0.5))
    report, pairs = _assert_matches_kd_oracle(_runs_plan(run))
    assert pairs.tolist() == [[3, 4], [7, 8]]
    assert report.runtime_stats["fallback_lattices"] == 1


def test_failing_large_packing_probes_near_the_overlap():
    # the 18318 x 18318 core shifted 0.5 up into the strip: only the lattices
    # whose hulls meet are probed, and only near each other's hulls
    plan = pack_square(20000.5)
    core = max((n for n in _nodes(plan.root) if n.kind == "grid"), key=lambda n: n.rows * n.cols)
    core.origin = (core.origin[0], core.origin[1] + 0.5)
    report = verify_packing(plan, cfg=CFG)
    assert report.status == "failed" and report.runtime_stats["overlap_pairs"] > 18318
    assert report.runtime_stats["probes"] < report.square_count // 1000


def _uncovered(report) -> np.ndarray:
    return np.array([v["location"] for v in report.violations
                     if v["location"] is not None]).reshape(-1, 2)


def _assert_real_gaps(plan: Plan, report, gaps=(None,), poses=None, near=None):
    """`report` fails on `uncovered` points only, each uncovered in the
    sampling oracle too (those in the box `near`, when `poses` holds only
    the squares near it), which also finds an uncovered point in each gap
    quad (None: anywhere in the target); a listed point lies in each quad."""
    assert report.status == "failed"
    assert {v["type"] for v in report.violations} == {"uncovered"}
    poses = enumerate_by_node(plan.root) if poses is None else poses
    listed = _uncovered(report)
    if near is not None:
        listed = listed[(listed >= near[:2]).all(axis=1) & (listed <= near[2:]).all(axis=1)]
    assert len(listed) and not covered_by_kd_join(listed, poses, TAU).any()
    for quad in gaps:
        assert len(uncovered_samples(plan, 20_000, np.random.RandomState(1), quad, poses)), quad
        if quad is not None:
            assert any(point_in_quad(p, quad) for p in listed), quad


def _box(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def _cover_plan(w: float, h: float, runs=(), grids=()) -> Plan:
    region = rect_region(w, h)
    return Plan(kind="cover", x=w, region=region,
                root=stacks_node(region, list(runs), leftovers=list(grids)))


def _grid(x: float, y: float, cols: int, rows: int):
    return grid_node(rect_region(float(cols), float(rows), Pose(x, y, 0.0)), (x, y), rows, cols)


@pytest.mark.parametrize("case", [c for c in PLAN_CASES if c not in HUGE_CASES])
def test_covering_matches_sampling_oracle_on_plans(case):
    plan = _build_case("cover", case)
    report = verify_covering(plan, cfg=CFG)
    assert report.passed, report.violations[:3]
    assert report.square_count == plan.root.total_count()
    assert len(uncovered_samples(plan, 50_000, np.random.RandomState(2))) == 0


@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_covering_checks_every_lattice_of_plans(case):
    plan = _build_case("cover", case)
    lattices = len(plan_lattices(plan)["count"])
    assert verify_covering(plan, cfg=CFG).runtime_stats["lattices"] == lattices


@pytest.mark.parametrize("x,listed", [(150.5, 24), (1030.7, 98)])
def test_a_far_square_leaves_the_covering_tolerance(x, listed):
    # cover_square(x) less its largest stack run has a real gap; one more
    # square at 1e300, which covers nothing of the target, once widened the
    # nudge past the target and let the covering pass
    plan = world_plan(cover_square(x))
    node, run = max(((n, r) for n in _nodes(plan.root) if n.kind == "stacks"
                     for r in stack_runs(n)), key=lambda pair: pair[1].count * pair[1].repeat)
    runs = stack_runs(node)
    runs.remove(run)
    set_runs(node, runs)
    gapped = verify_covering(plan, cfg=CFG)
    assert gapped.status == "failed" and len(gapped.violations) == listed
    far = _grid(1e300, 0.0, 1, 1)
    plan.root = split_node(None, [plan.root, far], area=plan.root.area + far.area)
    report = verify_covering(plan, cfg=CFG)
    assert report.violations == gapped.violations
    del report.runtime_stats["seconds"], gapped.runtime_stats["seconds"]
    assert report.runtime_stats == gapped.runtime_stats


def test_each_uncovered_point_is_listed_once():
    # 30 coincident squares cross each other's edges at the same points, once
    # per pair; the report lists each uncovered point once, by x, then y, and
    # still tests every crossing
    plan = _cover_plan(3.0, 3.0, runs=[StackRun(Pose(1.0, 1.0, 0.0), (0.0, 0.0), 30)])
    report = verify_covering(plan, cfg=CFG)
    _assert_real_gaps(plan, report)
    listed = _uncovered(report)
    assert len(report.violations) == len(listed) == len({tuple(p) for p in listed}) == 8
    assert listed.tolist() == sorted(listed.tolist())
    assert report.sampled_points == 3484


@pytest.mark.parametrize("seed", [7, 8])
def test_covering_matches_sampling_oracle_on_random_lattices(seed):
    # mostly tilted, gapped and overlapping lattices that leave most of the
    # target bare: every listed point is a gap, and there are many
    plan = _random_lattice_plan(seed)
    report = _assert_matches_covering_oracle(plan)
    _assert_real_gaps(plan, report)
    assert report.violations[-1]["location"] is None


def _assert_matches_covering_oracle(plan: Plan):
    """The verifier's covering status equals that of ring probes over every lattice."""
    report = verify_covering(plan, cfg=CFG)
    assert report.status == covering_by_ring_probes(plan).status
    return report


def _probes_of(plan: Plan) -> tuple[list, int]:
    """The rectangle of each level lattice and the number of ring squares of
    the others, from `plan_lattices` one lattice at a time. In its square
    frame a lattice is solid when its step is 1 along one axis and at most TAU
    across and its pitch at most 1 + TAU each way (its ring, if at least 3 long
    each way, else every square), and level when it is solid and its rows
    drift at most TAU end to end. The rectangle is the frame box of its four
    extreme squares, as counterclockwise world corners."""
    lat, rectangles, squares = plan_lattices(plan), [], 0
    for bx, by, angle, ux, uy, px, py, n, m in zip(*(lat[f].tolist() for f in (
            "bx", "by", "ang", "ux", "uy", "px", "py", "count", "repeat"))):
        step, pitch = (ux, uy), (px, py)
        c, s = math.cos(angle), math.sin(angle)
        u = (c * step[0] + s * step[1], c * step[1] - s * step[0])
        p = (c * pitch[0] + s * pitch[1], c * pitch[1] - s * pitch[0])
        along = 0 if abs(u[0]) >= abs(u[1]) else 1
        solid = (abs(abs(u[along]) - 1.0) <= TAU and abs(u[1 - along]) <= TAU
                 and max(map(abs, p)) <= 1.0 + TAU)
        if not (solid and (n - 1) * abs(u[1 - along]) + (m - 1) * abs(p[along]) <= TAU):
            squares += 2 * (n + m) - 4 if solid and min(n, m) >= 3 else n * m
            continue
        ends = [(bx + i * step[0] + j * pitch[0], by + i * step[1] + j * pitch[1])
                for i in (0, n - 1) for j in (0, m - 1)]
        fu, fv = [c * x + s * y for x, y in ends], [c * y - s * x for x, y in ends]
        u0, u1, v0, v1 = min(fu), max(fu) + 1.0, min(fv), max(fv) + 1.0
        rectangles.append([(c * a - s * b, s * a + c * b)
                           for a, b in ((u0, v0), (u1, v0), (u1, v1), (u0, v1))])
    return rectangles, squares


@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_covering_probes_level_lattices_as_rectangles(case, monkeypatch):
    # one rectangle per level lattice, the box of its squares, and the ring
    # squares of the others; the same status as ring probes of every lattice,
    # with no more probes and no more point tests
    plan = _build_case("cover", case)
    seen = []
    rectangles = verifier._rectangles
    monkeypatch.setattr(verifier, "_rectangles", lambda *a: seen.append(rectangles(*a)) or seen[0])
    report = verify_covering(plan, cfg=CFG)
    monkeypatch.undo()
    oracle, (want, squares) = covering_by_ring_probes(plan), _probes_of(plan)
    stats = report.runtime_stats
    assert report.status == oracle.status == "passed"
    assert (stats["rectangles"], stats["probes"] - stats["rectangles"]) == (len(want), squares)
    assert np.allclose(seen[0], np.array(want).reshape(-1, 4, 2), rtol=1e-12, atol=1e-9)
    assert stats["probes"] <= oracle.runtime_stats["probes"]
    assert stats["point_tests"] <= oracle.runtime_stats["point_tests"]


def test_covering_grids_meeting_flush_pass():
    plan = _cover_plan(10.0, 6.0, grids=[_grid(0.0, 0.0, 4, 6), _grid(4.0, 0.0, 6, 6)])
    assert verify_covering(plan, cfg=CFG).passed


def _planted_gap(name: str):
    """A covering with gaps planted in it, and a quad inside each gap."""
    if name == "shifted grid":  # the core of cover_square(300.5), 0.5 off the left edge
        plan = cover_square(300.5)
        core = next(n for n in _nodes(plan.root) if n.kind == "grid" and n.rows * n.cols > 50_000)
        core.origin = (0.5, 0.0)
        return plan, [_box(0.0, 0.0, 0.5, float(core.rows))]
    if name == "few nudge widths":  # two grids 5 nudge widths apart, nu = 2.08e-9
        gap = 5 * 2.08e-9
        plan = _cover_plan(10.0, 6.0, grids=[_grid(0.0, 0.0, 4, 6), _grid(4.0 + gap, 0.0, 6, 6)])
        return plan, [_box(4.0, 0.0, 4.0 + gap, 6.0)]
    if name == "gapped rows":  # rows 2 apart; one gap row is plugged at x = 1.5 and 3.5,
        # so its middle part has its corners on the edges of inner squares only
        rows = StackRun(base=Pose(0.0, 0.0, 0.0), step=(1.0, 0.0), count=6, repeat=4,
                        pitch=(0.0, 2.0))
        plugs = StackRun(base=Pose(1.5, 3.0, 0.0), step=(2.0, 0.0), count=2)
        plan = _cover_plan(6.0, 7.0, runs=[rows, plugs], grids=[_grid(0.0, 1.0, 6, 1),
                                                                _grid(0.0, 5.0, 6, 1)])
        return plan, [_box(0.0, 3.0, 1.5, 4.0), _box(2.5, 3.0, 3.5, 4.0), _box(4.5, 3.0, 6.0, 4.0)]
    if name == "brick hole":  # a hole walled in by one lattice's own squares
        bricks = StackRun(base=Pose(0.0, 0.0, 0.0), step=(1.5, 0.0), count=4, repeat=3,
                          pitch=(0.75, 0.75))
        region = rect_region(0.8, 0.7, Pose(1.6, 0.9, 0.0))
        plan = Plan(kind="cover", x=0.8, region=region, root=stacks_node(region, [bricks]))
        return plan, [_box(1.75, 1.0, 2.25, 1.5)]
    if name == "turned grids":  # four level runs turned by 0.3 around a hole: A | hole | B
        # between C below and D above, so each corner of the hole is on two rectangle sides
        frame, gap = Pose(5.0, 1.0, 0.3), 0.5
        c, s = math.cos(frame.angle), math.sin(frame.angle)
        runs = [StackRun(base=Pose(*frame.apply(x, y), frame.angle), step=(c, s), count=cols,
                         repeat=rows, pitch=(-s, c))
                for x, y, cols, rows in ((0.0, 0.0, 4, 6), (4.0 + gap, 0.0, 6, 6),
                                         (0.0, 0.0, 11, 2), (0.0, 4.0, 11, 2))]
        region = rect_region(10.0 + gap, 6.0, frame)
        hole = [frame.apply(x, y) for x, y in _box(4.0, 2.0, 4.0 + gap, 4.0)]
        return Plan(kind="cover", x=10.0 + gap, region=region,
                    root=stacks_node(region, runs)), [hole]
    if name in ("overlapping rows", "coincident rows"):  # a level run, rows 0.5 or 0 apart
        # (under a grid), beside a gap that a grid closes on the far side
        grids = [_grid(6.0, 0.0, 2, 4)] + [_grid(0.0, 1.0, 5, 3)] * (name == "coincident rows")
        rows = StackRun(base=Pose(0.0, 0.0, 0.0), step=(1.0, 0.0), count=5, repeat=7,
                        pitch=(0.0, 0.5 if name == "overlapping rows" else 0.0))
        return _cover_plan(8.0, 4.0, runs=[rows], grids=grids), [_box(5.0, 0.0, 6.0, 4.0)]
    # "diamonds": squares at 45 degrees between two 3-row grids, each tip
    # 0.01 into a grid at a grid corner; a gap's corners are all where an
    # edge crosses a grid near its tip, and each pair there needs the full reach
    h, eps = math.sqrt(0.5), 0.01
    diamonds = StackRun(base=Pose(2.0, 3.0 - eps, math.pi / 4), step=(2.0, 0.0), count=3)
    top = 3.0 + 2.0 * h - 2.0 * eps
    plan = _cover_plan(8.0, top + 3.0, runs=[diamonds],
                       grids=[_grid(0.0, 0.0, 8, 3), _grid(0.0, top, 8, 3)])
    return plan, [_box(x, 3.0, x + 2.0, top) for x in (2.0, 4.0)]


@pytest.mark.parametrize("name", ["shifted grid", "few nudge widths", "gapped rows",
                                  "brick hole", "diamonds", "turned grids", "overlapping rows",
                                  "coincident rows"])
def test_covering_finds_planted_gaps(name):
    plan, gaps = _planted_gap(name)
    _assert_real_gaps(plan, _assert_matches_covering_oracle(plan), gaps)


def test_covering_finds_dropped_stack_rows():
    # the last row dropped from 5 short stack runs (count <= 8, repeat >= 2)
    # evenly spaced in pre-order; each gap holds listed points of its own,
    # and the oracle enumerates only the squares near it; the rows are dropped
    # from the world tree, where no other use shares them
    plan = world_plan(cover_square(10000.5))
    runs = [(n, i) for n in _nodes(plan.root) if n.kind == "stacks"
            for i, r in enumerate(stack_runs(n)) if r.repeat >= 2 and r.count <= 8]
    boxes = []
    for node, i in runs[::len(runs) // 5][:5]:
        node_runs = stack_runs(node)
        run = node_runs[i]
        node_runs[i] = StackRun(base=run.base, step=run.step, count=run.count,
                                repeat=run.repeat - 1, pitch=run.pitch)
        set_runs(node, node_runs)
        last = (np.array([run.base.tx, run.base.ty]) + (run.repeat - 1) * np.array(run.pitch)
                + np.arange(run.count)[:, None] * np.array(run.step))
        boxes.append((*(last.min(axis=0) - 1.5), *(last.max(axis=0) + 1.5)))
    report = _assert_matches_covering_oracle(plan)
    assert len(report.violations) < 100  # every point is listed
    for box in boxes:
        near = (box[0] - 2.0, box[1] - 2.0, box[2] + 2.0, box[3] + 2.0)
        poses = enumerate_by_node(plan.root, near)
        _assert_real_gaps(plan, report, [_box(*box)], poses, near=box)


def test_verify_covering_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from sqpack import PackConfig, cover_square, pack_square, "
            "verify_covering, verify_packing; "
            "r = verify_covering(cover_square(150.5), cfg=PackConfig()); "
            "p = verify_packing(pack_square(150.5)); "
            "print(r.status, p.status, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "passed passed False"


def test_import_sqpack_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import sys, sqpack; print('scipy' in sys.modules)"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
