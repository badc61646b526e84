from __future__ import annotations

import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest

import sqpack.plan as plan_mod
import sqpack.planner as planner_mod
from sqpack.builders import InvalidSpec, ShelfSpec, _tilt_limit
from sqpack.geometry import Pose, rect_region, tri_region
from sqpack.planner import build_plan, pack_square
from sqpack.plan import (
    OverLimit, Plan, PlanError, StackRun, account, check_bound, dumps_stable,
    enumerate_placements, grid_node, plan_from_json, plan_to_json, split_node,
    stacks_node, waste_node,
)

SQRT2 = math.sqrt(2.0)


def _plan_of(node, kind="pack", x=1.0, region=None):
    return Plan(kind=kind, x=x, region=region if region is not None else node.region,
                root=node)


def test_grid_enumeration_trivial():
    node = grid_node(rect_region(4, 3), (0.0, 0.0), 3, 4)
    poses = enumerate_placements(_plan_of(node))
    assert len(poses) == 12
    assert set(map(tuple, poses[:, :2])) == {(float(i), float(j))
                                             for i in range(4) for j in range(3)}


def test_stack_run_expansion_matches_definition():
    # five squares stepping (-sin 0.1, cos 0.1) from a base angle of 0.1
    run = StackRun(base=Pose(0.0, 0.0, 0.1), step=(-math.sin(0.1), math.cos(0.1)),
                   count=5)
    node = stacks_node(rect_region(10, 10, Pose(-5, 0, 0)), [run])
    poses = enumerate_placements(_plan_of(node))
    assert len(poses) == 5
    centers = poses[:, :2] + 0.5 * np.array(
        [[math.cos(0.1) - math.sin(0.1), math.sin(0.1) + math.cos(0.1)]])
    gaps = np.diff(centers, axis=0)
    assert np.allclose(np.hypot(gaps[:, 0], gaps[:, 1]), 1.0, atol=1e-12)


def test_repeat_pitch_expansion():
    run = StackRun(base=Pose(0.0, 0.0, 0.0), step=(0.0, 1.0), count=3, repeat=4,
                   pitch=(2.0, 0.0))
    node = stacks_node(rect_region(9, 3), [run])
    poses = enumerate_placements(_plan_of(node))
    assert len(poses) == 12
    assert {tuple(p) for p in poses[:, :2]} == {(2.0 * r, float(i))
                                                for r in range(4) for i in range(3)}


def test_enumeration_limit():
    node = grid_node(rect_region(1000, 1000), (0.0, 0.0), 1000, 1000)
    with pytest.raises(OverLimit):
        enumerate_placements(_plan_of(node), limit=10)


def test_account_declared_waste_triangle():
    # slant sliver with height 99 and tilt 0.001 concedes 4.90005 exactly
    tri = tri_region(99 * 0.001, 99.0)
    plan = _plan_of(waste_node(tri, "slant sliver"))
    rep = account(plan)
    assert abs(rep.waste_or_excess - 0.5 * 99 ** 2 * 0.001) < 1e-9
    assert rep.square_count == 0


def test_account_grid_in_larger_rect():
    region = rect_region(400.5, 400.5)
    node = grid_node(region, (0.0, 0.0), 400, 400)
    rep = account(_plan_of(node, x=400.5))
    assert rep.square_count == 160000
    assert abs(rep.waste_or_excess - 400.25) < 1e-9


def test_account_empty_split():
    region = rect_region(1e-9, 1e-9)
    node = split_node(region, [], label="empty")
    rep = account(_plan_of(node))
    assert rep.square_count == 0 and abs(rep.waste_or_excess) < 1e-8


def test_account_rejects_overfilled_packing_node():
    region = rect_region(2, 2)
    node = grid_node(region, (0.0, 0.0), 3, 3)  # 9 squares in area 4
    with pytest.raises(PlanError):
        account(_plan_of(node))


def test_split_requires_area_tiling():
    with pytest.raises(PlanError):
        split_node(rect_region(10, 10), [waste_node(rect_region(1, 1), "w")])


def _waste_in_a_covering():  # what a flat wedge under unit width used to build
    return _plan_of(waste_node(rect_region(0.5, 200.0), "sliver wedge"), kind="cover", x=200.0)


def _split_missing_a_child():
    plan = pack_square(150.5)
    plan.root.children.pop()
    return plan


def _grid_given_a_row():
    plan = pack_square(150.5)
    node = plan.root
    while node.kind != "grid":
        node = node.children[0]
    node.rows += 1
    return plan


@pytest.mark.parametrize("edited,refusal", [
    (_waste_in_a_covering, "covering plans cannot declare waste nodes"),
    (_split_missing_a_child, "split children areas"),
    (_grid_given_a_row, "packing node holds"),
])
def test_account_refuses_hand_edited_plans(edited, refusal):
    with pytest.raises(PlanError, match=refusal):
        account(edited())


def test_account_additivity_and_conservation():
    plan = pack_square(400.5)
    rep = account(plan)
    assert rep.area == pytest.approx(400.5 ** 2)
    assert rep.waste_or_excess == pytest.approx(rep.area - rep.square_count)
    total = sum(e["balance"] for e in rep.per_region)
    assert total == pytest.approx(rep.waste_or_excess, abs=1e-6)


def test_accounting_vs_enumeration_equality():
    plan = pack_square(400.5)
    rep = account(plan)
    poses = enumerate_placements(plan)
    assert len(poses) == rep.square_count


def test_check_bound_square_example():
    plan = pack_square(400.5)
    rep = account(plan)
    chk = check_bound(rep, "square")
    assert chk.passed
    assert chk.bound_value == pytest.approx((16 * SQRT2 + 38) * 400.5 ** 0.625)
    assert chk.bound_value == pytest.approx(2566, rel=2e-3)


def test_check_bound_shelf_constant():
    rep = account(pack_square(50.0))
    rep.x = 1e6
    rep.waste_or_excess = 650.0
    chk = check_bound(rep, "shelf")
    assert chk.bound_value == pytest.approx(7.2249 * 100, rel=1e-4)
    assert chk.passed


def test_check_bound_rejects_negative_waste():
    rep = account(pack_square(50.0))
    rep.waste_or_excess = -0.5
    with pytest.raises(PlanError):
        check_bound(rep, "square")


def test_check_bound_rejects_unknown_type():
    rep = account(pack_square(50.0))
    with pytest.raises(PlanError):
        check_bound(rep, "pentagon")


def test_plan_json_round_trip_byte_identical():
    plan = pack_square(400.5)
    text = plan_to_json(plan)
    again = plan_to_json(plan_from_json(text))
    assert text == again


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_v1_plan_files_load_and_rewrite_as_v2(kind):
    """A version 1 file, written with seams and overshoot regions, loads and
    is re-written as the version 2 plan of the same case."""
    text = (DATA / f"v1_{kind}_150.5.json").read_text()
    assert json.loads(text)["version"] == 1
    assert plan_to_json(plan_from_json(text)) == plan_to_json(build_plan(kind, "square", 150.5))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_plan_json_refuses_non_finite_numbers(token):
    text = plan_to_json(pack_square(50.5))
    assert '"x":50.5' in text
    with pytest.raises(PlanError, match=f"non-finite number {token} in plan"):
        plan_from_json(text.replace('"x":50.5', f'"x":{token}'))


def test_plan_json_rejects_unknown_version():
    with pytest.raises(PlanError):
        plan_from_json(dumps_stable({"version": 99}))


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_is_paused_and_restored(enabled, monkeypatch):
    """`build_plan`, `plan_to_json` and `plan_from_json` run with the cyclic
    collector off and leave it as the caller set it, also when they raise."""
    inside = []

    def recording(fn):
        def wrapped(*args):
            inside.append(gc.isenabled())
            return fn(*args)
        return wrapped

    monkeypatch.setattr(planner_mod, "resolve_grafts", recording(planner_mod.resolve_grafts))
    monkeypatch.setattr(plan_mod, "plan_to_dict", recording(plan_mod.plan_to_dict))
    monkeypatch.setattr(plan_mod, "plan_from_dict", recording(plan_mod.plan_from_dict))
    # a shelf tilted to its limit passes check_side and fails inside the build
    steep = ShelfSpec(1e4, 50.0, _tilt_limit(1e4))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        plan = pack_square(150.5)
        assert gc.isenabled() is enabled
        text = plan_to_json(plan)
        assert gc.isenabled() is enabled
        plan_from_json(text)
        assert gc.isenabled() is enabled
        with pytest.raises(PlanError):
            plan_from_json(dumps_stable({"version": 3}))
        assert gc.isenabled() is enabled
        with pytest.raises(InvalidSpec):
            build_plan("pack", "shelf", steep)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert inside == [False] * 4


def test_per_region_breakdown_present():
    rep = account(pack_square(400.5))
    labels = [e["label"] for e in rep.per_region]
    assert len(labels) >= 3
    assert any("core" in l for l in labels)
