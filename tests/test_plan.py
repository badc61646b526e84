from __future__ import annotations

import copy
import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqpack.plan as plan_mod
import sqpack.planner as planner_mod
from sqpack.builders import InvalidSpec, ShelfSpec, _tilt_limit
from sqpack.geometry import Pose, Region, rect_region, tri_region
from sqpack.planner import build_plan, pack_square
from sqpack.plan import (
    OverLimit, Plan, PlanError, PlanNode, StackRun, account, check_bound, dumps_stable,
    enumerate_placements, grid_node, plan_from_json, plan_to_json, split_node,
    stacks_node, waste_node,
)
from oracles import plan_to_dict, set_runs, v2_text

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
    assert v2_text(plan_from_json(text)) == v2_text(build_plan(kind, "square", 150.5))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_plan_json_refuses_non_finite_numbers(token):
    text = plan_to_json(pack_square(50.5))
    assert '"x":50.5' in text
    with pytest.raises(PlanError, match=f"non-finite number {token} in plan"):
        plan_from_json(text.replace('"x":50.5', f'"x":{token}'))


def _first(node: dict, kind: str) -> dict:
    """The first node of `kind` at or below `node`, in pre-order."""
    if node["kind"] == kind:
        return node
    for child in node.get("children", []) + node.get("leftovers", []):
        if (found := _first(child, kind)) is not None:
            return found
    return None


@pytest.mark.parametrize("edit", ["region dims", "region frame", "grid origin", "run base",
                                  "run count"])
def test_plan_json_refuses_numbers_that_overflow(edit):
    """1e400 is no token `parse_constant` sees: it loads as inf, and the
    region, run and grid checks refuse it."""
    data = json.loads(plan_to_json(build_plan("cover", "square", 150.5)))
    place, i = {"region dims": (data["region"]["dims"], 0),
                "region frame": (data["region"]["frame"], 0),
                "grid origin": (_first(data["root"], "grid")["origin"], 1),
                "run base": (_first(data["root"], "stacks")["runs"][0], 0),
                "run count": (_first(data["root"], "stacks")["runs"][0], 5)}[edit]
    place[i] = "OVERFLOW"
    text = json.dumps(data).replace('"OVERFLOW"', "1e400")
    with pytest.raises(PlanError, match=f"non-finite number in plan {edit.split()[0]}"):
        plan_from_json(text)


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

    square, *shape = planner_mod._SHAPES["square"]
    monkeypatch.setitem(planner_mod._SHAPES, "square", (recording(square), *shape))
    monkeypatch.setattr(plan_mod, "definitions", recording(plan_mod.definitions))
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
            plan_from_json(dumps_stable({"version": 4}))
        assert gc.isenabled() is enabled
        with pytest.raises(InvalidSpec):
            build_plan("pack", "shelf", steep)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert inside == [False] * 4


def _chain_text(levels: int, uses: int) -> str:
    """A version 3 pack plan of `levels` definitions: a one-square grid, then each a
    split over `uses` uses of the one before, so `uses ** (levels - 1)` squares."""
    def region(w):
        return {"dims": [w, 1.0], "frame": [0.0, 0.0, 0.0], "kind": "rect", "mirror": False}
    grid = {"area": 1.0, "kind": "grid", "label": "", "region": region(1.0),
            "origin": [0.0, 0.0], "rows": 1, "cols": 1}
    splits = [{"area": float(uses ** k), "kind": "split", "label": "", "region": None,
               "children": [{"def": k - 1}] * uses} for k in range(1, levels)]
    return dumps_stable({"defs": [grid, *splits], "kind": "pack", "meta": {},
                         "region": region(float(uses ** (levels - 1))),
                         "root": {"def": levels - 1}, "version": 3, "x": 1.0})


def test_counts_read_each_definition_once(monkeypatch):
    """18 definitions, each a split over two uses of the one before: the tree walks out to
    262,143 nodes, and the analytic count reads each of its 18 distinct nodes once."""
    plan = plan_from_json(_chain_text(18, 2))
    read, own_count = [], PlanNode.own_count
    monkeypatch.setattr(PlanNode, "own_count", lambda node: read.append(node) or own_count(node))
    assert plan.root.total_count() == 2 ** 17 and len(read) == 18
    read.clear()
    report = account(plan)
    assert report.square_count == 2 ** 17 and report.waste_or_excess == 0.0 and len(read) == 18


def test_a_chain_of_5000_definitions_is_accounted():
    # far past the interpreter's recursion limit; `account` recursed once and failed here
    plan = plan_from_json(_chain_text(5000, 1))
    assert account(plan).square_count == plan.root.total_count() == 1


def test_per_region_breakdown_present():
    rep = account(pack_square(400.5))
    labels = [e["label"] for e in rep.per_region]
    assert len(labels) >= 3
    assert any("core" in l for l in labels)


# scalars the writer must format as json.dumps does: signed zeros, subnormals,
# the largest doubles, integral floats next to the ints equal to them
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                     -1.7976931348623157e308, 1.0, 2.0, -3.0, 0.1, 150.5]),
    st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30), st.booleans())
TEXTS = st.one_of(st.text(max_size=6),
                  st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é€𝄞", "%s%%", "band 3", ""]))
POSES = st.builds(Pose, NUMBERS, NUMBERS, NUMBERS)
REGIONS = st.one_of(st.none(), st.builds(
    Region, st.one_of(st.sampled_from(["rect", "trap", "tri"]), TEXTS),
    st.lists(NUMBERS, min_size=2, max_size=3).map(tuple), POSES, st.booleans()))
RUNS = st.builds(StackRun, POSES, st.tuples(NUMBERS, NUMBERS), st.integers(0, 10 ** 6),
                 st.integers(0, 10 ** 6), st.tuples(NUMBERS, NUMBERS), TEXTS)
LEDGERS = st.dictionaries(TEXTS, st.one_of(NUMBERS, st.lists(NUMBERS, max_size=3),
                                           st.lists(st.lists(NUMBERS, max_size=3), max_size=2)),
                          max_size=3)


def _stacks(runs, **fields) -> PlanNode:
    """A stacks node holding the run columns of `runs`; a number that is not a float
    is held, and written, as the float64 it converts to."""
    node = PlanNode(kind="stacks", **fields)
    set_runs(node, runs)
    return node


LEAVES = st.one_of(
    st.builds(PlanNode, kind=st.just("grid"), region=REGIONS, area=NUMBERS, label=TEXTS,
              origin=st.tuples(NUMBERS, NUMBERS), rows=st.integers(0, 10 ** 6),
              cols=st.integers(0, 10 ** 6)),
    st.builds(PlanNode, kind=st.just("waste"), region=REGIONS, area=NUMBERS, label=TEXTS,
              reason=TEXTS),
    st.builds(PlanNode, kind=TEXTS, region=REGIONS, area=NUMBERS, label=TEXTS))
TREES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.builds(PlanNode, kind=st.just("split"), region=REGIONS, area=NUMBERS, label=TEXTS,
              children=st.lists(kids, max_size=3)),
    st.builds(_stacks, st.lists(RUNS, max_size=3), region=REGIONS, area=NUMBERS, label=TEXTS,
              children=st.lists(kids, max_size=3), ledger=LEDGERS)), max_leaves=10)
PLANS = st.builds(Plan, kind=st.sampled_from(["pack", "cover"]), x=NUMBERS, region=REGIONS,
                  root=TREES, meta=LEDGERS)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(plan=PLANS)
def test_plan_json_writes_what_json_dumps_writes(plan):
    """On random trees, with no grafts and nothing shared, the writer's text is
    `dumps_stable` of the plan's dict as each node holds it, at version 3 with no
    definitions."""
    expected = dumps_stable({**plan_to_dict(plan, world=False), "version": 3, "defs": []})
    assert plan_to_json(plan) == expected


def _bit_patterns_plan(uses: int) -> Plan:
    """Runs, region frames and grid origins of several nodes that hold 0.0, -0.0, 5e-324,
    1e308 and 0.1, each pattern in every node, some of them grafted, and `uses` further
    grafted uses of one node."""
    values = (0.0, -0.0, 5e-324, 1e308, 0.1)
    nodes = []
    for k in range(len(values)):
        a, b, c, d, e = values[k:] + values[:k]
        grid = grid_node(rect_region(2.0, 1.0, Pose(e, d, c)), (a, b), 1, 2, label="grid")
        run = StackRun(Pose(a, b, c), (d, e), 2, 3, (b, a), "band")
        nodes.append(stacks_node(rect_region(9.0, 9.0, Pose(c, d, e), k % 2 == 1),
                                 [run, run], leftovers=[grid], label="strip"))
    nodes[1].graft = (Pose(-0.0, 5e-324, math.pi / 2), True)
    for _ in range(uses):
        nodes.append(copy.copy(nodes[2]))
        nodes[-1].graft = (Pose(0.1, -0.0, -math.pi), False)
    root = PlanNode(kind="split", region=rect_region(99.0, 99.0, Pose(-0.0, 0.0, 0.1)),
                    area=1e308, label="top", children=nodes)
    return Plan(kind="pack", x=0.1, region=root.region, root=root)


@pytest.mark.parametrize("uses", [0, 1, 16384])
def test_plan_json_formats_each_bit_pattern_once_and_right(uses):
    """The version 3 text of each float bit pattern is the text json.dumps writes, and a
    shared node's is written once in `defs` however many uses it has: the plan reads
    back as written, and its world tree is the oracle's version 2 text."""
    plan = _bit_patterns_plan(uses)
    text = plan_to_json(plan)
    assert "-0.0" in text and "5e-324" in text and "1e+308" in text
    assert len(json.loads(text)["defs"]) == min(uses, 1)
    assert text.count('"strip"') == 5
    again = plan_from_json(text)
    assert plan_to_json(again) == text
    world = v2_text(plan)
    assert v2_text(again) == world
    assert "-0.0" in world
    assert world.count('"strip"') == 5 + uses


def _with_non_finite(place: str, value: float) -> Plan:
    run = StackRun(Pose(1.0, 2.0, 0.5), (0.25, 0.5), 3, 2, (1.5, 0.0), "band 1")
    leaf = grid_node(rect_region(4.0, 3.0), (0.5, 0.25), 3, 4, label="grid")
    root = stacks_node(rect_region(9.0, 9.0, Pose(1.0, 1.0, 0.0)), [run], leftovers=[leaf],
                       label="strip", ledger={"band_ends": [0.5, 1.5]})
    plan = Plan(kind="pack", x=9.5, region=rect_region(9.5, 9.5), root=root,
                meta={"stats": {"joint_max": 0.25}})
    if place == "x":
        plan.x = value
    elif place == "area":
        leaf.area = value
    elif place == "region dims":
        leaf.region = Region("rect", (value, 3.0), IDENTITY_POSE, False)
    elif place == "region frame":
        root.region = Region("rect", (9.0, 9.0), Pose(1.0, value, 0.0), False)
    elif place == "run base":
        set_runs(root, [StackRun(Pose(value, 2.0, 0.5), (0.25, 0.5), 3)])
    elif place == "grid origin":
        leaf.origin = (0.5, value)
    elif place == "ledger":
        root.ledger["band_ends"].append(value)
    else:
        plan.meta["stats"]["joint_max"] = value
    return plan


IDENTITY_POSE = Pose(0.0, 0.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", ["x", "area", "region dims", "region frame", "run base",
                                   "grid origin", "ledger", "meta"])
def test_plan_json_refuses_non_finite_floats(place, value):
    """NaN and infinities raise the ValueError of json.dumps(allow_nan=False)."""
    plan = _with_non_finite(place, value)
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        dumps_stable(plan_to_dict(plan))
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        plan_to_json(plan)
