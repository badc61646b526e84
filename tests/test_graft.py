"""Lazy grafting: composition law, one mapping per use, shared definitions,
merged wedge rows, and accounting that does not depend on frames."""

from __future__ import annotations

import ast
import copy
import gc
import hashlib
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqpack.builders as builders
import sqpack.plan as plan_mod
from sqpack.builders import (
    MAX_DEPTH, BuildStats, InvalidSpec, PanelSpec, ShelfSpec, WedgeSpec, _graft, build_shelf,
    build_wedge, sliced_trap_fill,
)
from sqpack.geometry import (
    IDENTITY, Pose, ceil_guard, compose_graft, corners, floor_guard, rect_region, trap_region,
)
from sqpack.plan import (
    Plan, PlanError, PlanNode, StackRun, account, dumps_stable, enumerate_placements, grid_node,
    plan_from_json, plan_lattices, plan_to_json, stacks_node, walk,
)
from sqpack.planner import build_plan, cover_square, pack_square
from sqpack.render import plan_to_svg
from sqpack.verifier import verify_covering, verify_packing
from oracles import (
    _node_to_dict, account_by_recursion, enumerate_by_node, fold_square_pose, plan_to_json_by_dicts,
    v2_text, world_plan, world_runs_by_node,
)


def _walk(node):
    yield node
    for c in node.children:
        yield from _walk(c)


def _subtree():
    """A small local subtree: tilted runs, a mirrored region and a grid leaf."""
    a = 0.25
    run = StackRun(base=Pose(0.3, 0.2, a), step=(-math.sin(a), math.cos(a)), count=3,
                   repeat=2, pitch=(1.0 / math.cos(a), 0.0))
    grid = grid_node(rect_region(3.0, 2.0, Pose(1.0, 4.0, 0.0)), (1.0, 4.0), 2, 3)
    leaf = stacks_node(trap_region(5.0, 2.0, 4.0, Pose(1.0, 2.0, math.pi / 2), mirror=True),
                       [run])
    return stacks_node(rect_region(10.0, 10.0), [run], leftovers=[leaf, grid])


def _square_set(node) -> np.ndarray:
    """Each square as its corner set, independent of which corner is the base."""
    poses = enumerate_placements(node)
    squares = [sorted((round(x, 9) + 0.0, round(y, 9) + 0.0) for x, y in quad)
               for quad in corners(poses).tolist()]
    return np.array(sorted(squares))


def _random_graft(rng):
    frame = Pose(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.randint(-2, 4) * math.pi / 2)
    return frame, bool(rng.randint(2))


def _flat(node: PlanNode) -> PlanNode:
    """The world tree of `node`, loaded from the oracle's version 2 text: no graft."""
    return world_plan(Plan(kind="pack", x=1.0, region=rect_region(1.0, 1.0), root=node)).root


def test_two_grafts_equal_one_composed_graft():
    rng = np.random.RandomState(5)
    for _ in range(40):
        (f1, m1), (f2, m2) = _random_graft(rng), _random_graft(rng)
        # one after the other: map by the inner graft, then by the outer one
        seq = _subtree()
        seq.graft = (f2, m2)
        seq = _flat(seq)
        seq.graft = (f1, m1)
        seq = _flat(seq)
        # composed: both grafts recorded, and the tree read through them or mapped once
        lazy = _graft(_graft(_subtree(), f2, m2), f1, m1)
        one = _flat(lazy)

        assert np.allclose(_square_set(seq), _square_set(one), atol=1e-9)
        assert np.allclose(_square_set(seq), _square_set(lazy), atol=1e-9)
        for (a, _), (b, _), (c, frame) in zip(walk(seq), walk(one), walk(lazy)):
            assert a.region.mirror == b.region.mirror == c.region.grafted(frame).mirror
            assert np.allclose(a.region.polygon(), b.region.polygon(), atol=1e-9)
            assert np.allclose(a.region.polygon(), c.region.grafted(frame).polygon(), atol=1e-9)
            if a.kind == "grid":
                assert (a.rows, a.cols) == (b.rows, b.cols)
                assert np.allclose(a.origin, b.origin, atol=1e-9)


def _unshared(build, spec, depth, stats, kind):
    """`builders._memoised` without the table: every use builds."""
    return build(spec, depth, stats, kind)


def test_every_node_is_mapped_exactly_once(monkeypatch):
    """`plan_lattices` maps the runs of every use of every stacks node in one `map_runs`
    call, each use once and in pre-order, though the uses of a definition share its
    nodes; the walk meets as many nodes as an unshared build has, and the world tree
    and lattices are the unshared build's, bit for bit."""
    calls = []
    mapper = plan_mod.map_runs

    def recording(uses):
        calls.append(list(uses))
        return mapper(uses)

    for build in (pack_square, cover_square):
        with monkeypatch.context() as m:
            m.setattr(builders, "_memoised", _unshared)
            unshared = build(20000.5)
        plan = build(20000.5)
        nodes = [node for node, _ in walk(plan.root)]
        assert len(nodes) > 100 and len(nodes) == sum(1 for _ in walk(unshared.root))
        assert len({id(n) for n in nodes}) < len(nodes)
        with monkeypatch.context() as m:
            m.setattr(plan_mod, "map_runs", recording)
            calls.clear()
            lat = plan_lattices(plan)
        assert len(calls) == 1
        assert [(id(n), repr(f), m) for n, f, m in calls[0]] == [
            (id(n), repr(f), m) for n, (f, m) in walk(plan.root) if n.kind == "stacks"]
        assert all(n.graft is None for n, _ in walk(world_plan(plan).root))
        assert _sha(v2_text(plan)) == _sha(v2_text(unshared))
        assert _lattice_sha(lat) == _lattice_sha(plan_lattices(unshared))


def _local_dump(node):
    """The dict-oracle text of a tree as its nodes hold it, and its grafts, in pre-order."""
    return dumps_stable(_node_to_dict(node)), [repr(n.graft) for n in _walk(node)]


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_resolving_leaves_the_local_tree_as_it_was(kind):
    """Reading a plan through its grafts (its lattices, its SVG, its text and its
    accounts) changes no node, so the two uses of a shelf built twice with one
    BuildStats stay as built."""
    stats = BuildStats()
    spec = PLAN_CASES["shelf 1e4"][1]
    trees = [_graft(_subtree(), Pose(7.0, -2.0, math.pi / 2), True)]
    trees += [_graft(build_shelf(spec, 0, stats, kind), Pose(3.0, 4.0, math.pi), mirror)
              for mirror in (False, True)]
    assert trees[1] is not trees[2] and trees[1].children is trees[2].children
    before = [_local_dump(t) for t in trees]
    for t in trees:
        plan = Plan(kind=kind, x=1.0, region=t.region.grafted(next(walk(t))[1]), root=t)
        plan_lattices(plan)
        plan_to_svg(plan)
        plan_to_json(plan)
        v2_text(plan)
        if t is not trees[0]:  # the shelf's own region, which its squares cover
            account(plan)
    assert [_local_dump(t) for t in trees] == before
    assert trees[1].children is trees[2].children


# local trees for the run map: signed zeros, quarter turns and arbitrary angles,
# mirrors, grafts of grafts, and subtrees shared by several uses
SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5]),
                   st.floats(-1e6, 1e6, allow_nan=False))
ANGLES = st.one_of(st.integers(-4, 4).map(lambda k: k * math.pi / 2),
                   st.sampled_from([0.0, -0.0]), st.floats(-7.0, 7.0))
GRAFTS = st.tuples(st.builds(Pose, SIGNED, SIGNED, ANGLES), st.booleans())
LOCAL_RUNS = st.lists(st.builds(
    StackRun, st.builds(Pose, SIGNED, SIGNED, ANGLES), st.tuples(SIGNED, SIGNED),
    st.integers(0, 4), st.integers(0, 4), st.tuples(SIGNED, SIGNED), st.sampled_from(["", "a"])),
    max_size=3)


def _use(node, graft):
    """A use of `node`: itself, or a new top node over its shared subtree with
    `graft` composed into its own, as a memoised builder's caller grafts it."""
    return node if graft is None else _graft(copy.copy(node), *graft)


def _local_tree(specs, graft):
    """Node i of `specs` (runs, parent, grafts) hangs under node parent % i
    once per graft, last node first, so a node's uses share its subtree."""
    nodes = [stacks_node(None, runs, area=0.0) for runs, _, _ in specs]
    for i in range(len(specs) - 1, 0, -1):
        nodes[specs[i][1] % i].children += [_use(nodes[i], g) for g in specs[i][2]]
    return _use(nodes[0], graft)


# (runs, parent, grafts) of each node of a `_local_tree`, and the root's graft
LOCAL_SPECS = st.lists(st.tuples(LOCAL_RUNS, st.integers(0, 7), st.lists(
    st.one_of(st.none(), GRAFTS), min_size=1, max_size=2)), min_size=1, max_size=8)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(specs=LOCAL_SPECS, graft=st.one_of(st.none(), GRAFTS))
def test_world_runs_are_the_scalar_map_of_each_run(specs, graft):
    """The one numpy pass of `plan_lattices` gives every use of every node the
    world runs, bit for bit, that the scalar oracle gives it run by run: each run
    mapped by `map_run`, empty ones left out, and each base folded by
    `fold_square_pose`; so does the tree read back from its version 3 text."""
    root = _local_tree(specs, graft)
    expected = [(*fold_square_pose(r.base.tx, r.base.ty, r.base.angle), *r.step, *r.pitch,
                 r.count, r.repeat)
                for runs in world_runs_by_node(root) for r in runs if r.count and r.repeat]
    plan = Plan(kind="cover", x=1.0, region=rect_region(1.0, 1.0), root=root)
    for read in (plan, plan_from_json(plan_to_json(plan))):
        lat = plan_lattices(read)
        got = list(zip(*(lat[c].tolist() for c in
                         ("bx", "by", "ang", "ux", "uy", "px", "py", "count", "repeat"))))
        assert repr(got) == repr(expected)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(specs=LOCAL_SPECS, graft=st.one_of(st.none(), GRAFTS))
def test_account_is_the_recursive_account_of_shared_trees(specs, graft):
    """`account` reads each definition once; the oracle recurses into every use. Both
    accept the same trees with the same report, and refuse the rest with the same error."""
    for kind in ("pack", "cover"):
        plan = Plan(kind=kind, x=1.0, region=rect_region(1.0, 1.0), root=_local_tree(specs, graft))
        try:
            expected = account_by_recursion(plan).to_dict()
        except PlanError as exc:
            with pytest.raises(PlanError) as got:
                account(plan)
            assert str(got.value) == str(exc)
        else:
            assert account(plan).to_dict() == expected


def test_resolving_makes_no_record_per_run(monkeypatch):
    """`plan_lattices` makes no `StackRun`, and as many `Pose` objects for a
    tree whose nodes hold 1,000 runs each as for one whose nodes hold one."""
    made: dict[str, int] = {}
    for cls in (Pose, StackRun):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] = made.get(_name, 0) + 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    seen = []
    for n in (1, 1000):
        runs = [StackRun(Pose(0.5, 0.25, 0.3), (0.0, 1.0), 3, 2, (1.0, 0.0))] * n
        leaf = stacks_node(trap_region(5.0, 2.0, 4.0), runs)
        uses = [_graft(leaf, Pose(1.0, 2.0, math.pi / 2), True),
                _graft(copy.copy(leaf), Pose(3.0, 4.0, 0.3))]
        root = stacks_node(rect_region(10.0, 10.0), runs, leftovers=uses)
        root = _graft(root, Pose(-1.0, 0.5, math.pi), True)
        made.clear()
        lat = plan_lattices(root)
        assert len(lat["bx"]) == 3 * n
        seen.append(dict(made))
    assert seen[0] == seen[1] and "StackRun" not in seen[1]


@pytest.mark.parametrize("kind", ["pack", "cover"])
@pytest.mark.parametrize("h,a_top,a_bot", [
    (7.5, 3.2, 9.9), (40.3, 10.0, 12.5), (3.0, 0.0, 2.5), (100.0, 55.25, 56.0),
    (12.7, 4.0, 4.0), (0.6, 2.0, 3.1),
])
def test_merged_rows_enumerate_the_per_row_squares(kind, h, a_top, a_bot):
    node = sliced_trap_fill(h, a_top, a_bot, kind)
    if kind == "pack":
        widths = [floor_guard(a_bot + (a_top - a_bot) * (j + 1) / h)
                  for j in range(floor_guard(h))]
    else:
        widths = [ceil_guard(a_bot + (a_top - a_bot) * j / h) for j in range(ceil_guard(h))]
    expected = [(float(i), float(j)) for j, w in enumerate(widths) for i in range(w)]
    poses = enumerate_placements(node)
    assert [tuple(p) for p in poses[:, :2]] == expected
    assert np.all(poses[:, 2] == 0.0)
    distinct = [w for k, w in enumerate(widths) if w >= 1 and (k == 0 or widths[k - 1] != w)]
    assert list(node.counts) == distinct


# sha256 of dumps_stable(account(plan).to_dict()), taken before grafting
# became lazy; accounting reads no frames, so these must never move
ACCOUNT_DIGESTS = {
    ("pack", 150.5): "cdbce14e747f12c6d6528c5cd2505d4e47b796af1a071d58867cc0cdbc43ceed",
    ("pack", 1000.25): "2d4b946c4360c5036e77f340a5138e68df7b4c60f60979b446010007c9372bb6",
    ("pack", 100000.5): "0ae87c2d86c9e53d20d9ac2c66162f3b69dd9bc9e02fc5a72b9e3712f4cc56dd",
    ("cover", 150.5): "ce88a1d9bb29455bedc0be60bd5d2dd3d4cc0f5b95578ddb4931e9c947ffe25f",
    ("cover", 1000.25): "c5a5af07a2c57bfb76c39a9bb1e3f7c8a6a54685e47540df4488a70ed657e1bb",
    ("cover", 100000.5): "189adb9068fe835772e02dd407ba0e907f293ad48bb58dca9e5babca74382e1e",
}


@pytest.mark.parametrize("kind,x", sorted(ACCOUNT_DIGESTS))
def test_account_report_bytes_are_pinned(kind, x):
    plan = (pack_square if kind == "pack" else cover_square)(x)
    text = dumps_stable(account(plan).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == ACCOUNT_DIGESTS[(kind, x)]



def _tilt(scale, f):
    return f * math.sqrt(2.0) * scale ** -0.5


# one case per shape and size: (shape, *dims)
PLAN_CASES = {
    "square 0.5": ("square", 0.5),
    "square 1": ("square", 1.0),
    "square 50.5": ("square", 50.5),
    "square 150.5": ("square", 150.5),
    "square 1000.25": ("square", 1000.25),
    "square 20000.5": ("square", 20000.5),
    "rect 80x60.3": ("rect", 80.0, 60.3),
    "rect 60.3x80": ("rect", 60.3, 80.0),
    "rect 500.5x300.25": ("rect", 500.5, 300.25),
    "rect 300.25x500.5": ("rect", 300.25, 500.5),
    "rect 150x2000": ("rect", 150.0, 2000.0),
    "rect 2000x150": ("rect", 2000.0, 150.0),
    "panel 50x50.5": ("panel", PanelSpec(50.0, 50.5)),
    # too narrow for an integer core: one strip
    "panel 1000x178.5": ("panel", PanelSpec(1000.0, 178.5)),
    "panel 1024x900.5": ("panel", PanelSpec(1024.0, 900.5)),
    "panel 4096x4096.2": ("panel", PanelSpec(4096.0, 4096.2)),
    "strip 10.5x100": ("strip", 10.5, 100.0),
    "strip 150.7x9000": ("strip", 150.7, 9000.0),
    "wedge 400": ("wedge", WedgeSpec(400.0, 40.0, _tilt(400.0, 0.3))),
    "wedge 1e4": ("wedge", WedgeSpec(1e4, 200.0, _tilt(1e4, 1.0))),
    "wedge 150x300 flat": ("wedge", WedgeSpec(150.0, 300.0, 0.0)),
    # a flat wedge under unit width: one column covers it, a packing holds none
    "wedge 200x0.5 flat": ("wedge", WedgeSpec(200.0, 0.5, 0.0)),
    # a top edge too narrow for the bands: rows
    "wedge 110 narrow top": ("wedge", WedgeSpec(110.0, 1.5, _tilt(110.0, 0.5))),
    "shelf 1e4": ("shelf", ShelfSpec(1e4, 50.0, _tilt(1e4, 1.0))),
    "shelf 1e6": ("shelf", ShelfSpec(1e6, 500.0, _tilt(1e6, 0.3))),
    "shelf 1e8 flat": ("shelf", ShelfSpec(1e8, 150.0, 0.0)),
    "shelf 100 rows": ("shelf", ShelfSpec(100.0, 5.0, _tilt(100.0, 0.875))),
    # pack plans that grid a band: under the overhang of the stacks above,
    # and between two stack families (the lower one anchors on a flat seam)
    "shelf 2e3 fallback": ("shelf", ShelfSpec(2e3, 30.0, _tilt(2e3, 0.9))),
    "shelf 5000 grid seam": ("shelf", ShelfSpec(5000.0, 32.0, _tilt(5000.0, 1.4))),
    # band 4 is exactly 5 + 4*7/28 = 6 wide and grids, so the packing's band 3
    # stops its stacks n*sin(alpha) above its bottom
    "shelf 4000 integer band": ("shelf", ShelfSpec(4000.0, 35.0, math.atan(1 / 28))),
    # a cover plan whose lone band is too short for its wedge, so it grids
    "shelf 835 grid band": ("shelf", ShelfSpec(835.0, 4.0, _tilt(835.0, 1.7))),
    # packings whose band table runs out (lowest base -1 and 1): rows
    "shelf 150 grid seam": ("shelf", ShelfSpec(150.0, 15.0, _tilt(150.0, 1.05))),
    "shelf 984 steep": ("shelf", ShelfSpec(984.0, 62.0, _tilt(984.0, 0.55))),
}

# the PLAN_CASES entries that enumerate more than 2M squares
HUGE_CASES = {"square 20000.5", "panel 4096x4096.2", "wedge 1e4"}


def _build_case(kind, case):
    return build_plan(kind, *PLAN_CASES[case])


@pytest.mark.parametrize("kind", ["pack", "cover"])
@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_account_is_the_recursive_account(kind, case):
    plan = _build_case(kind, case)
    assert account(plan).to_dict() == account_by_recursion(plan).to_dict()


def _overfill_a_grid(node):
    node.rows += 100


def _drop_a_split_child(node):
    node.children.pop()


@pytest.mark.parametrize("kind,edit", [("grid", _overfill_a_grid), ("split", _drop_a_split_child)])
def test_a_defect_in_a_shared_definition_names_its_first_use(kind, edit):
    """One conservation defect inside the shelf that the tree uses most: `account` checks
    the shelf once, and names the path of the defect's first use (below the shelf's first
    use, root.1.0.1), as the oracle that recurses into every use does."""
    plan = pack_square(1000.25)
    uses = Counter(id(n.children) for n, _ in walk(plan.root))
    shelf = max((n for n, _ in walk(plan.root) if n.label == "shelf"),
                key=lambda n: uses[id(n.children)])
    assert uses[id(shelf.children)] > 2
    edit(next(n for n, _ in walk(shelf) if n.kind == kind and n is not shelf))
    with pytest.raises(PlanError) as oracle:
        account_by_recursion(plan)
    with pytest.raises(PlanError) as got:
        account(plan)
    assert str(got.value) == str(oracle.value)
    assert str(got.value).startswith("root.1.0.1.")


# sha256 of the version 2 text of the plan's world tree (`oracles.v2_text`),
# which `plan_to_json` wrote until version 3; a change that claims no behaviour
# change keeps them. All but one were derived from version 1 plans: the v1 plan_to_dict less
# its top-level "seams" and every node's "overshoot", with "version" set to 2,
# through dumps_stable. Those v1 plans match the v1 pins, taken before the
# packing and covering wrappers became one planner ("panel 50x50.5" on: before
# the unreachable builder branches were deleted; "wedge 200x0.5 flat": once a
# flat wedge under unit width stopped declaring waste). The pack "shelf 150 grid
# seam" and "shelf 984 steep" are pinned from v2 once a packing shelf whose band
# table runs out filled by rows, like a covering one.
PLAN_DIGESTS = {
    ("pack", "square 0.5"): "e1ea983300a1f9183d4ecc39d90794f6e8ec73ec71f079731137156b4210e983",
    ("pack", "square 1"): "2818ce00c7d94c6fe50ae88bf2802a0d1621be9d5872d7ef9ddf8a6e794b3c1a",
    ("pack", "square 50.5"): "37ca3b376b3c03ee391fab09ca3334f4e6f51dc457fcbcc6f82c073709461e47",
    ("pack", "square 150.5"): "4a84547d465c2f694cad86dd7771303accfa79851a873609231f11ae4f937196",
    ("pack", "square 1000.25"): "d87f42d49c6625c126d0e82cb2e7ac7c58314ae62dd429938caabb30728e6a8a",
    ("pack", "square 20000.5"): "ee18bbd18d1afca35df59c65968c49f48349ca0a884fda9d33e6b067ad2bb3bf",
    ("pack", "rect 80x60.3"): "5e5db46ad788c97c42a1660f762df813e79649ddd1cc844ff98f121205600df5",
    ("pack", "rect 60.3x80"): "933092b59eb7954780558e6efb6ea2e9e46cb4b6f6d10b69b186f22f09a597ad",
    ("pack", "rect 500.5x300.25"): "f97b9e724ced26253b10f01cfdedbf75a74bad264ee3ef7cde8dffab130ca7cf",
    ("pack", "rect 300.25x500.5"): "40dfa9de89a3b3664ae992e62d1eecbf86b296148d23f0bb58483b934fd0d63e",
    ("pack", "rect 150x2000"): "e65b47ba7483d884278ed1b98816f5f4fc4475518334f284d7d1a909711be08f",
    ("pack", "rect 2000x150"): "e31cd6c72b23abd727cc187f36619c5cce7a9e8e869e3ba033f3aac34ee94c26",
    ("pack", "panel 1024x900.5"): "34a3bb679016df4e3f2dda4e4c16e7c290d557d1b6fb9b8ad4da4e5768a7d0e1",
    ("pack", "panel 4096x4096.2"): "d6fe62dac0c57c26b160d9d000da396470bbe43ed2c19c344056e07f8f9a1056",
    ("pack", "strip 10.5x100"): "d5e1df4cefe04e4005acd89b975fc55fa92e4214dfafbaa745f4d7c59546f761",
    ("pack", "strip 150.7x9000"): "ee8355d0ddebd5cc69bd378e6a1dbe2c23ab12c289425cc23e462a5ca2368843",
    ("pack", "wedge 400"): "f2d5fa05b3f31559f5f95fb3281415b623c228e921d7c2a50f5f671df3f6eace",
    ("pack", "wedge 1e4"): "ee7978361587597fe458283f07ab6b59f8614457d5835f68fb8a122f086afeff",
    ("pack", "wedge 150x300 flat"): "3781e8fd577de8d3a701a3e7dbb1f1cae3252006042113eea7a13e94c464c14a",
    ("pack", "shelf 1e4"): "b789067eec624b44a1a216a4635e99691c54035fc26a6466f81c34cd329bca46",
    ("pack", "shelf 1e6"): "11ac1da33836841a9b15ae076a857632d4a72e8b07ba24adabdfa705e8479707",
    ("pack", "shelf 1e8 flat"): "a6d6eb858c0feda1111d8a82c0909fcbd8269f4cc4c53a277c8a6d756bc3ca21",
    ("pack", "shelf 2e3 fallback"):
        "7438cbc933e8d8ce02aa119084398e8e54b97d68c1447b74f181d8b61c3b0ac7",
    ("pack", "shelf 150 grid seam"):
        "4f145e4c20d850fa3f28ea7e995780e5e02ee3ee506d133b965ae56932a8282e",
    ("pack", "shelf 5000 grid seam"):
        "6a7ebad52686e6a6afefdf16122599a850a4a25eb459870ef78b257d270ef090",
    ("pack", "shelf 4000 integer band"):
        "838b6d250a56b585a1c04e0ee8b81fbe8223bbf5bd0003c30055af60d271f9ef",
    ("pack", "panel 50x50.5"):
        "c1181936c7d45320c698fb0cb15177b0cbcca1b47fdf9996cc44c44f3482c005",
    ("pack", "panel 1000x178.5"):
        "dc252dc17c5ed83bf33f990725bdf195f34f086151701e381a04c2913048f009",
    ("pack", "wedge 200x0.5 flat"):
        "b9d9165640f113a158ede7d7fe3647cf5f3a11b4eec50b63bf608098ecb76526",
    ("pack", "wedge 110 narrow top"):
        "d873769d032747a527b53b82b609424146fe488b6d0c31891395bb0119df40e1",
    ("pack", "shelf 100 rows"):
        "7b0496465fd04b3a19ab95c0ed0352ba1a96ff2b4d019c4d127a92b900e6012e",
    ("pack", "shelf 835 grid band"):
        "d5c0ddb5af7aec593ef973e7891c638b11dd19e04fb11c59c8e7a6670eb4f434",
    ("pack", "shelf 984 steep"):
        "b37ee7870b388144de16acf13a0868e1b3413e129a0e8c3608bf5fb308111c4f",
    ("cover", "square 0.5"): "b64f1305c66da65b7d18d7c75f2f871a54f35ba6e2d2748b98eefa68defd94aa",
    ("cover", "square 1"): "6ae3861ae1103879949e31b3c3cba87ceaf23e61014cfc126431a0c9465fab31",
    ("cover", "square 50.5"): "f35291fd77e2415b7ff47baa63c8ab04d8b255e9a7637472fbce323715b26108",
    ("cover", "square 150.5"): "57422dcc173eb0d5a3d787beb4e5a155d0f5fd98474efeb5205b8f37f2335ecc",
    ("cover", "square 1000.25"): "3ebbc41ff4dc6e1ea4903a458135392efa855d5903f903fb0d8a611a6bff1cc5",
    ("cover", "square 20000.5"): "4d9039b7ad57245256569fff5cfb2fca29402f22954f56a7380d5bd62a552909",
    ("cover", "rect 80x60.3"): "b7b730652207dd560c1bb244566fa124efc694e4d20de3ff6443ef7c4d244e3f",
    ("cover", "rect 60.3x80"): "bc1c1091b79aa7eed9d94cd5ef8d2ef571f624dde3225e071947c807899abcf1",
    ("cover", "rect 500.5x300.25"): "56e8094fa67454443638fd901d3c8b442e40ef90b07e7418d9fa371c8a6e3a85",
    ("cover", "rect 300.25x500.5"): "29de544573528131ee3af97447e96dcf19ee9137a306c50cf568d5df91553486",
    ("cover", "rect 150x2000"): "b801459f22d04eea56572baa51b4abbef65950943925bfd9c40627a0d6593da5",
    ("cover", "rect 2000x150"): "389f502675ce49c5165e25fd0d144523495cec99da7ed6b254f24ba7ffd8095a",
    ("cover", "panel 1024x900.5"): "9f83ebd48dff6bb47479c3dc961e37d3d414b53eb3cfec7e59cfe825bfdd535b",
    ("cover", "panel 4096x4096.2"): "24b49d46fe2b0c66064bf4dd35359fd8e631e6fe6c1f83834d2b2fe3b0de2b24",
    ("cover", "strip 10.5x100"): "3dfc19b02be16ffbc4a817aa0e232ff728a714b6fe988ca778d3daca7a008cc2",
    ("cover", "strip 150.7x9000"): "1543b98b9b2da85c3e7b8986fcbfe7ad6b866f597a02b0cac47be8e8367abe88",
    ("cover", "wedge 400"): "fff637e76fe90c134cca4d232e1a271f2b80883323eeae61bf4004161ee070bf",
    ("cover", "wedge 1e4"): "8c5c69e1a7b42a02991bc103773ad404e09e51cb4a47aa35593a44f8959f1b20",
    ("cover", "wedge 150x300 flat"): "508e3420134414059fa91180dbff1351016eb6650722541631618cae96f3733c",
    ("cover", "shelf 1e4"): "56483be45a0b3bb553d4d550fefd9b5755ca52873486cac0154c22688c4481c9",
    ("cover", "shelf 1e6"): "ad2bc5314e31bbdf22c43a029c296c5e68ae28d95d49b92cc2469c9bffa90067",
    ("cover", "shelf 1e8 flat"): "511743dcd1a6d78a750c0ce89d304ef06c99d75dd8de61e6368ba1909c8dfb79",
    ("cover", "shelf 2e3 fallback"):
        "e10187b4df751320f35593d5ea6a8a3c89669e499eac91719280f5e630209a2e",
    ("cover", "shelf 150 grid seam"):
        "35d16d860051cf0a6b9588f14b454fb6c71ff1c360054b729ca46e8836e13dbe",
    ("cover", "shelf 5000 grid seam"):
        "cc813f78e069e53d2e731485e7029989e80f18e8355115be2048dcf7f34f1380",
    ("cover", "shelf 4000 integer band"):
        "3611e2f3166b64179a4c3ebb666945044eba6305a7b2bf74339dc09873d6818c",
    ("cover", "panel 50x50.5"):
        "41030c388182cab0470d6958c9f78eeadc9c901c39dd8ad0ff8ec2edcd1139ec",
    ("cover", "panel 1000x178.5"):
        "a68c1accbf56670d71a3757077d15f78667c4b1ffe886369e37a115ed51b3cd5",
    ("cover", "wedge 200x0.5 flat"):
        "c0f3bdd5e8a593b8454d4aac0d4fc6b0c457240d042d97fd6c3c1bcdfdd03265",
    ("cover", "wedge 110 narrow top"):
        "cb770fb78c3aae5aadf215980d224cc7d1d8a8ffc1afcb53f26e70ad9001a37f",
    ("cover", "shelf 100 rows"):
        "c98c7033bf6e4972c5972e50252a7016967420f5e76c28d9904d12f1e9c494f5",
    ("cover", "shelf 835 grid band"):
        "1f23cfc97d9d3590ba9b4b6bd34fa1f348f5989e0eeb401193047fd6f97a0201",
    ("cover", "shelf 984 steep"):
        "33c410a3dddd983b5abc5432657b4ce0bbd1a38b5237676a9c73eecb66887cb1",
}


@pytest.mark.parametrize("kind,case", sorted(PLAN_DIGESTS))
def test_plan_bytes_are_pinned(kind, case):
    text = v2_text(_build_case(kind, case))
    assert hashlib.sha256(text.encode()).hexdigest() == PLAN_DIGESTS[(kind, case)]


# sha256 of plan_to_json(plan), the version 3 text, for every PLAN_CASES entry;
# taken when plans became one shared tree, and a change that claims no behaviour
# change keeps them
PLAN_V3_DIGESTS = {
    ("pack", "square 0.5"): "a19b98fad6bddb1e64d41692cfbd4fec7e869f875777bc1a4a17780139e69ec9",
    ("pack", "square 1"): "ca127b43fc77f17d353196fa72928d80171486b8b62e6d763f5cb6fa3b54ac19",
    ("pack", "square 50.5"): "17712677cf6969bdeac65f344b8756e3d3c6a7ef31f089c651fad96ce8d93ea9",
    ("pack", "square 150.5"): "734e945ece4147d1750fff3b18a27c8ae107f1364f6ee61a80f3229c972cc8fe",
    ("pack", "square 1000.25"): "f148dc69875e82ee6280efd1886e4f3bb4c148b1b9588cbad836b86784377158",
    ("pack", "square 20000.5"): "0a24615f239d00a6594ac13e4c7895b7299a37008050181e40ab3d093313b815",
    ("pack", "rect 80x60.3"): "ab881241983c14685bd9a3af63fe6dd2d7cfd45f0d656441c465606eeb6cf1b6",
    ("pack", "rect 60.3x80"): "a6513775c412cde3240b3e9a19c296d0530c33301a834a945c140beb17f44ec0",
    ("pack", "rect 500.5x300.25"):
        "bb1103c49360854611c25527466fb396e4c6f3565e37190bac97ea0feddb2d9c",
    ("pack", "rect 300.25x500.5"):
        "4ab6ab2c80380d5367908de67fba6c96dbb6560834ae4dcd9a205855d5a35670",
    ("pack", "rect 150x2000"): "0d594f8e66b19a214e65778a6fe994a3e9e8960f4ee247b5f0ccf6ddcf14fc31",
    ("pack", "rect 2000x150"): "ee5f8462bbb2cafb9f4b64610502fa73b7538e34f051562f33b1c4e43c2acac5",
    ("pack", "panel 50x50.5"): "b684f7d0f503fb7e21bb26e5d7a0e5048082a60bcafde9008e32336dbe8bec60",
    ("pack", "panel 1000x178.5"):
        "537a9bd7ff5899d5fc5891dab18f3ca2dfb142ddda183b315f849b04b225649b",
    ("pack", "panel 1024x900.5"):
        "5e91fbd06bebb3c081e3e7059e47cc33917b15d954caa711508a06f2dd3f017a",
    ("pack", "panel 4096x4096.2"):
        "7616c1fda6248139c0bb6e16e8a29a9b6be5858f95fb77a90705ab94776f5bf4",
    ("pack", "strip 10.5x100"): "d410c1db9f937955cb9356050ea91e9498f98ff9500eef3cf4f69578852aad84",
    ("pack", "strip 150.7x9000"):
        "ac5673a4ddbf6fae7e27bbe7daa4c005e8b017f68af24e8c40812f8587b2c308",
    ("pack", "wedge 400"): "a8f497fe320361e5bce0c8de7f35fe6f373877cb22baabbc82b44a4c63efbc2b",
    ("pack", "wedge 1e4"): "0979431ee141adbf09119a15a43c1616a23e99b4c34c7eb557737ef4daa58ac9",
    ("pack", "wedge 150x300 flat"):
        "b05ee3afc05560a1d7017785c2cacd4bd345c1ece54186fac01b40800706fcfc",
    ("pack", "wedge 200x0.5 flat"):
        "cd8e35be8b6c71587f7d8666d77713309e796ceefc74c239acd93648cf60d595",
    ("pack", "wedge 110 narrow top"):
        "7153db0c4be0cef5e7af033d1ed6ddde17f607f59f74fa0d99e483d958dc2934",
    ("pack", "shelf 1e4"): "c75a803fbb579828d2c894c2f269eda87fa2622a446d56484ba6ca609af451f7",
    ("pack", "shelf 1e6"): "ede6c556c9498d4a5eb648fb24c3e2ae3c4b308ff77dcd5f455117db687ee291",
    ("pack", "shelf 1e8 flat"): "bcf1153c9909a2df3e4c32627cea2d6558f69202e7b45838deaa8415690199ff",
    ("pack", "shelf 100 rows"): "2b8252321becdc1870494a559a232c98599505c40a22364c176615bae3a611aa",
    ("pack", "shelf 2e3 fallback"):
        "60939430b3a7e843224f97e44415804dacb863253e86a2bc0c4bc7f4dde63414",
    ("pack", "shelf 5000 grid seam"):
        "6851b0fb9265139310c9dc706b325bc4107d6219abb6bb3a97529f93dcca5036",
    ("pack", "shelf 4000 integer band"):
        "1fdef5881a25408df0349f1895072df5cb08d45cd4d7aa41f62e71c8da26cab4",
    ("pack", "shelf 835 grid band"):
        "ede5e554971a94881c4b01971647296d8ccd98107061b5daba6a5e0d0fc3c16a",
    ("pack", "shelf 150 grid seam"):
        "2972f5f8fb50e1643d5500d5d1f5b744f4ba3a8075e7ccc55a44c9eb2cdcb1ff",
    ("pack", "shelf 984 steep"): "07394f72dc1c0f56728ac14a03584d43013bd3afb2a891ab8045a4303e2129e6",
    ("cover", "square 0.5"): "3fcbc230f640b68d2bd585a99cbe03ebc3da79ce5bac76276c148380eef35553",
    ("cover", "square 1"): "018e1f662a7022d7017b16b86288f58db013fd7a425407317d85f4e7fea1ae82",
    ("cover", "square 50.5"): "234f23f9bfb06987de0c9ef7496ccfe802ebf8b235aa3c4504b54e4f55298e64",
    ("cover", "square 150.5"): "7cbccff02b2c75b5f964e8919b10fa86d5e84870967734caba1f881e6853f785",
    ("cover", "square 1000.25"): "397b9540542a7f6f3ef6a62e7486d12cbd836a045737df646a90985676e1c29f",
    ("cover", "square 20000.5"): "6ec86000d5d86ce3a0c3bf39568e148973c5068f0b05906b106d1343921b0726",
    ("cover", "rect 80x60.3"): "ccde544572f3e166de86b24b0e991946e94ee38c8db68fb2f0ef1142a97ae599",
    ("cover", "rect 60.3x80"): "434084288e6ec0c76b656b4644cf1127892d95497713816bf6d2691e947eae2e",
    ("cover", "rect 500.5x300.25"):
        "afe9820c94d8620cd8062c3603d4e485a1286ca95fa62660ff876b1c49609528",
    ("cover", "rect 300.25x500.5"):
        "254bb38635b61215eea2d288c9d052a544ceeeeef08ae81c450e7549da8f32ca",
    ("cover", "rect 150x2000"): "31bba81939fd3e2b0b0fb0e5823edfe02dc951481727a1325e62afb7f644d2e2",
    ("cover", "rect 2000x150"): "b6506e5854a789a345a8cd8be7e01383cf93238d5be51297f3e3c1339c3818b6",
    ("cover", "panel 50x50.5"): "67ced83f9bbc8beabc9ad550b3e0df62ab668e3981b2afe6b1b193936dea6fcf",
    ("cover", "panel 1000x178.5"):
        "ac43bafc055eff8a97798f8a71a6ec7febe92da5598b40643b093b9105d8b6cd",
    ("cover", "panel 1024x900.5"):
        "9dbeeac132a42e34d71d6e67a44a5a3783e6936dcabfcf1c16d8760b30973940",
    ("cover", "panel 4096x4096.2"):
        "0e23679dd4d96089426a9295af1088b4c092ac51b0017d9ffd8f6256fc8ea780",
    ("cover", "strip 10.5x100"): "b1700cc0c1ad04f8bcbde2cc26dc29065bd9303788c4e9a5ccd98e9f446175df",
    ("cover", "strip 150.7x9000"):
        "1c76a98f11ccdfc057d0443d5c520caab171fd9ce70d6bb0eed2a63c54ded964",
    ("cover", "wedge 400"): "9f37bd54f5c3cdc37e61a786a55acda856a1dd6def7529cfbd48702fb1931035",
    ("cover", "wedge 1e4"): "33504e0244c43f5771fda38ecb7570d6a42a1434fedb9bbe53f6af235432c492",
    ("cover", "wedge 150x300 flat"):
        "534bb63754959ec1b71b76913452343f983bff97a27cf43ecca438680eaf7478",
    ("cover", "wedge 200x0.5 flat"):
        "c701250c33efe332a8f6827b93e6798ebf8cdcaa624ffbd9d8e886c46e0f8b43",
    ("cover", "wedge 110 narrow top"):
        "5dafcbaf0344de3338d88c77efa1e6804cb6c6269ac3d440d6bb496092a134dd",
    ("cover", "shelf 1e4"): "f9af5ebe6f31247677b7ed9e6d0f50e9afd5b0c523ae3a3456d4a9a918d835dc",
    ("cover", "shelf 1e6"): "f53c27a8ee6aac0c57c22d4ae13f92b19d1885f9950918caac7513f62c194348",
    ("cover", "shelf 1e8 flat"): "3d472356fefc43a629a6e7468d08d02fca35d57cc5b00678c20ba53a2bcbad48",
    ("cover", "shelf 100 rows"): "9658918db4ed18790c2f257c2c43619f4478f5fd4a74e5b0955b4de54bc68019",
    ("cover", "shelf 2e3 fallback"):
        "1239485936340a0edd8e199847823eadd379ba7eb6ecab8c26fc139624b538fd",
    ("cover", "shelf 5000 grid seam"):
        "93b373f6965b417082ca3ba2ce990109f0d2c66c4eded86de3ac8017a0c5ef2b",
    ("cover", "shelf 4000 integer band"):
        "47ef5f583926074ef9bdda15b7de0899343216d6b42a91c39b3a01e8f780aad3",
    ("cover", "shelf 835 grid band"):
        "fc1c7e6508bf16b16f95f39e876f7435521917ccd0aa4b00d56a6926b40e9b1e",
    ("cover", "shelf 150 grid seam"):
        "7648c4dea9642f3011dc54a2c9dd3f5a3f9d33bece87ded39572645f43eddc6b",
    ("cover", "shelf 984 steep"):
        "d50b0229d1b9790ff44f93fff2156d92f6ebc36155610d815d2a265318bdac09",
}


@pytest.mark.parametrize("kind,case", sorted(PLAN_V3_DIGESTS))
def test_plan_v3_bytes_are_pinned(kind, case):
    """The version 3 text is pinned, and reads back to a plan that writes it again."""
    text = plan_to_json(_build_case(kind, case))
    assert _sha(text) == PLAN_V3_DIGESTS[(kind, case)]
    assert _sha(plan_to_json(plan_from_json(text))) == _sha(text)


def test_plan_v3_pins_cover_every_case():
    assert sorted(PLAN_V3_DIGESTS) == sorted((k, c) for k in ("pack", "cover") for c in PLAN_CASES)


# sha256 of dumps_stable(report.to_dict(include_runtime=False)), what `sqpack
# verify --out` writes, for every PLAN_CASES entry outside HUGE_CASES; taken
# before each region kind became one right trapezoid, and a change that claims
# no behaviour change keeps them
VERIFY_DIGESTS = {
    ("pack", "square 0.5"): "9571268878f7d8dee9171630a780b39ef64fa51a2707f29b301c75adf19ff12c",
    ("pack", "square 1"): "b340be13d309b52fa27d12a5bedc7a5dfe902f38e20cf52d5d0cc5d2b20efe20",
    ("pack", "square 50.5"): "b4297b86b344f2cfa1f2a8ab112270821c5dacc9b4ac43510d779b383556c19f",
    ("pack", "square 150.5"): "a815c4d5f79491f38de0d5aa297c539ba704c6c7da0e04f5b934fd3620bb6c55",
    ("pack", "square 1000.25"): "35b4d148a9c68aeedf8684795d5cced4c5fe37480be2917e49e78245f2538357",
    ("pack", "rect 80x60.3"): "edf34f5d9fdb773ab7186e52292c31f4f7edca97409c3dfec539aa1e6c18484e",
    ("pack", "rect 60.3x80"): "edf34f5d9fdb773ab7186e52292c31f4f7edca97409c3dfec539aa1e6c18484e",
    ("pack", "rect 500.5x300.25"):
        "c175df0fc5a456aa0e2c9df62be81da740216969c6564ae2062654adc48bbc86",
    ("pack", "rect 300.25x500.5"):
        "c175df0fc5a456aa0e2c9df62be81da740216969c6564ae2062654adc48bbc86",
    ("pack", "rect 150x2000"): "31e937e63e1e7e8e7dd2eb4bdc7e19cbdf5e65f08326785fa2877dda89a2404f",
    ("pack", "rect 2000x150"): "31e937e63e1e7e8e7dd2eb4bdc7e19cbdf5e65f08326785fa2877dda89a2404f",
    ("pack", "panel 50x50.5"): "b4297b86b344f2cfa1f2a8ab112270821c5dacc9b4ac43510d779b383556c19f",
    ("pack", "panel 1000x178.5"):
        "451709e7344f76620ac41f59a95eb9d225dd282cf65720171aee74257665cee4",
    ("pack", "panel 1024x900.5"):
        "e772cbc8da41833bfedda99128160b769ecd4d0f59fa9b9867b7b5fe416c3d5b",
    ("pack", "strip 10.5x100"): "86a8424c73b8d5032e8bf93e3bf8bc95335e7f38bac27dee6aba51fbb224d179",
    ("pack", "strip 150.7x9000"):
        "53c5808364dc94963a65ee927ce5417cab1619787d26aef2f370450d29145c99",
    ("pack", "wedge 400"): "5db1278a1363ef3242c93ba3c983b338bc60c2463336ab75f9b6e1d6d3e16972",
    ("pack", "wedge 150x300 flat"):
        "da73cc23d2595f4eb7f47f513fc8652e7b8838f60b9bea24ab4a1b453be6ea0c",
    ("pack", "wedge 200x0.5 flat"):
        "9571268878f7d8dee9171630a780b39ef64fa51a2707f29b301c75adf19ff12c",
    ("pack", "wedge 110 narrow top"):
        "6e20f9d3e2174fa036f6e4eb9e92cc7a6401888bf4fe5ac7b7625e565f81d1fd",
    ("pack", "shelf 1e4"): "b861744b9a0e282418927be48d9a99aad15de3a5541890f2c7cadcbfec8c28a4",
    ("pack", "shelf 1e6"): "c95812ab039043af32da0e4d9c218dd15e8b50213698cc17c5af25ae257a58b5",
    ("pack", "shelf 1e8 flat"): "360defcc46457fdb63c0112544f4c0c9cb63f379a89338dda663f646a96a5637",
    ("pack", "shelf 100 rows"): "c88e200b429dea9558b2eac097fe9475a1724ca8e1c4afdfe9ede0a3824ecb5d",
    ("pack", "shelf 2e3 fallback"):
        "3b1573fb8f3bb2976138244a67600ae178fae7569f438d5c8643c6d25d3d2a97",
    ("pack", "shelf 5000 grid seam"):
        "4ae65fddadef7f42f36926d3d2c25b57732da2b27e1e6dd24602502739604bbd",
    ("pack", "shelf 4000 integer band"):
        "cc9ccc56f4404fa851dde880a62075b0440371d2a996f0384cf633d000d8721e",
    ("pack", "shelf 835 grid band"):
        "8d342eba176c45301481b51db4bc0d482761abf59dd304a0528d5fd9617e9fdb",
    ("pack", "shelf 150 grid seam"):
        "4fcea64644f58128b63c68f137a058f0a29d790761541b538a9cad11e21042f6",
    ("pack", "shelf 984 steep"): "b951feaa93ac2fb7d32b1fd158cb53422e13c412456c5b72f6ded89a67018365",
    ("cover", "square 0.5"): "f90308496d9fbbd1aa73ecb0e4a916e10e80a0c076ab47adc5775c71dc49984f",
    ("cover", "square 1"): "f90308496d9fbbd1aa73ecb0e4a916e10e80a0c076ab47adc5775c71dc49984f",
    ("cover", "square 50.5"): "606234e2b614ef61da49bb61117b44020dc82046c699142a47b588692e348a20",
    ("cover", "square 150.5"): "147568546f3585c85bdccf2c131c1a9ad903de876647505def9178b1984f0a80",
    ("cover", "square 1000.25"): "d51e94cc8a41b531e244324086c0f396f047705c0f1226abb77413d868b1772b",
    ("cover", "rect 80x60.3"): "e10cfb672ffb9d3e1a8242462a15b78c5f5e07fcc492b0c7a3dd46a93bfb87b3",
    ("cover", "rect 60.3x80"): "e10cfb672ffb9d3e1a8242462a15b78c5f5e07fcc492b0c7a3dd46a93bfb87b3",
    ("cover", "rect 500.5x300.25"):
        "4f298151b26d124a983f2440388963fa047b8154b4df7e9203da1dd4bc0e02ec",
    ("cover", "rect 300.25x500.5"):
        "4a3bd5d784fd20f4a8c6ea7cdac1d7b69bcd5fe123bfe3115ef78585ba79b413",
    ("cover", "rect 150x2000"): "97f7c3337db42f7cec5b3c65f05f36925c1e79d59ee2b40481c5781a3b957509",
    ("cover", "rect 2000x150"): "97f7c3337db42f7cec5b3c65f05f36925c1e79d59ee2b40481c5781a3b957509",
    ("cover", "panel 50x50.5"): "68d961c74f71be2f79726e56a2d83d3c12a203581c5ba5b183d073178c70993f",
    ("cover", "panel 1000x178.5"):
        "1135033af029ba4d84f4cc8e193564ec740e51d190c7f3684d83d83935788935",
    ("cover", "panel 1024x900.5"):
        "ce761fdfad2b16092801843db535351be1e00c616d1892624daec0aa62408112",
    ("cover", "strip 10.5x100"): "bec240a90f67e82775141ce14f26d049df45360fe8b08464aeb74a68f421cad2",
    ("cover", "strip 150.7x9000"):
        "1a537f3a173b6fc7183d042252b82e428e5f18ee63bb383376d4a6747efbf655",
    ("cover", "wedge 400"): "f4a26c5a73baf20c7a0d2bafb8fce6a0dcca943a6f65751b1608a2b554d8a0a9",
    ("cover", "wedge 150x300 flat"):
        "a89ddb4a1ab49ca9bc042d2eb020e6d79c5eff92232d93a326d182eb8078c743",
    ("cover", "wedge 200x0.5 flat"):
        "bf55d45e9a6c3b457cddebff2967aa46a50217287f2b4ad93bae57a2567c0453",
    ("cover", "wedge 110 narrow top"):
        "cc3ea509600832eec11e254254228416f30c9b1a4198b277b388b6f65eba647b",
    ("cover", "shelf 1e4"): "418ad5bc854c749ea134ef1cb3f2a3a7a678b4da6703636e011b06239c9ebe63",
    ("cover", "shelf 1e6"): "63f94462db1456231bc945e71297490dbdf1738e83374de241098c0d9c3ee403",
    ("cover", "shelf 1e8 flat"): "a2d1bc0277dd5992db995d153ed2700f0d099502a29716e77db24ad5ca66b777",
    ("cover", "shelf 100 rows"): "a2a061fe26bb49a5fbafbb1cf40f9b24112b2ea4663aae78fced7039a409061a",
    ("cover", "shelf 2e3 fallback"):
        "4881a27a130b7572f5c05f49bb786919717f654f13ac777d74db851403066350",
    ("cover", "shelf 5000 grid seam"):
        "9bde3adabcfdaeb6142db052c829538c7429e63ccccef906dee9d3a1d25caf60",
    ("cover", "shelf 4000 integer band"):
        "cb921ee79d7490e41e329a880b388a38df250b426050de8bb50fa871e142b8a1",
    ("cover", "shelf 835 grid band"):
        "5f0aafc0fe08045e46465b795781b6a1ebeca5f2af1b2819c3663035f00d98ab",
    ("cover", "shelf 150 grid seam"):
        "888fc04734443d046fa2c36aebceb62c9d378f015f2a1465abe0616f68c5a417",
    ("cover", "shelf 984 steep"):
        "75747fd58031579bc585cf41180b8daa2216c799833a4d53466001685a8fe555",
}


@pytest.mark.parametrize("kind,case", sorted(VERIFY_DIGESTS))
def test_verify_report_bytes_are_pinned(kind, case):
    report = (verify_packing if kind == "pack" else verify_covering)(_build_case(kind, case))
    text = dumps_stable(report.to_dict(include_runtime=False))
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_DIGESTS[(kind, case)]


def _sha(text: str) -> str:  # compared instead of texts of megabytes, which pytest would diff
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_plan_json_is_the_dict_oracle(kind):
    """The version 3 text of every case is the oracle's, written from one dict of the whole
    plan; it reads back to a plan that writes it again, byte for byte, and whose world tree is
    the built plan's version 2 dict."""
    for case in PLAN_CASES:
        plan = _build_case(kind, case)
        text = plan_to_json(plan)
        assert _sha(plan_to_json_by_dicts(plan)) == _sha(text), case
        again = plan_from_json(text)
        assert _sha(plan_to_json(again)) == _sha(text), case
        assert _sha(v2_text(again)) == _sha(v2_text(plan)), case


# sha256 of the version 2 text and of dumps_stable(account(plan).to_dict()) at
# x = 1e6+0.5, where 1,424 shelf builds share 2 specs; taken before the
# builders were memoised
MEMO_HEAVY_DIGESTS = {
    "pack": ("af00849c527347abb52dfe055ac4919d853d55cce4f6ba02e40fa573566d27e5",
             "9cda391f4005ab96a81f6c3dc939e019513e107e47a7ba92f1e578dc72cfb4cc"),
    "cover": ("3f743515d78e122df6ed55af18ff68bbb9dec37c1a2834290c03e59c2879c035",
              "8c17712af2496ee9b86b1981b5d371165cdbbf0400ef07715e365e7c2e1a1610"),
}


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_memo_heavy_plan_and_account_bytes_are_pinned(kind, monkeypatch):
    """Pinned bytes at a size whose shelves repeat, and each distinct shelf
    (spec, kind) has its body run once in the build."""
    calls, bodies = [], []

    def counting(into, fn):
        def wrapped(spec, depth, stats, kind):
            into.append(repr(spec))
            return fn(spec, depth, stats, kind)
        return wrapped

    monkeypatch.setattr(builders, "build_shelf", counting(calls, builders.build_shelf))
    monkeypatch.setattr(builders, "_build_shelf", counting(bodies, builders._build_shelf))
    plan = build_plan(kind, "square", 1e6 + 0.5)
    assert len(calls) > 1000 and len(bodies) == len(set(bodies)) == len(set(calls)) == 2
    assert (_sha(v2_text(plan)), _sha(dumps_stable(account(plan).to_dict()))) == \
        MEMO_HEAVY_DIGESTS[kind]


# sha256 of the `plan_lattices` columns (bx by ang ux uy px py as float64, then
# count repeat as int64, each lattice a row) and of enumerate_placements(plan)
# bytes, for every PLAN_CASES entry of at most 5M squares; taken before the
# lattices became one table of columns, and a change that claims no behaviour
# change keeps them
LATTICE_DIGESTS = {
    ("pack", "square 0.5"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pack", "square 1"):
        ("a5fb1017af5628efc92b5066741b0df2039581fb4aac56ed8d5b79af2e1a1883",
         "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"),
    ("pack", "square 50.5"):
        ("b26bed124fb319b35376fe68ea6b401f58420eb5c564390e965700912709e9f3",
         "9099cf82e55d8cd80af22f9d22844481b104fe540ef1e3092c199bc3f2d1ded0"),
    ("pack", "square 150.5"):
        ("8433ce91c39221cd5830843580c269f974c1d8039ded66f33b2cbde42d43519d",
         "3bc84f17c9281cb36b24bd1bfd91c292a409ad65569c5e1305f3197735fb8960"),
    ("pack", "square 1000.25"):
        ("38eb87e2616d3fef28c5620ef993aa77e784f059e913b0b0e7fb60eef13aa0c9",
         "334c2c648d22964ab36c93af77a7b3c995f9bcd0e40c90f5949843f331d80996"),
    ("pack", "rect 80x60.3"):
        ("75bc2fb46262970099a689ee7b56b434f32586c54179e302034097bb26a6914a",
         "42fdd4a08a981b0f19d43ddbec332509d7336ed2432653758a86ed265faed785"),
    ("pack", "rect 60.3x80"):
        ("fd8bf51f9b390c91f822caf6abebd202e5c8035ae6e624359d4c59c1615ac231",
         "cb1653f2f4e09437f0da3cce6bb68334903c634afc4448df818d4a1e33609159"),
    ("pack", "rect 500.5x300.25"):
        ("93467cdf7cea1e9859f9a54c4a39ed354ab52972de7860c188bcd9f96cd58bb8",
         "ebddd908b0ddba7f354f48c07640ec6c2f43494948d677a77edf1c0a92326e6f"),
    ("pack", "rect 300.25x500.5"):
        ("4087af35e561ad2ffdf7efedc4786c44d6aa8f8acd6f294ea9a67b9a8f07d3b2",
         "f1e3c03126163a1efe7739d63b4acbfc1aa2cdd952c48c8fc1622cda5bd61a63"),
    ("pack", "rect 150x2000"):
        ("82355f4f4e6263eafe3d6e6c04ffe5e9817de9bae7a7336e4eb626c9e0c622e1",
         "766fb0eb0ab4c4e1c2573875293ec6ff2b8251ac6d8d315dc1b0319c11537fc1"),
    ("pack", "rect 2000x150"):
        ("4bc51b473747c7a1430bea146c416749799184425817e1371ed19e7df3529454",
         "5a1b853527dbe23744425d0b660d8c493ced528bf013d7d441b4558ffd9dca87"),
    ("pack", "panel 50x50.5"):
        ("b26bed124fb319b35376fe68ea6b401f58420eb5c564390e965700912709e9f3",
         "9099cf82e55d8cd80af22f9d22844481b104fe540ef1e3092c199bc3f2d1ded0"),
    ("pack", "panel 1000x178.5"):
        ("084b59cd0d4b49bd5c9a2e59e32f27f40c21ad01bc49a5cdced2de2d630845c0",
         "92f246a7a01f05da91c21daa1f331670768bffd5fbb3008cfc5decae7c2ee26c"),
    ("pack", "panel 1024x900.5"):
        ("51968b0e36aa2d7ad9913e6a1a9e7d24e6e7bea85ae92c50c1ee135c8b9ef7b7",
         "ae718a9cf21cb53ef8fc27ada27f37e113262599e59fcfd5821fb00333b2194a"),
    ("pack", "strip 10.5x100"):
        ("cd52053fd705b7dec45512ff4de7c413c85f3ddce7b4c1f7041de0f06509d404",
         "e6e9f3c24bf4be682f0cf59a026ee2fbd1e1540fde68ed7443eff3662d993579"),
    ("pack", "strip 150.7x9000"):
        ("d1bd26996df70e56d561c873593c7b94945ca9991501187f63e0b2918833163b",
         "207f1b7fbff9e4e0548957002fbb53a8b588229fe9a5c4fa3798066f456a61a1"),
    ("pack", "wedge 400"):
        ("240f172ae0be00268c3c1dd4f88ec25b38a9742a20676ca2e38ee5428e84980f",
         "9841c7e59e2a3cc268c655485ec7fd14fb36f5463e586c6629caafface27fddd"),
    ("pack", "wedge 1e4"):
        ("e7432773db3e0346df800906cf2c0365e290dd4270843292b1ab20e92dff81dd",
         "5d6b598be2254bbb91940b8fc57524c965aafd2e4a01c5030a349e0ce9dcc02f"),
    ("pack", "wedge 150x300 flat"):
        ("15709c62d5f5baeb259bbd240a8f622bc8bb6b46dbc22544b63886b53b5b6e73",
         "8d36d00e5620a636287eaf6061372deb816d824b06f30106678202c2fa83abec"),
    ("pack", "wedge 200x0.5 flat"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pack", "wedge 110 narrow top"):
        ("869bd497557ab6e85948b171f57d1aca33096e0663a7609d96b9a8fb5baaeca2",
         "ebade823896655d10a8e1ca10e5f8cb106bfcf6cc7ed7853b8cabf1ddb15808a"),
    ("pack", "shelf 1e4"):
        ("78f39af11d6d79db7f23da3d62d482dc9f8dc97264c566be33a07aaaf2c19460",
         "4643fb2bcfb7445fc19f6e2e7eadf344a48c2dae6e0d9da3f2825f4fb8f3454f"),
    ("pack", "shelf 1e6"):
        ("515771b54b08bf66dbe4f4d063c490b2236411f8749953b91ca3f24e8bb29561",
         "f104985118ea7553756554d3620d1cdf012651298e3302a5bc6bbf3d07f54547"),
    ("pack", "shelf 1e8 flat"):
        ("bf566a53e5aaf4b29b1bef2958878deb57dfcf8cd4760c50aecff70047c8c5c6",
         "44aebf9499d3ce90ab877b603782dae32488951ad06ac5f23f688fa0ced538a1"),
    ("pack", "shelf 100 rows"):
        ("815963ff56aac3a72b6914fc726887b5084893bf1701e0c7fd40c87db2d63f7b",
         "d342f63a60e8c11ece139f85ffd0eabe55fa57953030af04ea4b7c0258db9511"),
    ("pack", "shelf 2e3 fallback"):
        ("4e1058e587c277df6f1bdc190debfa7883d44242bcb4de00a2507cd787d81626",
         "48e05087afc4bdbd09c5cf65dafd2bf4604f330bfa7c214fb62711e0d06c36e2"),
    ("pack", "shelf 5000 grid seam"):
        ("a8a15599cdbb54bfb5bd7d3c575ee2f9b4257fb90576b28df08b8dfbaa44e7bd",
         "f9426b93114f1fa1d737af2a6a6de0736b1404fad4623e59f9497d372b4acaf7"),
    ("pack", "shelf 4000 integer band"):
        ("a02c7a36b63545c8629fa7da6c85a0303fc46ab20e088f16dbaa680ecccd5df0",
         "6e8da11d7d3e6ed2d21e85173a6b3c77ffab33654814221f3c07db8f610af73d"),
    ("pack", "shelf 835 grid band"):
        ("99a64a62c05d0ebcf576d224d55adba54bd548d48e25990ef61878c1c720f4c6",
         "842d8bb72652abe7499811d68648afe3e72c127888e4bd759ebf895254bcad81"),
    ("pack", "shelf 150 grid seam"):
        ("a6c2b7c803ea88b3add3300b3fa764a76641798359b5dc8a8a8883ccc3414857",
         "a232e01bdc17eecd5dac580c1abe0f2c5a24f1318611086726ad8d7fdd83f018"),
    ("pack", "shelf 984 steep"):
        ("af988eb02f70fb3374b6294528f83bf1344af17975e910613463e0d06815c029",
         "5a0bed5f9ed91c426056d1489b0524b57cf2098d28f35f3b151bad582842989b"),
    ("cover", "square 0.5"):
        ("a5fb1017af5628efc92b5066741b0df2039581fb4aac56ed8d5b79af2e1a1883",
         "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"),
    ("cover", "square 1"):
        ("a5fb1017af5628efc92b5066741b0df2039581fb4aac56ed8d5b79af2e1a1883",
         "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"),
    ("cover", "square 50.5"):
        ("0544ced9b7d07fae477732fc52b4f911315aaf99a325c0a5ce970ceeda143a25",
         "4c638ce645c12e7e1d995b763d58e98e5d53cdaa0c47beae73db72adf31f3240"),
    ("cover", "square 150.5"):
        ("88281dab74a28c7c8f262ea3a11b5a8901656794c7c2206d2e11ed69361143df",
         "9b16b18ea62ce120cff7aefd8d7632778d9f2224fecffb756f8684b1ecaf1a5c"),
    ("cover", "square 1000.25"):
        ("e1799ce26713ad39a3a7adab554a43d4403f5b0820ef703dd392d89061910384",
         "737ee4fe200a99986f456aae7b021eea8b530bab02fcc59a60ed9bda753c4b0b"),
    ("cover", "rect 80x60.3"):
        ("e1db696db80271bdb1bf4dd2e547ba41b2986038415a53d39dddd7d23049210d",
         "2ecbc00430225497e1fc095c8e22b70e4401b2a1d67bcf68b4bfaa01711c7699"),
    ("cover", "rect 60.3x80"):
        ("db714d97f87173c1ed815f361c3f72835bc5cffcf498322197c3bbad83a91be4",
         "71c10c12a34d5938080859b4d28628615f707517a4f3e3ea2f09cd029a3c5033"),
    ("cover", "rect 500.5x300.25"):
        ("dca9730c8a486ef2681eef219e578dd9df3007417754aa4b7be20a7d38b926fd",
         "e446f17c2da09a195243f7b8b7b803d634feb9e006e4dc37364640fd0f00e6f7"),
    ("cover", "rect 300.25x500.5"):
        ("0824b214aa3f0203ea887989574d1a039d84af18ab72d7e4ae697dc4622b5aba",
         "c2d71e6b5990e18ba77bc121591c3bcfc6c2178fc081d007e9ba6093546b4435"),
    ("cover", "rect 150x2000"):
        ("82355f4f4e6263eafe3d6e6c04ffe5e9817de9bae7a7336e4eb626c9e0c622e1",
         "766fb0eb0ab4c4e1c2573875293ec6ff2b8251ac6d8d315dc1b0319c11537fc1"),
    ("cover", "rect 2000x150"):
        ("4bc51b473747c7a1430bea146c416749799184425817e1371ed19e7df3529454",
         "5a1b853527dbe23744425d0b660d8c493ced528bf013d7d441b4558ffd9dca87"),
    ("cover", "panel 50x50.5"):
        ("1b5136af5cf55e0b84418318259e0c77bfd18cdc0e3e9575de589827df1d537d",
         "14bd189738c32dc2e0b2349553414cd1be01c4e170211dabd83c8a1f81d76e79"),
    ("cover", "panel 1000x178.5"):
        ("2090ab325e21400ffd8018a6fb99eb2f99a5bb9abf01339933daee6d7ef9f436",
         "921c0237b50a52a745b6374411d2df87b2b89c85115639a76eafc24906edf167"),
    ("cover", "panel 1024x900.5"):
        ("665243856c90c110c9e82805b7631ea44713366aae700eb38c104b2ad29ed14e",
         "2f3ea0ddff1f02d67387764df8470a1dca242c0fafe951b1e4fd2a451706b3ef"),
    ("cover", "strip 10.5x100"):
        ("28195102456062cdfa4027ca7332cd3e7e55e06bd1a6bd5ec8c8f34425505d2b",
         "6ca535e7569689bcc37731fc27ac1e72c30b4018a8c5689c368ae72440d4a2c8"),
    ("cover", "strip 150.7x9000"):
        ("adbee760877d635f1af169db0feef27760ab521ef0fdb81a07d3dedd9fb017e8",
         "16352d353edb87baa1651db8c863ac9275d7b4c6402e7d4bdac795c6a1b2a51c"),
    ("cover", "wedge 400"):
        ("890a1d95681bb9da7b14b475d01e102cad99a12a7f2e42a273adb41f761c9060",
         "45029c028792985c884e02a5d8cdd8a19af12d86ee8a680a2472f6a2750229e3"),
    ("cover", "wedge 1e4"):
        ("cca8835da7461f4c3ca850519ed26228fbc435f054e27fd56a7ebe33735a932b",
         "9d868f7e5dd74290b02372057a0f1606147b5bfb78b017a0f9a85f5c9aaa0c8e"),
    ("cover", "wedge 150x300 flat"):
        ("15709c62d5f5baeb259bbd240a8f622bc8bb6b46dbc22544b63886b53b5b6e73",
         "8d36d00e5620a636287eaf6061372deb816d824b06f30106678202c2fa83abec"),
    ("cover", "wedge 200x0.5 flat"):
        ("947936842c8b992d30bc3ab893d32a6f9c24210469cc147db594ab66fc27ae06",
         "138ef155387433eae77fa229a20037ba5c220f48f5f4dcfb423032393cf2ef58"),
    ("cover", "wedge 110 narrow top"):
        ("c37cecbc80d12c2d7ea79c52da00c1043fc650174d4751f27c79f6821d98893c",
         "6796608c856f9ac8bc79709e458a68c4ce5c08a03d71ebe799d989d8010aee22"),
    ("cover", "shelf 1e4"):
        ("2f19edd467017d5d1ba9c661218ad312c248e6a2d55406bb2c0cb43a6d0ac898",
         "ada151eda7db910f6b59a4ca70ec13508ea708ff0073fc23022b21f04be95b29"),
    ("cover", "shelf 1e6"):
        ("42b4971e1adccd766c62a53d05095481bb7e0b33c9584251bcba96c7126a967a",
         "b198758827755272a381c6fe1b5f890cc9d2e2c52ae612e281c83148abcd9e37"),
    ("cover", "shelf 1e8 flat"):
        ("d53084084278232c399c96d8727ec49702dd5b37be4bdd914645ed5d24ad17bc",
         "75a8762761a01ba2a8d754d9e6cdddc203079021fa6599af9ed1f35118e5dc49"),
    ("cover", "shelf 100 rows"):
        ("e272b0085774cd89cc05460bcdd5151b77fdf9a0d158a03c7eacd241c7215148",
         "36930d48b1593d8f21a295845ae39237db4641de42ba73291b3c3aca4034b248"),
    ("cover", "shelf 2e3 fallback"):
        ("d119d46ac23324f33d928b9c6fe9e51a661e981f4ecf4d3804ec5bb23d8e47a1",
         "62ff03d9b398e042d0f949c6ff903f598dd09150a6dd75ea78fc45c7512551e7"),
    ("cover", "shelf 5000 grid seam"):
        ("864a607c0271508fc60916a478f7e11b81c0f214a9efa20b098c4845705947cf",
         "f0305f9bd38aa11727cb8d9712d552b467c83035eac32333046807af2134e6f2"),
    ("cover", "shelf 4000 integer band"):
        ("a94c04a006666d58adabd3c5e96d79d71160de45fae11068973e9831c96e3686",
         "e585af1816625b8f66c29998edbea9210abbe6f7a48ddd12f5736610cf3d846b"),
    ("cover", "shelf 835 grid band"):
        ("923476a3bce083a0cd265d72b5652b8febbc2589a54f45cba05dcbd7d819d71c",
         "ab5699e80f5c014f8cc807db6dd9687cc0a889a20fd9214a113043820eca7f22"),
    ("cover", "shelf 150 grid seam"):
        ("e320b4f47ca0294e1a95a16f6d9610cf7004e9096034d58171da89394eec2c03",
         "1d22b4fe7534d7de31b8f20b640a4bad4a8cb64db715f0bfc4c3e686ab1b7fe6"),
    ("cover", "shelf 984 steep"):
        ("ec59b5c1377e2af5e1382c456772dadf7c76f09bdc0c01be927c8ce5c2eea1be",
         "cc999eafa6eff673d53f6ed59bb0ff602b06bada96498c740becfb6c23a84460"),
}


def _lattice_sha(lat: dict) -> str:
    floats = np.stack([lat[f] for f in ("bx", "by", "ang", "ux", "uy", "px", "py")], axis=1)
    ints = np.stack([lat["count"], lat["repeat"]], axis=1)
    assert floats.dtype == np.float64 and ints.dtype == np.int64
    return hashlib.sha256(floats.tobytes() + ints.tobytes()).hexdigest()


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_lattices_are_the_same_built_and_loaded(kind):
    """The nine lattice columns (dtype, shape and bytes) of every case are the same as
    built, as read from its version 3 text and as read from the oracle's version 2
    text of its world tree; a node with no graft on its path, whose mapping by the
    identity turns -0.0 into 0.0, comes out alike in all three."""
    for case in PLAN_CASES:
        plan = _build_case(kind, case)
        tables = [plan_lattices(p) for p in (plan, plan_from_json(plan_to_json(plan)),
                                              world_plan(plan))]
        for column in plan_mod.LATTICE_COLUMNS:
            built, *loaded = (t[column] for t in tables)
            for other in loaded:
                assert (other.dtype, other.shape, other.tobytes()) == (
                    built.dtype, built.shape, built.tobytes()), (case, column)


@pytest.mark.parametrize("kind,case", sorted(LATTICE_DIGESTS))
def test_lattice_and_placement_bytes_are_pinned(kind, case):
    plan = _build_case(kind, case)
    poses = enumerate_placements(plan)
    assert (_lattice_sha(plan_lattices(plan)), hashlib.sha256(poses.tobytes()).hexdigest()) == \
        LATTICE_DIGESTS[(kind, case)]


# sha256 of plan_to_svg(square plan of side x), full (limit=300_000) and
# outline only; taken before render listed regions by `plan.walk`, and a
# change that claims no behaviour change keeps them
SVG_DIGESTS = {
    ("pack", 50.5, False): "18ff8eef4805d5a6fee90fed78d1ddccdf56c0b09ee2cd96b13f77ec747458e5",
    ("pack", 50.5, True): "290e18a606a3dcb8746c2a38931f5aab0146fe8be1751e8190758c4f323242f6",
    ("pack", 150.5, False): "977ffb1057ee141e390dec860805ffffdc6fb29f44de0dc6ad5486d2006f270e",
    ("pack", 150.5, True): "a8351dddc9c2bc9de7e6de25515b176e54d2b852110a96f1dba79060d365e6aa",
    ("pack", 400.3, False): "e24d48279f0ab7dbc078a584ea486484b8397e3a8b8a2637a789d4ea7752585e",
    ("pack", 400.3, True): "23f2ff9f0ca29760a7a00a95634fc36d370f2c1670008624336d3c46cd765ece",
    ("cover", 50.5, False): "b26f587c898c0493f2aae00f9c313b7b76c18770d5107fd0ac614531568f44fa",
    ("cover", 50.5, True): "290e18a606a3dcb8746c2a38931f5aab0146fe8be1751e8190758c4f323242f6",
    ("cover", 150.5, False): "09f71b5866b643a70b6350b90c963f904075f1ec952d0b7041be99f683bfb855",
    ("cover", 150.5, True): "1489c318a1b39fb233f1dce2cbf5cae26a40b9976e2cae47eee96cff1218a97a",
    ("cover", 400.3, False): "d8bb015d5413d052651d51e39ba60cad299a899fa1abb21cc655d8bee392d501",
    ("cover", 400.3, True): "caf576d4fcc777c06f18ef1e703ab6ecabba37ab3f5c1f801301ac171b51e18c",
}


@pytest.mark.parametrize("kind,x,outline_only", sorted(SVG_DIGESTS))
def test_svg_bytes_are_pinned(kind, x, outline_only):
    svg = plan_to_svg((pack_square if kind == "pack" else cover_square)(x),
                      outline_only=outline_only, limit=300_000)
    assert hashlib.sha256(svg.encode()).hexdigest() == SVG_DIGESTS[(kind, x, outline_only)]


def _node_texts(node, kind):
    """The version 3 text of a plan of `node`, and the oracle's version 2 text."""
    plan = Plan(kind=kind, x=1.0, region=node.region.grafted(next(walk(node))[1]), root=node)
    return plan_to_json(plan), v2_text(plan)


@pytest.mark.parametrize("kind", ["pack", "cover"])
@pytest.mark.parametrize("case", ["square 20000.5", "wedge 1e4", "shelf 2e3 fallback",
                                  "shelf 5000 grid seam", "shelf 1e6"])
def test_shared_builds_equal_unshared_builds(kind, case, monkeypatch):
    """A plan whose repeated shelves and wedges are shared has the world tree,
    and records the stats and band tilts, of one that builds every use."""
    shared = _sha(v2_text(_build_case(kind, case)))
    monkeypatch.setattr(builders, "_memoised", _unshared)
    assert shared == _sha(v2_text(_build_case(kind, case)))


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_memo_tells_signed_zeros_apart(kind):
    """0.0 == -0.0, yet a wedge of top -0.0 writes its top as -0.0."""
    height, tilt = 40.0, _tilt(40.0, 0.5)
    stats = BuildStats()
    shared = [_node_texts(build_wedge(WedgeSpec(height, top, tilt), 0, stats, kind), kind)
              for top in (0.0, -0.0)]
    fresh = [_node_texts(build_wedge(WedgeSpec(height, top, tilt), 0, BuildStats(), kind), kind)
             for top in (0.0, -0.0)]
    assert shared == fresh
    assert fresh[0][0] != fresh[1][0] and fresh[0][1] != fresh[1][1]


# shelves whose builds record a fallback band, a joint, band tilts or depth
@pytest.mark.parametrize("kind,case", [("pack", "shelf 2e3 fallback"), ("pack", "shelf 1e4"),
                                       ("cover", "shelf 1e6"), ("cover", "shelf 835 grid band")])
def test_a_replayed_build_records_what_a_fresh_one_does(kind, case):
    """A hit replays the band tilts, fallback bands, largest joint and depth
    of its first build, and is refused past MAX_DEPTH as a fresh build is."""
    spec = PLAN_CASES[case][1]
    once = BuildStats()
    build_shelf(spec, 0, once, kind)
    assert once.max_depth or once.fallback_bands or once.joint_max
    depths = (0, 3, 1)
    shared, fresh = BuildStats(), BuildStats()
    for depth in depths:
        build_shelf(spec, depth, shared, kind)
        build_shelf(spec, depth, fresh, kind)
        fresh.built.clear()
    assert len(shared.built) == len(once.built)
    for stats in (shared, fresh):
        assert stats.band_tilts == once.band_tilts * len(depths)
        assert stats.fallback_bands == once.fallback_bands * len(depths)
        assert stats.joint_max == once.joint_max
        assert stats.max_depth == max(depths) + once.max_depth
    build_shelf(spec, MAX_DEPTH - once.max_depth, shared, kind)
    for stats in (shared, BuildStats()):
        with pytest.raises(InvalidSpec, match="recursion deeper than"):
            build_shelf(spec, MAX_DEPTH - once.max_depth + 1, stats, kind)


def _parts(node) -> list:
    """The mutable parts of `node`: its children list, its ledger and each list in it."""
    return [node.children, node.ledger] + [v for v in node.ledger.values() if isinstance(v, list)]


def _sharing(root) -> list:
    """For each node of the walk, the first walk position at which its node, each
    of its mutable parts and its run columns were met: the sharing, as positions."""
    first: dict[int, int] = {}
    return [[first.setdefault(id(x), i) for x in (node, *_parts(node), node.runs)]
            for i, (node, _) in enumerate(walk(root))]


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_no_two_nodes_share_a_list_or_dict(kind):
    """The uses of one definition share all of it but their grafts; no two definitions
    share a list or dict, or any bytes of their run columns; and the version 3 reader
    rebuilds exactly the sharing the build made."""
    plan = build_plan(kind, "square", 1e6 + 0.5)
    uses: dict[int, list] = {}  # id(children) -> the distinct nodes that hold it
    for node, _ in walk(plan.root):
        if all(node is not u for u in uses.setdefault(id(node.children), [])):
            uses[id(node.children)].append(node)
    assert sum(len(u) > 1 for u in uses.values()) >= 2
    seen: set[int] = set()
    count = 0
    spans = []
    for nodes in uses.values():
        head = nodes[0]
        for node in nodes[1:]:
            assert all(a is b for a, b in zip(_parts(node), _parts(head)))
            assert node.runs is head.runs and node.region is head.region
            assert (node.kind, node.area, node.label, node.counts) == (
                head.kind, head.area, head.label, head.counts)
        seen.update(map(id, _parts(head)))
        count += len(_parts(head))
        if len(head.runs):
            start = head.runs.__array_interface__["data"][0]
            spans.append((start, start + head.runs.nbytes))
    assert len(seen) == count
    spans.sort()
    assert len(spans) >= 3 and all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    assert _sharing(plan_from_json(plan_to_json(plan)).root) == _sharing(plan.root)


@pytest.mark.parametrize("case,labels", [
    ("shelf 2e3 fallback", ["top band", "band 1", "band 2 grid"]),
    ("shelf 5000 grid seam", ["top band", "band 1 grid", "band 2", "band 3 grid"]),
])
def test_pinned_pack_chains_grid_a_band(case, labels):
    """The pinned grid-band cases keep reaching the packing chain's grid
    band, its overhang row count and the stack family on a flat seam."""
    assert _chain_labels("pack", case) == labels


def test_pinned_cover_chain_grids_its_band():
    """The covering chain grids a band only when it is the lone band and too
    short for its wedge; the pinned case keeps reaching that branch."""
    assert _chain_labels("cover", "shelf 835 grid band") == ["band 1 grid"]


def _chain_labels(kind, case):
    """The run labels of the case's band chain; the case grids one band."""
    plan = _build_case(kind, case)
    assert plan.meta["stats"]["fallback_bands"] == 1
    chain = next(n for n in _walk(plan.root) if n.label == "stack bands")
    return list(chain.run_labels)


def _statement_lines(path) -> set[int]:
    """The first line of every statement inside a function of `path`, less
    docstrings and `raise` statements."""
    lines = set()

    def visit(body):
        for stmt in body:
            if isinstance(stmt, ast.Raise) or (isinstance(stmt, ast.Expr)
                                               and isinstance(stmt.value, ast.Constant)):
                continue
            lines.add(stmt.lineno)
            visit(getattr(stmt, "body", []))
            visit(getattr(stmt, "orelse", []))

    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.FunctionDef):
            visit(node.body)
    return lines


def test_plan_cases_run_every_builder_statement():
    """Every construction branch is pinned: building each case of both kinds
    runs every statement of `builders.py` that does not raise."""
    path = builders.__file__
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == path else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        for kind in ("pack", "cover"):
            for case in PLAN_CASES:
                _build_case(kind, case)
    finally:
        sys.settrace(before)
    assert sorted(_statement_lines(path) - ran) == []


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_lattice_enumeration_is_the_per_node_expansion(kind):
    for case in PLAN_CASES:
        if case not in HUGE_CASES:
            plan = _build_case(kind, case)
            got = enumerate_placements(plan, limit=2_000_000)
            assert got.tobytes() == enumerate_by_node(plan.root).tobytes(), case
            assert got.tobytes() == enumerate_by_node(world_plan(plan).root).tobytes(), case


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_walk_is_the_recursive_pre_order(kind):
    """`walk` meets the nodes in recursive pre-order, each with the grafts on its
    path composed, root first."""
    def frames(node, outer):
        frame = outer if node.graft is None else compose_graft(outer, node.graft)
        yield frame
        for c in node.children:
            yield from frames(c, frame)

    for case in PLAN_CASES:
        root = _build_case(kind, case).root
        assert [id(n) for n, _ in walk(root)] == list(map(id, _walk(root))), case
        assert [repr(f) for _, f in walk(root)] == list(map(repr, frames(root, (IDENTITY, False))))


def test_plans_hold_no_reference_cycles():
    """Reference counting alone frees every plan, so pausing the cyclic
    collector while plans are built and serialised leaves it nothing to find."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for kind in ("pack", "cover"):
            for case in PLAN_CASES:
                plan = _build_case(kind, case)
                account(plan)
                plan_from_json(plan_to_json(plan))
        del plan
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
