"""Lazy grafting: composition law, one mapping per node, merged wedge rows,
and accounting that does not depend on frames."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import sqpack.plan as plan_mod
from sqpack.builders import _graft, sliced_trap_fill
from sqpack.coverer import cover_square
from sqpack.geometry import (
    Pose, ceil_guard, floor_guard, rect_region, square_corners, trap_region, tri_region,
)
from sqpack.packer import pack_square
from sqpack.plan import (
    StackRun, account, dumps_stable, enumerate_placements, grid_node, resolve_grafts,
    stacks_node,
)


def _walk(node):
    yield node
    for c in node.children:
        yield from _walk(c)


def _subtree():
    """A small local subtree: tilted runs, overshoot, seams and a grid leaf."""
    a = 0.25
    run = StackRun(base=Pose(0.3, 0.2, a), step=(-math.sin(a), math.cos(a)), count=3,
                   repeat=2, pitch=(1.0 / math.cos(a), 0.0))
    grid = grid_node(rect_region(3.0, 2.0, Pose(1.0, 4.0, 0.0)), (1.0, 4.0), 2, 3)
    grid.seams = [(1.0, 4.0, 4.0, 4.0)]
    leaf = stacks_node(trap_region(5.0, 2.0, 4.0, Pose(1.0, 2.0, math.pi / 2), mirror=True),
                       [run], overshoot=[tri_region(1.0, 2.0, Pose(0.5, 0.0, 0.0))])
    root = stacks_node(rect_region(10.0, 10.0), [run], leftovers=[leaf, grid])
    root.seams = [(0.0, 0.0, 2.5, 7.0)]
    return root


def _square_set(node) -> np.ndarray:
    """Each square as its corner set, independent of which corner is the base."""
    poses = enumerate_placements(node)
    squares = [sorted((round(x, 9) + 0.0, round(y, 9) + 0.0)
                      for x, y in square_corners(Pose(*p))) for p in poses]
    return np.array(sorted(squares))


def _random_graft(rng):
    frame = Pose(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.randint(-2, 4) * math.pi / 2)
    return frame, bool(rng.randint(2))


def test_two_grafts_equal_one_composed_graft():
    rng = np.random.RandomState(5)
    for _ in range(40):
        (f1, m1), (f2, m2) = _random_graft(rng), _random_graft(rng)
        # one after the other: map by the inner graft, then by the outer one
        seq = _subtree()
        seq.graft = (f2, m2)
        seq.seams = resolve_grafts(seq)
        seq.graft = (f1, m1)
        seq_seams = resolve_grafts(seq)
        # composed: both grafts recorded, the tree mapped once
        one = _graft(_graft(_subtree(), f2, m2), f1, m1)
        one_seams = resolve_grafts(one)

        assert np.allclose(_square_set(seq), _square_set(one), atol=1e-9)
        assert np.allclose(seq_seams, one_seams, atol=1e-9)
        for a, b in zip(_walk(seq), _walk(one)):
            assert a.region.mirror == b.region.mirror
            assert np.allclose(a.region.polygon(), b.region.polygon(), atol=1e-9)
            for ra, rb in zip(a.overshoot, b.overshoot):
                assert np.allclose(ra.polygon(), rb.polygon(), atol=1e-9)
            if a.kind == "grid":
                assert (a.rows, a.cols) == (b.rows, b.cols)
                assert np.allclose(a.origin, b.origin, atol=1e-9)


def test_every_node_is_mapped_exactly_once(monkeypatch):
    calls: dict[int, int] = {}
    mapper = plan_mod.map_node

    def counting(node, frame, mirror):
        calls[id(node)] = calls.get(id(node), 0) + 1
        mapper(node, frame, mirror)

    monkeypatch.setattr(plan_mod, "map_node", counting)
    for build in (pack_square, cover_square):
        calls.clear()
        plan = build(20000.5)
        nodes = list(_walk(plan.root))
        assert len(nodes) > 100
        assert sorted(calls) == sorted(id(n) for n in nodes)
        assert set(calls.values()) == {1}
        assert all(n.graft is None and not n.seams for n in nodes)
        assert plan.seams


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
    assert [r.count for r in node.runs] == distinct


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

