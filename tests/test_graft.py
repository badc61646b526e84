"""Lazy grafting: composition law, one mapping per node, merged wedge rows,
and accounting that does not depend on frames."""

from __future__ import annotations

import ast
import gc
import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import sqpack.builders as builders
import sqpack.plan as plan_mod
from sqpack.builders import (
    PanelSpec, ShelfSpec, WedgeSpec, _graft, shelf_top_len, sliced_trap_fill,
)
from sqpack.geometry import (
    Pose, ceil_guard, floor_guard, rect_region, square_corners, trap_region, tri_region,
)
from sqpack.plan import (
    StackRun, account, dumps_stable, enumerate_placements, grid_node, plan_from_json,
    plan_to_json, resolve_grafts, stacks_node,
)
from sqpack.planner import build_plan, cover_square, pack_square
from oracles import enumerate_by_node


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



def _tilt(scale, f):
    return f * math.sqrt(2.0) * scale ** -0.5


# one case per shape and size: (shape, *dims); a shelf is (scale, height, tilt)
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
    "shelf 1e4": ("shelf", 1e4, 50.0, _tilt(1e4, 1.0)),
    "shelf 1e6": ("shelf", 1e6, 500.0, _tilt(1e6, 0.3)),
    "shelf 1e8 flat": ("shelf", 1e8, 150.0, 0.0),
    "shelf 100 rows": ("shelf", 100.0, 5.0, _tilt(100.0, 0.875)),
    # pack plans that grid a band: under the overhang of the stacks above,
    # and between two stack families (the lower one anchors on a flat seam)
    "shelf 2e3 fallback": ("shelf", 2e3, 30.0, _tilt(2e3, 0.9)),
    "shelf 150 grid seam": ("shelf", 150.0, 15.0, _tilt(150.0, 1.05)),
    # a cover plan whose lone band is too short for its wedge, so it grids
    "shelf 835 grid band": ("shelf", 835.0, 4.0, _tilt(835.0, 1.7)),
}

# the PLAN_CASES entries that enumerate more than 2M squares
HUGE_CASES = {"square 20000.5", "panel 4096x4096.2", "wedge 1e4"}


def _build_case(kind, case):
    shape, *dims = PLAN_CASES[case]
    if shape == "shelf":  # its integer top edge follows the kind
        scale, height, tilt = dims
        dims = [ShelfSpec(scale, height, shelf_top_len(scale, kind), tilt)]
    return build_plan(kind, shape, *dims)


# sha256 of plan_to_json(plan), taken before the packing and covering wrappers
# became one planner; a change that claims no behaviour change keeps them. The
# entries from "panel 50x50.5" on were taken before the unreachable builder
# branches were deleted, and "wedge 200x0.5 flat" once a flat wedge under unit
# width stopped declaring waste
PLAN_DIGESTS = {
    ("pack", "square 0.5"): "1058950043a45a2338944b2babffd179b74ef5faf07067b5a95553fd9ea0171e",
    ("pack", "square 1"): "475218f3f56484ee8c12b6441b2ec2b4bb9b87acc1639d60e784fc274125dce9",
    ("pack", "square 50.5"): "f94e61926f303e5b72754e70962e2295b5fd34e887e6dc6554af079eb26e4a00",
    ("pack", "square 150.5"): "5bf0df26acc0467487bda5c52b5964a30f168c7b68bac565da53a537916982ef",
    ("pack", "square 1000.25"): "46761870bfa6f2ad02886ee164bf844514f2a3aca061204f9bd9b27d2089e207",
    ("pack", "square 20000.5"): "1b7a5b2ba9105b43f6d7b8197e3da4a885d728d8aae885a31c3bf264d9217c5e",
    ("pack", "rect 80x60.3"): "e277e573138b352eb69ddba98a6f265ec2962969ac3777b62f389624a3be65f9",
    ("pack", "rect 60.3x80"): "bd4fe368f9239c4d4a05433d548b83a151045b2c0d5ba206f207dc925dd3f44d",
    ("pack", "rect 500.5x300.25"): "5d59e1f75095223600e0ac12f75aa64a64ffcbf863508048fc6b8f43241e0dca",
    ("pack", "rect 300.25x500.5"): "558b172d2d45ee20edb8bb6f87a2f1adeee43525e1148e0685c96bcdf6486078",
    ("pack", "rect 150x2000"): "1edfaaa2af5f4b42d7f9f3740d860ccb0f59217b0b9443a4da315d1abcfde2e2",
    ("pack", "rect 2000x150"): "55f2f6f18f04e35ca037c12a9ff6187e08e035a52d21360abf603c16e468b3b3",
    ("pack", "panel 1024x900.5"): "4720fd757b4fe9e712c75a0a947c4d6c3529bcfd18ed9fb2870e8506258f2e60",
    ("pack", "panel 4096x4096.2"): "9fa7e62b1d679d51be3e78a5ac8d10e6ef6b99dfe8773f802327fd0c9be09cfe",
    ("pack", "strip 10.5x100"): "8b3dc94a4e9d384427a0bfc14d33685fa39ce951cc515b91ad4846e269a7ee4c",
    ("pack", "strip 150.7x9000"): "85556955d2e63179d135f45453ccbc916fdabb3b63f5e742a899b1ef5b85cec6",
    ("pack", "wedge 400"): "306c14a32229b72f1218518d963eb9aef6e4864a133a94e0c10b929709323068",
    ("pack", "wedge 1e4"): "f32d4d47f3f765cf3642ccf7654a5dd04ee0295208a13cc9e68c1b0065ee408c",
    ("pack", "wedge 150x300 flat"): "108eb92754e134e89e91eabff6346a0dbc3262ef95afc334284332f7ec07bdb5",
    ("pack", "shelf 1e4"): "a97361e59d81f87a7ef03df7458b9525d8a4ec5d46c6c99dd4a472d144c8d735",
    ("pack", "shelf 1e6"): "57a590d7bfd1dc5217bfe5e32b4193862c783a9d40beb18c22da9bb4cfb530b9",
    ("pack", "shelf 1e8 flat"): "976e46e261cdbac7a963105976af8b91d61e5cc78791918d60b987798da5fc7d",
    ("pack", "shelf 2e3 fallback"):
        "fe94abbf1d4ad929b497617d58f9ce750be11900145562b42d5f5f602901d26b",
    ("pack", "shelf 150 grid seam"):
        "9b0d10cb5174fda218585629f2e8cf46ae5ff679bcf32c4bb8206c9827581a77",
    ("pack", "panel 50x50.5"):
        "45bd1a6d7faaf218a2a7fff02c67fed973fef700593d27104370feac76868870",
    ("pack", "panel 1000x178.5"):
        "ea054c22ec26a0efd574a5a7f2c96ad145a188cb866a2c1202a0ef75a8745f14",
    ("pack", "wedge 200x0.5 flat"):
        "657ebb84090ada99b63d0827ba17bb8fa334d34790789cfb58aaeabd09a8768e",
    ("pack", "wedge 110 narrow top"):
        "c09421064d2221edd2f109a51c1381016386e9c6656a1a62a4f1513a5c5e8fb7",
    ("pack", "shelf 100 rows"):
        "68d143ae98c435681c8331ed986332c228ca37ad7b37b613020be67c86eab1ab",
    ("pack", "shelf 835 grid band"):
        "8ad642932876a0d9ce358583855d72cab4232ac8cd3503fabc71b1e0ece84536",
    ("cover", "square 0.5"): "e2f2924d8f7736ec47c5a101e6fa34fdd5f0ef8f10b4e65b254639831ec9c19f",
    ("cover", "square 1"): "96af06067ef399222cbdd9d8f469b0147bada070c622afdfde1757d73673e4e2",
    ("cover", "square 50.5"): "97baabae99b92a2a3fa419886233a59c46b2f46516dc4b7b7d92f3fe1e68bf0b",
    ("cover", "square 150.5"): "1642a9e7d1c2d1664b02bb52c95fe7d154ef448fed25c6d366f77ca3a3078bf9",
    ("cover", "square 1000.25"): "d0acd63b65cb9617770ca1e002623111e6d2fa62629b858aa2b5ac3e26a43cc0",
    ("cover", "square 20000.5"): "728db444e7d21f155a1a68ea94ee976cc66b18b8cc0e29ca1397974604fbe261",
    ("cover", "rect 80x60.3"): "e5becfc419ec0db0bcce3066525a5cce424ce0d3845c20d39399436ddc3d6e82",
    ("cover", "rect 60.3x80"): "7854b76d74459abea708728a07fd2112ae71a9b8ccbb1d2667cdde77543df4cd",
    ("cover", "rect 500.5x300.25"): "d5158211d176b1a573084f75c2c8276940eb4239669bff2742bd91e10f6a41ce",
    ("cover", "rect 300.25x500.5"): "56ae88223a3167572d5d87916f0496cfe95686f9241644d51cd78af72bff7c66",
    ("cover", "rect 150x2000"): "a4e161e8888e95ce40e06de834b70bcfbcd2a927541147a4ebdc4cb1aa36bf16",
    ("cover", "rect 2000x150"): "707078af62fffd0d3355821be73e39b0affe8474539412f0c9783f2384a81805",
    ("cover", "panel 1024x900.5"): "99515014d125f72dcf83334c313f81e703eb0e9e32846108a59e2949bd0b303b",
    ("cover", "panel 4096x4096.2"): "11b4d99f939dd1bc9952bffaac615f850e2ff06cf97e968ef8b863b16dc73837",
    ("cover", "strip 10.5x100"): "5d2f68cefbf9370e838b4e46468bbace7cc0cdeff6b6538dc5b97868d513c4cd",
    ("cover", "strip 150.7x9000"): "a1f45ceb4fa6f3c4b6734034e8aed9d80fb7a08146021162a5209675a81332fc",
    ("cover", "wedge 400"): "834b7337eb4fc97901b36adeb3e39bbba10ccd9543ec50ce5f1287d2477d61ab",
    ("cover", "wedge 1e4"): "5e65695cba5496e1b44be5d22442bf57662776f0c434cb61a4abeb5b01fae1a2",
    ("cover", "wedge 150x300 flat"): "48bde8fc40a0eaa861c21032e712ca33e5329f54426e1c1a207b244afd5304db",
    ("cover", "shelf 1e4"): "2ac80cfc51fe174dbb0ca5aedf4bb4a90a42305a606d48c6fb49ecda4e6eddd7",
    ("cover", "shelf 1e6"): "773661fc89a1f1c219e9d0f3efeb5138e4f2256ca91552e4a84f234f5c4a1bd0",
    ("cover", "shelf 1e8 flat"): "3149955fd76746742d6e895f44c231613adecc9bff1b1fc7b80bccf32538943e",
    ("cover", "shelf 2e3 fallback"):
        "d5169b86f33b7f90f9430e76dc54b90cc259994f28d5d2126aee2f0d920a662a",
    ("cover", "shelf 150 grid seam"):
        "499719486059436b2693c2e2015cd3dc9300109c0813b147b3669b2128a701ee",
    ("cover", "panel 50x50.5"):
        "59d7c6ddc3890e157db4d0d479424aa35d9ee27c8cbf86ae80c3a017c4ac870b",
    ("cover", "panel 1000x178.5"):
        "c0ae07453d5215af4ffb36d16830e2f9ff41bb8d7f1ed7f339cbbaef2d956a69",
    ("cover", "wedge 200x0.5 flat"):
        "4ed266d8b7e862057e785bd5201823413b600526bf0fa74a0863b8b91c45ba4f",
    ("cover", "wedge 110 narrow top"):
        "8d0525da8006277faa767d981b979b040af2b67e21ed71e8566a7d496c2df715",
    ("cover", "shelf 100 rows"):
        "e849d83b79c3fd3d6e1720b92009725960ec759c30fd9ae3b04003a7fbbee53e",
    ("cover", "shelf 835 grid band"):
        "6d88ff54571cc1e02fcc88e412261791ffcb14fb13fcad15c971f19385a27e83",
}


@pytest.mark.parametrize("kind,case", sorted(PLAN_DIGESTS))
def test_plan_bytes_are_pinned(kind, case):
    text = plan_to_json(_build_case(kind, case))
    assert hashlib.sha256(text.encode()).hexdigest() == PLAN_DIGESTS[(kind, case)]


@pytest.mark.parametrize("case,labels", [
    ("shelf 2e3 fallback", ["top band", "band 1", "band 2 grid"]),
    ("shelf 150 grid seam", ["top band", "band 1 grid", "band 2", "band 3 grid"]),
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
    return [r.label for r in chain.runs]


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
