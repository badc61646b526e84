"""Plan trees: region decompositions with grid, stack-run and waste leaves.

A plan is immutable once built. `definitions` reads each distinct node once, so accounting
(areas, counts, waste/excess) is analytic, checks conservation once per definition and never
materialises placements. `walk` gives the one pre-order of a tree's nodes, each with its world
frame, at any depth. Every grid and stack run is one lattice of unit squares; `plan_lattices`
lists them in that order as one table of columns at any count, the counts as exact integers,
and `square_at` places each square for enumeration and the verifier.

Node kinds:
  split   -- children tile the node's region (checked by area, not geometry)
  grid    -- rows x cols axis-aligned unit squares anchored at `origin`
  stacks  -- tilted stack runs plus leftover sub-plans; `region` may be None
             for chain nodes whose exact footprint spans several rectangles,
             in which case `area` is declared explicitly
  waste   -- region conceded by the construction (packing only)

Stack runs are arithmetic families: `count` squares step apart along the
stack, repeated `repeat` times `pitch` apart. A single run is repeat == 1. A
stacks node holds its runs as columns: `runs`, a (k, 7) float64 array in the
float order of `LATTICE_COLUMNS` (`bx by ang ux uy px py`), so `len(node.runs)`
counts them; `counts` and `repeats` as exact ints; and `run_labels`. Builders,
the loader and `stacks_node` fill these columns; `StackRun` is only the input
record of `stacks_node`.

Builders work in local frames, and a built subtree is never changed once its
builder returns, so one definition hangs under every parent that uses it: each
use is a shallow copy of its top node with a `graft` of its own, the
(frame, mirror) map into its parent. That tree is the plan; nothing maps it into
a second one. `walk` composes the grafts down each path, and `plan_lattices`
maps the grids and the runs of every use from it, the runs in one numpy pass.
Editing a shared node edits every use of it.

Plan files are format version 3: each definition written once, in "defs", each use of it as
{"def": k, "graft": [tx, ty, angle, mirror]}, and a node used once in place, with its "graft"
if it has one. Versions 1 and 2 wrote every use out in world coordinates, and version 1 also
held seam segments and per-node overshoot regions, which nothing read; the reader still
accepts both, as trees with no grafts and nothing shared, and drops those.
"""

from __future__ import annotations

import copy
import gc
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import compress
from operator import mul

import numpy as np

from .config import ASPECT_LIMIT
from .geometry import (
    IDENTITY, Pose, Region, compose_graft, rect_region, region_area, trap_region, tri_region,
)

NODE_KINDS = ("split", "grid", "stacks", "waste")
AREA_RTOL = 1e-6


class PlanError(ValueError):
    pass


class OverLimit(RuntimeError):
    pass


@contextmanager
def gc_paused():
    """Hold off the cyclic garbage collector while a plan tree is created or
    serialised, then restore the caller's setting, also on a raise.

    Plan trees hold no reference cycles, so reference counting frees them
    and the pause leaves nothing for a later collection; without it the
    collector rescans the growing tree many times over.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True, slots=True)
class StackRun:
    base: Pose
    step: tuple[float, float]
    count: int
    repeat: int = 1
    pitch: tuple[float, float] = (0.0, 0.0)
    label: str = ""


NO_RUNS = np.empty((0, 7))
NO_RUNS.flags.writeable = False


@dataclass(slots=True)
class PlanNode:
    kind: str
    region: Region | None = None
    area: float = 0.0                      # region area, or declared area when region is None
    label: str = ""
    children: list["PlanNode"] = field(default_factory=list)
    origin: tuple[float, float] = (0.0, 0.0)
    rows: int = 0
    cols: int = 0
    runs: np.ndarray = field(default_factory=lambda: NO_RUNS)  # (k, 7): bx by ang ux uy px py
    counts: tuple = ()                     # count, repeat and label of each run
    repeats: tuple = ()
    run_labels: tuple = ()
    reason: str = ""
    ledger: dict = field(default_factory=dict)
    graft: tuple[Pose, bool] | None = None  # (frame, mirror) into the parent's frame

    def own_count(self) -> int:
        if self.kind == "grid":
            return self.rows * self.cols
        if self.kind == "stacks":
            return sum(map(mul, self.counts, self.repeats))
        return 0

    def total_count(self) -> int:
        return definitions(self)[id(self.children)].count


def walk(root: PlanNode):
    """Every node at and below `root`, in pre-order, each with the (frame, mirror) map of
    its local coordinates into the world's: the grafts on its path composed, root first.
    It keeps a stack of its own rather than recursing, so a tree of any depth is walked."""
    stack = [(root, (IDENTITY, False))]
    while stack:
        node, outer = stack.pop()
        frame = outer if node.graft is None else compose_graft(outer, node.graft)
        yield node, frame
        stack.extend((c, frame) for c in reversed(node.children))


@dataclass(slots=True)
class Definition:
    """A distinct node of a tree: `node`, its first use in pre-order, is child `index` of
    `parent`'s; `holds` places of the tree hold it; `count` squares are in its subtree."""
    node: PlanNode
    parent: "Definition | None" = None
    index: int = 0
    holds: int = 1
    count: int = 0

    @property
    def path(self) -> str:
        """Where its first use is: "root", then each child index down to it."""
        d, steps = self, []
        while d.parent is not None:
            steps.append(d.index)
            d = d.parent
        return ".".join(map(str, ["root", *reversed(steps)]))


def definitions(root: PlanNode) -> dict[int, Definition]:
    """Each distinct node at and below `root` once, children first, keyed by the `children` list
    its uses share (`id`); from a stack of its own, its cost grows with distinct nodes, not uses."""
    seen = {id(root.children): (top := Definition(root))}
    stack = [(top, enumerate(root.children))]
    while stack:
        d, rest = stack[-1]
        for i, c in rest:
            if (key := id(c.children)) in seen:
                seen[key].holds += 1
            else:
                seen[key] = e = Definition(c, d, i)
                stack.append((e, enumerate(c.children)))
                break
        else:  # its children are done: count it, and move it after them
            stack.pop()
            d.count = d.node.own_count() + sum(seen[id(c.children)].count for c in d.node.children)
            seen[key] = seen.pop(key := id(d.node.children))
    return seen


def split_node(region: Region | None, children: list[PlanNode], label: str = "",
               area: float | None = None) -> PlanNode:
    a = region_area(region) if region is not None else float(area)
    node = PlanNode(kind="split", region=region, area=a, label=label, children=children)
    child_sum = sum(c.area for c in children)
    if abs(child_sum - a) > AREA_RTOL * max(a, 1.0):
        raise PlanError(
            f"split children do not tile {label!r}: {child_sum} vs {a}"
        )
    return node


def grid_node(region: Region, origin: tuple[float, float], rows: int, cols: int,
              label: str = "") -> PlanNode:
    return PlanNode(kind="grid", region=region, area=region_area(region),
                    label=label, origin=origin, rows=int(rows), cols=int(cols))


def stacks_node(region: Region | None, runs: list[StackRun],
                leftovers: list[PlanNode] | None = None, label: str = "",
                area: float | None = None, ledger: dict | None = None) -> PlanNode:
    a = region_area(region) if region is not None else float(area)
    floats = [(r.base.tx, r.base.ty, r.base.angle, *r.step, *r.pitch) for r in runs]
    return PlanNode(kind="stacks", region=region, area=a, label=label,
                    children=list(leftovers or []), runs=np.array(floats, float).reshape(-1, 7),
                    counts=tuple(r.count for r in runs), repeats=tuple(r.repeat for r in runs),
                    run_labels=tuple(r.label for r in runs), ledger=dict(ledger or {}))


def waste_node(region: Region, reason: str, label: str = "") -> PlanNode:
    return PlanNode(kind="waste", region=region, area=region_area(region),
                    label=label or reason, reason=reason)


@dataclass
class Plan:
    kind: str                 # "pack" | "cover"
    x: float                  # nominal scale of the target
    region: Region            # the target region
    root: PlanNode
    meta: dict = field(default_factory=dict)


@dataclass
class WasteReport:
    kind: str
    x: float
    area: float
    square_count: int
    waste_or_excess: float
    per_region: list[dict] = field(default_factory=list)
    ledger: dict = field(default_factory=dict)
    bound_constant: float | None = None
    bound_exponent: float | None = None
    bound_value: float | None = None
    passed: bool | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def account(plan: Plan) -> WasteReport:
    """Analytic accounting over the plan's `definitions`. For packing, waste = area - count;
    for covering, excess = count - area. Conservation is asserted once per definition, and
    an error names the path of its first use."""
    found, pack = definitions(plan.root), plan.kind == "pack"
    for d in found.values():
        n, tol = d.node, AREA_RTOL * max(d.node.area, 1.0)
        if n.kind not in NODE_KINDS:
            raise PlanError(f"{d.path}: unknown node kind {n.kind!r}")
        if not pack and n.kind == "waste":
            raise PlanError(f"{d.path}: covering plans cannot declare waste nodes")
        if n.kind == "split" and abs((child_sum := sum(c.area for c in n.children)) - n.area) > tol:
            raise PlanError(f"{d.path}: split children areas {child_sum} != {n.area}")
        if pack and n.area - d.count < -tol:
            raise PlanError(f"{d.path}: packing node holds {d.count} squares in area {n.area}")
    count, area = found[id(plan.root.children)].count, region_area(plan.region)
    value = area - count if pack else count - area
    if value < -AREA_RTOL * max(area, 1.0):
        raise PlanError(f"negative {plan.kind} balance: {value}")
    per = [{"label": c.label or c.kind, "area": c.area, "count": (k := found[id(c.children)].count),
            "balance": c.area - k if pack else k - c.area}
           for c in (plan.root.children if plan.root.kind == "split" else [plan.root])]
    return WasteReport(kind=plan.kind, x=plan.x, area=area, square_count=count,
                       waste_or_excess=value, per_region=per, ledger=dict(plan.root.ledger))


_SQRT2 = math.sqrt(2.0)

BOUND_TABLE = {
    # region class -> (constant, exponent); waste <= constant * x**exponent
    "square": (16.0 * _SQRT2 + 38.0, 5.0 / 8.0),
    "panel": ((15.0 + ASPECT_LIMIT) * _SQRT2 + 38.0, 5.0 / 8.0),
    "wedge": (19.0 / 2.0 + 7.0 * _SQRT2 / 2.0, 5.0 / 6.0),
    "shelf": (19.0 / 4.0 + 7.0 * _SQRT2 / 4.0, 1.0 / 3.0),
}


def check_bound(report: WasteReport, region_type: str) -> WasteReport:
    """Compare achieved waste/excess against the guaranteed growth bound;
    record the bound and the verdict on `report` and return it."""
    if region_type not in BOUND_TABLE:
        raise PlanError(f"unknown region type {region_type!r}")
    if report.waste_or_excess < -1e-6:
        raise PlanError(f"negative waste {report.waste_or_excess} signals an accounting bug")
    constant, exponent = BOUND_TABLE[region_type]
    report.bound_constant = constant
    report.bound_exponent = exponent
    report.bound_value = constant * report.x ** exponent
    report.passed = report.waste_or_excess <= report.bound_value
    return report


LATTICE_COLUMNS = ("bx", "by", "ang", "ux", "uy", "px", "py", "count", "repeat")


def plan_lattices(plan: Plan | PlanNode) -> dict[str, np.ndarray]:
    """Every grid and stack run of `plan`, in pre-order, as one arithmetic family of unit
    squares: columns `LATTICE_COLUMNS` indexed by lattice, base `bx`, `by`, angle `ang`, step
    `ux`, `uy` and pitch `px`, `py` as float64, `count` and `repeat` as int64. Lattice k holds
    squares (i, j), 0 <= i < count[k] and 0 <= j < repeat[k], row-major (j*count + i), each at
    `square_at`. A grid of rows x cols is (origin, 0, (1, 0) x cols, (0, 1) x rows); a run's
    base is folded into [-pi/2, pi/2] first. Empty families are left out. PlanError is raised
    unless the sizes add up to the analytic count and each count and repeat is below 2**63."""
    grids, uses, counts, repeats = [], [], [], []
    for node, frame in walk(root := plan.root if isinstance(plan, Plan) else plan):
        if node.kind == "grid":
            (ox, oy), rows, cols = _map_grid(node, *frame)
            if rows > 0 and cols > 0:
                grids.append((len(counts), ox, oy))
                counts.append(cols)
                repeats.append(rows)
        elif node.kind == "stacks":
            uses.append((node, *frame))
            counts += node.counts
            repeats += node.repeats
    floats = np.empty((len(counts), 7))
    at = [k for k, _, _ in grids]
    runs = np.ones(len(counts), bool)
    runs[at] = False
    floats[runs] = map_runs(uses)
    floats[at] = np.array([(ox, oy, 0.0, 1.0, 0.0, 0.0, 1.0) for _, ox, oy in grids]).reshape(-1, 7)
    keep = [n > 0 and m > 0 for n, m in zip(counts, repeats)]
    counts, repeats = list(compress(counts, keep)), list(compress(repeats, keep))
    if (big := max(counts + repeats, default=0)) >= 2 ** 63:
        raise PlanError(f"plan holds a lattice count or repeat of {big}; each must be below 2**63")
    floats = floats[np.array(keep, bool)]
    turned = np.flatnonzero(np.abs(floats[:, 2]) > math.pi / 2 + 1e-15)
    pose = floats[turned, :3]  # each turned row folded a quarter turn a pass, its base moved to
    tx, ty, a = pose.T         # the next corner by math.cos and math.sin: numpy's may differ
    for sign in (1.0, -1.0):
        while len(k := np.flatnonzero(sign * a > math.pi / 2 + 1e-15)):
            a[k] -= sign * math.pi / 2
            c, s = (np.fromiter(map(f, a[k].tolist()), float) for f in (math.cos, math.sin))
            tx[k], ty[k] = (tx[k] - c, ty[k] - s) if sign > 0 else (tx[k] + s, ty[k] - c)
    floats[turned, :3] = pose
    lat = dict(zip(LATTICE_COLUMNS, [*floats.T, np.array(counts, np.int64),
                                     np.array(repeats, np.int64)]))
    if (n := sum(lattice_sizes(lat))) != (total := root.total_count()):
        raise PlanError(f"enumerated {n} != analytic {total}")
    return lat


def lattice_sizes(lat: dict) -> list[int]:
    """Squares per lattice, as exact Python integers: an int64 product can wrap."""
    return [n * m for n, m in zip(lat["count"].tolist(), lat["repeat"].tolist())]


def square_at(lat: dict, k, i, j) -> tuple:
    """Base (x, y) of square (i, j) of lattice k: b + i*step + j*pitch."""
    return (lat["bx"][k] + i * lat["ux"][k] + j * lat["px"][k],
            lat["by"][k] + i * lat["uy"][k] + j * lat["py"][k])


def enumerate_placements(plan: Plan | PlanNode, limit: int = 10_000_000) -> np.ndarray:
    """The (N, 3) world poses (tx, ty, angle) of `plan_lattices(plan)`, lattice by lattice, each
    row-major; N is the analytic square count exactly. OverLimit when N is above `limit`."""
    if (count := sum(lattice_sizes(lat := plan_lattices(plan)))) > limit:
        raise OverLimit(f"plan holds {count} placements, limit {limit}")
    poses, end = np.empty((count, 3)), 0
    for k, (n, m) in enumerate(zip(lat["count"].tolist(), lat["repeat"].tolist())):
        block, end = poses[end:end + n * m].reshape(m, n, 3), end + n * m  # a view, row-major
        block[..., 2], i, rows = lat["ang"][k], np.arange(n), max(1, (1 << 15) // n)
        for j in range(0, m, rows):  # 2**15 squares or one row at a time: temporaries stay in cache
            part = block[j:j + rows]
            part[..., 0], part[..., 1] = square_at(lat, k, i, np.arange(j, j + len(part))[:, None])
    return poses


# ---------------------------------------------------------------------------
# grafting: builders work in their own local coordinates and record on each
# child the (frame, mirror) map into the parent's coordinates; repeated
# grafts of one node compose in O(1), and `walk` composes them down the tree.
# A (frame, mirror) map reflects across local x = 0 when `mirror` is set,
# then applies the rigid frame. A region keeps its kind and dims and takes the
# composed graft as its frame. Unit squares are achiral, so a mirrored square
# placement is re-expressed as a proper rotation.

def _map_grid(node: PlanNode, frame: Pose, mirror: bool) -> tuple[tuple, int, int]:
    """The world origin, rows and cols of grid `node` under (frame, mirror). An origin
    (x, y) goes to (tx + (c*x' - s*y), ty + (s*x' + c*y)) with x' = sx*x, sx = -1 under a
    mirror, for both opposite corners of the block; lattice bytes depend on this order."""
    tx, ty, fa = frame.tx, frame.ty, frame.angle
    k = round(fa / (math.pi / 2))
    if abs(fa - k * math.pi / 2) > 1e-9:
        raise PlanError("grids only survive quarter-turn frames")
    c, s = math.cos(fa), math.sin(fa)
    sx = -1.0 if mirror else 1.0
    # opposite corners of the block land on opposite corners of its image
    (ox, oy), rows, cols = node.origin, node.rows, node.cols
    x1, y1, x2, y2 = sx * ox, oy, sx * (ox + cols), oy + rows
    origin = (min(tx + (c * x1 - s * y1), tx + (c * x2 - s * y2)),
              min(ty + (s * x1 + c * y1), ty + (s * x2 + c * y2)))
    return (origin, cols, rows) if k % 2 != 0 else (origin, rows, cols)


def map_runs(uses: list[tuple[PlanNode, Pose, bool]]) -> np.ndarray:
    """The run columns of each (node, frame, mirror) of `uses` mapped by (frame, mirror),
    all rows in one pass, stacked in the order of `uses`.

    c and s are `math.cos` and `math.sin` of each frame's angle. A base (x, y) goes to
    (tx + (c*x' - s*y), ty + (s*x' + c*y)) with x' = sx*x, sx = -1 under a mirror; a step
    or pitch drops the translation; an angle a goes to fa + a, or to fa + (pi/2 - a) under a
    mirror, which re-anchors a reflected square at its other bottom corner. numpy's + - *
    round as Python's do, so lattice bytes depend only on this operation order.
    """
    sizes = [len(node.runs) for node, _, _ in uses]
    frames = np.array([(f.tx, f.ty, f.angle, math.cos(f.angle), math.sin(f.angle),
                        -1.0 if m else 1.0) for _, f, m in uses]).reshape(-1, 6)
    tx, ty, fa, c, s, sx = frames.repeat(sizes, axis=0).T
    bx, by, a, ux, uy, px, py = np.concatenate([NO_RUNS] + [n.runs for n, _, _ in uses]).T
    bx, ux, px = sx * bx, sx * ux, sx * px
    return np.stack([tx + (c * bx - s * by), ty + (s * bx + c * by),
                     fa + np.where(sx < 0.0, math.pi / 2 - a, a),
                     c * ux - s * uy, s * ux + c * uy, c * px - s * py, s * px + c * py], axis=1)


# ---------------------------------------------------------------------------
# serialization (deterministic: stable key order, repr-float round trip).

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def _region_dict(r: Region | None) -> dict | None:
    if r is None:
        return None
    return {"dims": list(r.dims), "frame": [r.frame.tx, r.frame.ty, r.frame.angle],
            "kind": r.kind, "mirror": r.mirror}


def _use(written: dict, n: PlanNode) -> dict:
    """`n` as its parent writes it: its definition's dict, with its graft if it has one."""
    d = written[id(n.children)]
    if n.graft is not None:
        (f, m) = n.graft
        d = dict(d) if "def" in d else d  # each use of a definition writes its own
        d["graft"] = [f.tx, f.ty, f.angle, m]
    return d


def _finite(values, what: str):
    """`values`, all finite numbers: a number that overflows, such as 1e400, loads
    as inf, past `parse_constant`, and `math.isfinite(True)` holds of a bool."""
    if not all(map(math.isfinite, values)):
        raise PlanError(f"non-finite number in plan {what}: {values}")
    if bool in map(type, values):
        raise PlanError(f"plan {what} must be numbers, not bools: {values}")
    return values


_JSON = {bool: "true or false", str: "a string", int: "an integer >= 0", float: "a finite number"}


def _json(v, kind: type, what: str):
    """`v` if it is `_JSON[kind]` in JSON (a bool is no number), else PlanError."""
    if not (type(v) in (int, float) and math.isfinite(v) if kind is float
            else type(v) is kind and (kind is not int or v >= 0)):
        raise PlanError(f"plan {what} must be {_JSON[kind]}, got {v!r}")
    return v


def _region_from_dict(d) -> Region | None:
    if d is None:
        return None
    make = {"rect": rect_region, "trap": trap_region, "tri": tri_region}.get(d["kind"])
    if make is None:
        raise PlanError(f"unknown region kind {d['kind']!r}")
    return make(*_finite(d["dims"], "region dims"), Pose(*_finite(d["frame"], "region frame")),
                _json(d["mirror"], bool, "region mirror"))


def _runs_from_lists(node: PlanNode, rows) -> None:
    """Fill the run columns of `node` from its plan rows, each checked first."""
    for v in rows:
        if len(v) != 10:
            raise PlanError(f"plan run must have 10 fields, got {len(v)}: {v}")
        _finite(v[:9], "run")
        _json(v[5], int, "run count")
        _json(v[6], int, "run repeat")
        _json(v[9], str, "run label")
    node.runs = np.array([v[:5] + v[7:9] for v in rows], float).reshape(-1, 7)
    node.counts, node.repeats, node.run_labels = (
        tuple(zip(*[(v[5], v[6], v[9]) for v in rows])) or ((), (), ()))


def _node_from_dict(d: dict, defs: list[PlanNode]) -> PlanNode:
    """The node of `d`: a use of one of `defs`, a shallow copy as a memoised builder's
    caller gets it, or a node of its own; either may carry a graft."""
    if "def" in d:
        if set(d) - {"def", "graft"}:
            raise PlanError(f"plan use has keys other than def and graft: {sorted(d)}")
        if (k := _json(d["def"], int, "use def")) >= len(defs):
            raise PlanError(f"plan use names definition {k}, not one defined before it")
        node = copy.copy(defs[k])
    else:
        node = PlanNode(kind=(kind := d["kind"]), region=_region_from_dict(d["region"]),
                        area=_json(d["area"], float, "node area"),
                        label=_json(d["label"], str, "node label"))
        if kind == "split":
            node.children = [_node_from_dict(c, defs) for c in d["children"]]
        elif kind == "grid":
            node.origin = tuple(_finite(d["origin"], "grid origin"))
            if len(node.origin) != 2:
                raise PlanError(f"plan grid origin must be 2 numbers, got {d['origin']}")
            node.rows = _json(d["rows"], int, "grid rows")
            node.cols = _json(d["cols"], int, "grid cols")
        elif kind == "stacks":
            _runs_from_lists(node, d["runs"])
            node.children = [_node_from_dict(c, defs) for c in d["leftovers"]]
            node.ledger = d["ledger"]
        elif kind == "waste":
            node.reason = _json(d["reason"], str, "waste reason")
        else:
            raise PlanError(f"unknown node kind {kind!r}")
    if "graft" in d:
        g = d["graft"]
        if type(g) is not list or len(g) != 4:
            raise PlanError(f"plan graft must be [tx, ty, angle, mirror], got {g!r}")
        node.graft = (Pose(*(_json(v, float, "graft") for v in g[:3])),
                      _json(g[3], bool, "graft mirror"))
    return node


def plan_from_dict(d: dict) -> Plan:
    """The plan of a version 1, 2 or 3 dict; a version 1 or 2 tree has no grafts and
    shares nothing. A definition may use only those before it, so none uses itself."""
    if d.get("version") not in (1, 2, 3) or type(d["version"]) is not int:  # True == 1 == 1.0
        raise PlanError(f"unsupported plan version {d.get('version')!r}")
    if d.get("kind") not in ("pack", "cover"):
        raise PlanError(f"plan kind must be 'pack' or 'cover', got {d.get('kind')!r}")
    region = _region_from_dict(d["region"])
    if region is None:
        raise PlanError("plan has no target region")
    defs: list[PlanNode] = []
    for body in d["defs"] if d["version"] == 3 else []:
        if "def" in body or "graft" in body:
            raise PlanError("a plan definition must be a node with no graft")
        defs.append(_node_from_dict(body, defs))
    return Plan(kind=d["kind"], x=_json(d["x"], float, "x"), region=region,
                root=_node_from_dict(d["root"], defs), meta=d["meta"])


def dumps_stable(obj) -> str:
    """Canonical JSON: sorted keys, minimal separators, trailing newline."""
    return _dumps(obj) + "\n"


@gc_paused()
def plan_to_json(plan: Plan) -> str:
    """The version 3 text of `plan`, `dumps_stable` of its dict. A node that more than one place
    holds is a definition; it joins `defs` as it finishes, so each uses only earlier ones."""
    written, defs = {}, []  # id(children) -> the dict a use of it writes, before its graft
    for key, d in definitions(plan.root).items():
        n = d.node
        body = {"area": n.area, "kind": n.kind, "label": n.label, "region": _region_dict(n.region)}
        if n.kind == "split":
            body["children"] = [_use(written, c) for c in n.children]
        elif n.kind == "grid":
            body.update(origin=list(n.origin), rows=n.rows, cols=n.cols)
        elif n.kind == "stacks":
            body["leftovers"] = [_use(written, c) for c in n.children]
            body["ledger"] = n.ledger
            body["runs"] = [[*v[:5], c, m, *v[5:], label] for v, c, m, label
                            in zip(n.runs.tolist(), n.counts, n.repeats, n.run_labels)]
        elif n.kind == "waste":
            body["reason"] = n.reason
        if d.holds > 1:
            defs.append(body)
            body = {"def": len(defs) - 1}
        written[key] = body
    return dumps_stable({"defs": defs, "kind": plan.kind, "meta": plan.meta, "version": 3,
                         "region": _region_dict(plan.region), "root": _use(written, plan.root),
                         "x": plan.x})


def _non_finite(name: str):
    raise PlanError(f"non-finite number {name} in plan")


def plan_from_json(text: str) -> Plan:
    """The plan of `text`; NaN and infinities are refused, as the writer refuses them."""
    with gc_paused():
        return plan_from_dict(json.loads(text, parse_constant=_non_finite))
