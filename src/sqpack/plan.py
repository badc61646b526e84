"""Plan trees: region decompositions with grid, stack-run and waste leaves.

A plan is immutable once built. Accounting (areas, counts, waste/excess)
is analytic and never requires materialising placements. Every grid and
stack run is one lattice of unit squares; `plan_lattices` lists them as
one table of columns at any count, the counts as exact integers, and
`square_at` places each square for enumeration and the verifier alike.

Node kinds:
  split   -- children tile the node's region (checked by area, not geometry)
  grid    -- rows x cols axis-aligned unit squares anchored at `origin`
  stacks  -- tilted stack runs plus leftover sub-plans; `region` may be None
             for chain nodes whose exact footprint spans several rectangles,
             in which case `area` is declared explicitly
  waste   -- region conceded by the construction (packing only)

Stack runs are arithmetic families: `count` squares step apart along the
stack, repeated `repeat` times `pitch` apart. A single run is repeat == 1.

Builders work in local frames, and a built subtree is never changed once
its builder returns, so one definition may hang under several parents. A
node may carry a pending `graft` (its local-to-parent map); `resolve_grafts`
maps every use of every node into a new world-coordinate tree, once,
top-down, and leaves the local tree as it was.

Plan files are format version 2. Version 1 also held seam segments and
per-node overshoot regions, which nothing read; the reader still accepts
it and drops them.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .config import ASPECT_LIMIT
from .geometry import (
    IDENTITY, Pose, Region, compose_graft, fold_square_pose, rect_region, region_area,
    trap_region, tri_region,
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

    @property
    def total(self) -> int:
        return self.count * self.repeat


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
    runs: list[StackRun] = field(default_factory=list)
    reason: str = ""
    ledger: dict = field(default_factory=dict)
    graft: tuple[Pose, bool] | None = None  # pending (frame, mirror) into the parent

    def own_count(self) -> int:
        if self.kind == "grid":
            return self.rows * self.cols
        if self.kind == "stacks":
            return sum(r.total for r in self.runs)
        return 0

    def total_count(self) -> int:
        return self.own_count() + sum(c.total_count() for c in self.children)


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
    return PlanNode(kind="stacks", region=region, area=a, label=label,
                    children=list(leftovers or []), runs=list(runs),
                    ledger=dict(ledger or {}))


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


def _check_node(node: PlanNode, kind: str, path: str) -> tuple[int, list[int]]:
    """Assert conservation at `node` and below in one walk; return the
    subtree's square count and the count of each child subtree."""
    if node.kind not in NODE_KINDS:
        raise PlanError(f"{path}: unknown node kind {node.kind!r}")
    if kind == "cover" and node.kind == "waste":
        raise PlanError(f"{path}: covering plans cannot declare waste nodes")
    if node.kind == "split":
        child_sum = sum(c.area for c in node.children)
        if abs(child_sum - node.area) > AREA_RTOL * max(node.area, 1.0):
            raise PlanError(f"{path}: split children areas {child_sum} != {node.area}")
    parts = [_check_node(c, kind, f"{path}.{i}")[0] for i, c in enumerate(node.children)]
    count = node.own_count() + sum(parts)
    if kind == "pack" and node.area - count < -AREA_RTOL * max(node.area, 1.0):
        raise PlanError(f"{path}: packing node holds {count} squares in area {node.area}")
    return count, parts


def account(plan: Plan) -> WasteReport:
    """Bottom-up analytic accounting. For packing, waste = area - count; for
    covering, excess = count - area. Conservation is asserted at every node."""
    count, parts = _check_node(plan.root, plan.kind, "root")
    area = region_area(plan.region)
    if plan.kind == "pack":
        value = area - count
    else:
        value = count - area
    if value < -AREA_RTOL * max(area, 1.0):
        raise PlanError(f"negative {plan.kind} balance: {value}")
    per = []
    tops = zip(plan.root.children, parts) if plan.root.kind == "split" else [(plan.root, count)]
    for child, c in tops:
        entry = {
            "label": child.label or child.kind,
            "area": child.area,
            "count": c,
            "balance": (child.area - c) if plan.kind == "pack" else (c - child.area),
        }
        per.append(entry)
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


def _collect_lattices(node: PlanNode, floats: list, ints: list) -> int:
    """Add the columns of the lattices of `node` and below; return their analytic count."""
    if node.kind == "grid" and node.rows > 0 and node.cols > 0:
        floats += (node.origin[0], node.origin[1], 0.0, 1.0, 0.0, 0.0, 1.0)
        ints += (node.cols, node.rows)
    elif node.kind == "stacks":
        for run in node.runs:
            if run.count > 0 and run.repeat > 0:
                b = fold_square_pose(run.base)
                floats += (b.tx, b.ty, b.angle, *run.step, *run.pitch)
                ints += (run.count, run.repeat)
    return node.own_count() + sum(_collect_lattices(c, floats, ints) for c in node.children)


LATTICE_COLUMNS = ("bx", "by", "ang", "ux", "uy", "px", "py", "count", "repeat")


def plan_lattices(plan: Plan | PlanNode) -> dict[str, np.ndarray]:
    """Every grid and stack run of `plan`, in pre-order, as one arithmetic family of unit
    squares: columns `LATTICE_COLUMNS` indexed by lattice, base `bx`, `by`, angle `ang`, step
    `ux`, `uy` and pitch `px`, `py` as float64, `count` and `repeat` as int64. Lattice k holds
    squares (i, j), 0 <= i < count[k] and 0 <= j < repeat[k], row-major (j*count + i), each at
    `square_at`. A grid of rows x cols is (origin, 0, (1, 0) x cols, (0, 1) x rows); a run's
    base is folded into [-pi/2, pi/2] first. Empty families are left out. PlanError is raised
    unless the sizes add up to the analytic count and each count and repeat is below 2**63."""
    floats, ints = [], []  # the 7 float columns, then count and repeat, of each lattice
    count = _collect_lattices(plan.root if isinstance(plan, Plan) else plan, floats, ints)
    if (big := max(ints, default=0)) >= 2 ** 63:
        raise PlanError(f"plan holds a lattice count or repeat of {big}; each must be below 2**63")
    lat = dict(zip(LATTICE_COLUMNS, [*np.array(floats, dtype=float).reshape(-1, 7).T,
                                     *np.array(ints, dtype=np.int64).reshape(-1, 2).T]))
    if (total := sum(lattice_sizes(lat))) != count:
        raise PlanError(f"enumerated {total} != analytic {count}")
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
# grafts of one node compose in O(1). A (frame, mirror) map reflects across
# local x = 0 when `mirror` is set, then applies the rigid frame. A region
# keeps its kind and dims and takes the composed graft as its frame. Unit
# squares are achiral, so a mirrored square placement is re-expressed as a
# proper rotation.

def map_node(node: PlanNode, frame: Pose, mirror: bool) -> PlanNode:
    """A new node: `node` with its own geometry (not its children) mapped by
    (frame, mirror), no graft, no children yet, and its own runs list and
    ledger. `node` is left as it is.

    The region's frame composes with (frame, mirror) by `compose_graft`. A
    grid origin or run point (x, y) goes to (tx + (c*x' - s*y), ty + (s*x' +
    c*y)) with x' = sx*x, sx = -1 under a mirror; a vector drops the
    translation. Plan bytes depend on the operation order of both.
    """
    tx, ty, fa = frame.tx, frame.ty, frame.angle
    c, s = math.cos(fa), math.sin(fa)
    sx = -1.0 if mirror else 1.0
    r = node.region
    region = None if r is None else Region(
        r.kind, r.dims, *compose_graft((frame, mirror), (r.frame, r.mirror)))
    origin, rows, cols = node.origin, node.rows, node.cols
    if node.kind == "grid":
        k = round(fa / (math.pi / 2))
        if abs(fa - k * math.pi / 2) > 1e-9:
            raise PlanError("grids only survive quarter-turn frames")
        # opposite corners of the block land on opposite corners of its image
        ox, oy = origin
        x1, y1, x2, y2 = sx * ox, oy, sx * (ox + cols), oy + rows
        origin = (min(tx + (c * x1 - s * y1), tx + (c * x2 - s * y2)),
                  min(ty + (s * x1 + c * y1), ty + (s * x2 + c * y2)))
        if k % 2 != 0:
            rows, cols = cols, rows
    runs = []  # only stacks nodes hold runs
    for r in node.runs:
        b, (ux, uy), (px, py) = r.base, r.step, r.pitch
        bx, by, ux, px = sx * b.tx, b.ty, sx * ux, sx * px
        # a reflected square is re-anchored at its other bottom corner
        angle = fa + (math.pi / 2 - b.angle if mirror else b.angle)
        runs.append(StackRun(Pose(tx + (c * bx - s * by), ty + (s * bx + c * by), angle),
                             (c * ux - s * uy, s * ux + c * uy), r.count, r.repeat,
                             (c * px - s * py, s * px + c * py), r.label))
    ledger = {k: list(v) if isinstance(v, list) else v for k, v in node.ledger.items()}
    return PlanNode(node.kind, region, node.area, node.label, [], origin, rows, cols, runs,
                    node.reason, ledger)


def resolve_grafts(root: PlanNode) -> PlanNode:
    """The world tree of the local tree `root`: every use of every node mapped
    once, top-down, with no pending graft. No local node is changed, and each
    one the caller no longer holds is freed once its last use is mapped."""
    top: list[PlanNode] = []
    stack = [(root, (IDENTITY, False), top)]
    del root
    while stack:
        node, outer, siblings = stack.pop()
        frame = outer if node.graft is None else compose_graft(outer, node.graft)
        world = map_node(node, *frame)
        siblings.append(world)
        stack.extend((c, frame, world.children) for c in reversed(node.children))
    return top[0]


# ---------------------------------------------------------------------------
# serialization (deterministic: stable key order, repr-float round trip).
# `plan_to_json` writes what `dumps_stable` writes for the plan's dict, straight
# from the tree, and formats each distinct float and string once per plan.

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


class _Texts(dict):
    """The JSON text of each distinct nonzero float and string of a plan; zeros
    and ints stay out, as 0.0 and -0.0 are one key with two texts, and 1 == 1.0."""

    def __missing__(self, v) -> str:
        if type(v) is not str and not math.isfinite(v):
            raise ValueError("Out of range float values are not JSON compliant")
        text = self[v] = encode_basestring_ascii(v) if type(v) is str else float.__repr__(v)
        return text

    def text(self, v) -> str:
        t = type(v)
        if (t is float and v) or t is str:
            return self[v]
        if t is bool:
            return "true" if v else "false"
        return float.__repr__(v) if t is float else int.__repr__(v) if t is int else _dumps(v)


def _slots(n: int) -> str:
    return ",".join(["%s"] * n)


@dataclass
class _PlanWriter:
    """Format strings with a %s per scalar, and the scalars, filled whenever a
    node ends with more than FILL scalars pending."""

    FILL = 1 << 16
    fmt: list = field(default_factory=list)
    args: list = field(default_factory=list)
    out: list = field(default_factory=list)
    texts: _Texts = field(default_factory=_Texts)

    def fill(self) -> None:
        texts = self.texts
        self.out.append("".join(self.fmt) % tuple(
            [texts[v] if type(v) is float and v else texts.text(v) for v in self.args]))
        self.fmt.clear()
        self.args.clear()

    def region(self, r: Region | None) -> None:
        if r is None:
            self.fmt.append("null")
        else:
            self.fmt.append(f'{{"dims":[{_slots(len(r.dims))}],"frame":[%s,%s,%s],"kind":%s'
                            ',"mirror":%s}')
            self.args += (*r.dims, r.frame.tx, r.frame.ty, r.frame.angle, r.kind, r.mirror)

    def nodes(self, nodes: list[PlanNode]) -> None:
        for i, n in enumerate(nodes):
            self.fmt.append("," if i else "")
            self.node(n)

    def node(self, n: PlanNode) -> None:
        """Write `n`: a split with its children, a stacks node with its leftovers."""
        fmt, args = self.fmt, self.args
        fmt.append('{"area":%s,')
        args.append(n.area)
        if n.kind == "split":
            fmt.append('"children":[')
            self.nodes(n.children)
            fmt.append('],"kind":"split","label":%s,"region":')
            args.append(n.label)
        elif n.kind == "grid":
            fmt.append(f'"cols":%s,"kind":"grid","label":%s,"origin":[{_slots(len(n.origin))}]'
                       ',"region":')
            args += (n.cols, n.label, *n.origin)
        elif n.kind == "stacks":
            ledger = _dumps(n.ledger).replace("%", "%%")
            fmt.append(f'"kind":"stacks","label":%s,"ledger":{ledger},"leftovers":[')
            args.append(n.label)
            self.nodes(n.children)
            fmt.append('],"region":')
        elif n.kind == "waste":
            fmt.append('"kind":"waste","label":%s,"reason":%s,"region":')
            args += (n.label, n.reason)
        else:
            fmt.append('"kind":%s,"label":%s,"region":')
            args += (n.kind, n.label)
        self.region(n.region)
        if n.kind == "grid":
            fmt.append(',"rows":%s}')
            args.append(n.rows)
        elif n.kind == "stacks":
            fmt.append(f',"runs":[{",".join(["[%s,%s,%s,%s,%s,%s,%s,%s,%s,%s]"] * len(n.runs))}]}}')
            for r in n.runs:
                args += (r.base.tx, r.base.ty, r.base.angle, r.step[0], r.step[1], r.count,
                         r.repeat, r.pitch[0], r.pitch[1], r.label)
        else:
            fmt.append("}")
        if len(args) > self.FILL:
            self.fill()


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


def _run_from_list(v) -> StackRun:
    if len(v) != 10:
        raise PlanError(f"plan run must have 10 fields, got {len(v)}: {v}")
    _finite(v[:9], "run")
    return StackRun(base=Pose(v[0], v[1], v[2]), step=(v[3], v[4]),
                    count=_json(v[5], int, "run count"), repeat=_json(v[6], int, "run repeat"),
                    pitch=(v[7], v[8]), label=_json(v[9], str, "run label"))


def _node_from_dict(d: dict) -> PlanNode:
    kind = d["kind"]
    region = _region_from_dict(d["region"])
    node = PlanNode(kind=kind, region=region, area=_json(d["area"], float, "node area"),
                    label=_json(d["label"], str, "node label"))
    if kind == "split":
        node.children = [_node_from_dict(c) for c in d["children"]]
    elif kind == "grid":
        node.origin = tuple(_finite(d["origin"], "grid origin"))
        if len(node.origin) != 2:
            raise PlanError(f"plan grid origin must be 2 numbers, got {d['origin']}")
        node.rows = _json(d["rows"], int, "grid rows")
        node.cols = _json(d["cols"], int, "grid cols")
    elif kind == "stacks":
        node.runs = [_run_from_list(v) for v in d["runs"]]
        node.children = [_node_from_dict(c) for c in d["leftovers"]]
        node.ledger = d["ledger"]
    elif kind == "waste":
        node.reason = _json(d["reason"], str, "waste reason")
    else:
        raise PlanError(f"unknown node kind {kind!r}")
    return node


def plan_from_dict(d: dict) -> Plan:
    if d.get("version") not in (1, 2) or type(d["version"]) is not int:  # True == 1 == 1.0
        raise PlanError(f"unsupported plan version {d.get('version')!r}")
    if d.get("kind") not in ("pack", "cover"):
        raise PlanError(f"plan kind must be 'pack' or 'cover', got {d.get('kind')!r}")
    region = _region_from_dict(d["region"])
    if region is None:
        raise PlanError("plan has no target region")
    return Plan(kind=d["kind"], x=_json(d["x"], float, "x"), region=region,
                root=_node_from_dict(d["root"]), meta=d["meta"])


def dumps_stable(obj) -> str:
    """Canonical JSON: sorted keys, minimal separators, trailing newline."""
    return _dumps(obj) + "\n"


def plan_to_json(plan: Plan) -> str:
    with gc_paused():
        w = _PlanWriter()
        w.fmt.append(f'{{"kind":%s,"meta":{_dumps(plan.meta).replace("%", "%%")},"region":')
        w.args.append(plan.kind)
        w.region(plan.region)
        w.fmt.append(',"root":')
        w.node(plan.root)
        w.fmt.append(',"version":2,"x":%s}\n')
        w.args.append(plan.x)
        w.fill()
        return "".join(w.out)


def _non_finite(name: str):
    raise PlanError(f"non-finite number {name} in plan")


def plan_from_json(text: str) -> Plan:
    """The plan of `text`; NaN and infinities are refused, as the writer refuses them."""
    with gc_paused():
        return plan_from_dict(json.loads(text, parse_constant=_non_finite))
