"""Plan trees: region decompositions with grid, stack-run and waste leaves.

A plan is immutable once built. Accounting (areas, counts, waste/excess)
is analytic and never requires materialising placements. Every grid and
stack run is one lattice of unit squares (`plan_lattices`), at any
count; enumeration expands the lattices into explicit world-frame poses
when the total count is small enough.

Node kinds:
  split   -- children tile the node's region (checked by area, not geometry)
  grid    -- rows x cols axis-aligned unit squares anchored at `origin`
  stacks  -- tilted stack runs plus leftover sub-plans; `region` may be None
             for chain nodes whose exact footprint spans several rectangles,
             in which case `area` is declared explicitly
  waste   -- region conceded by the construction (packing only)

Stack runs are arithmetic families: `count` squares step apart along the
stack, repeated `repeat` times `pitch` apart. A single run is repeat == 1.

Builders work in local frames. While a plan is built, a node may carry a
pending `graft` (its local-to-parent map) and its own `seams` in local
coordinates; `resolve_grafts` maps every node into world coordinates
once, top-down, and clears both.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ASPECT_LIMIT
from .geometry import IDENTITY, Pose, Region, compose_graft, fold_square_pose, region_area

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
    overshoot: list[Region] = field(default_factory=list)  # cover plans: conceded outside area
    ledger: dict = field(default_factory=dict)
    graft: tuple[Pose, bool] | None = None  # pending (frame, mirror) into the parent
    seams: list = field(default_factory=list)  # own seam segments, local, while building

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
                area: float | None = None, overshoot: list[Region] | None = None,
                ledger: dict | None = None) -> PlanNode:
    a = region_area(region) if region is not None else float(area)
    return PlanNode(kind="stacks", region=region, area=a, label=label,
                    children=list(leftovers or []), runs=list(runs),
                    overshoot=list(overshoot or []), ledger=dict(ledger or {}))


def waste_node(region: Region, reason: str, label: str = "") -> PlanNode:
    return PlanNode(kind="waste", region=region, area=region_area(region),
                    label=label or reason, reason=reason)


@dataclass
class Plan:
    kind: str                 # "pack" | "cover"
    x: float                  # nominal scale of the target
    region: Region            # the target region
    root: PlanNode
    seams: list[tuple[float, float, float, float]] = field(default_factory=list)
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


def _subtree_counts(node: PlanNode, out: dict) -> int:
    """Post-order: square count of every subtree, keyed by node id."""
    n = node.own_count() + sum(_subtree_counts(c, out) for c in node.children)
    out[id(node)] = n
    return n


def _check_node(node: PlanNode, kind: str, path: str, counts: dict) -> None:
    if node.kind not in NODE_KINDS:
        raise PlanError(f"{path}: unknown node kind {node.kind!r}")
    count = counts[id(node)]
    if kind == "pack":
        slack = node.area - count
        if slack < -AREA_RTOL * max(node.area, 1.0):
            raise PlanError(f"{path}: packing node holds {count} squares in area {node.area}")
    else:
        if node.kind == "waste":
            raise PlanError(f"{path}: covering plans cannot declare waste nodes")
    if node.kind == "split":
        child_sum = sum(c.area for c in node.children)
        if abs(child_sum - node.area) > AREA_RTOL * max(node.area, 1.0):
            raise PlanError(f"{path}: split children areas {child_sum} != {node.area}")
    for i, c in enumerate(node.children):
        _check_node(c, kind, f"{path}.{i}", counts)


def account(plan: Plan) -> WasteReport:
    """Bottom-up analytic accounting. For packing, waste = area - count; for
    covering, excess = count - area. Conservation is asserted at every node."""
    counts: dict = {}
    count = _subtree_counts(plan.root, counts)
    _check_node(plan.root, plan.kind, "root", counts)
    area = region_area(plan.region)
    if plan.kind == "pack":
        value = area - count
    else:
        value = count - area
    if value < -AREA_RTOL * max(area, 1.0):
        raise PlanError(f"negative {plan.kind} balance: {value}")
    per = []
    for child in (plan.root.children if plan.root.kind == "split" else [plan.root]):
        c = counts[id(child)]
        entry = {
            "label": child.label or child.kind,
            "area": child.area,
            "count": c,
            "balance": (child.area - c) if plan.kind == "pack" else (c - child.area),
        }
        per.append(entry)
    ledger = dict(plan.root.ledger)
    ledger.update(plan.meta.get("ledger", {}))
    return WasteReport(kind=plan.kind, x=plan.x, area=area, square_count=count,
                       waste_or_excess=value, per_region=per, ledger=ledger)


@dataclass(frozen=True)
class BoundCheck:
    constant: float
    exponent: float
    bound_value: float
    passed: bool


_SQRT2 = math.sqrt(2.0)

BOUND_TABLE = {
    # region class -> (constant, exponent); waste <= constant * x**exponent
    "square": (16.0 * _SQRT2 + 38.0, 5.0 / 8.0),
    "panel": ((15.0 + ASPECT_LIMIT) * _SQRT2 + 38.0, 5.0 / 8.0),
    "wedge": (19.0 / 2.0 + 7.0 * _SQRT2 / 2.0, 5.0 / 6.0),
    "shelf": (19.0 / 4.0 + 7.0 * _SQRT2 / 4.0, 1.0 / 3.0),
}


def check_bound(report: WasteReport, region_type: str) -> BoundCheck:
    """Compare achieved waste/excess against the guaranteed growth bound."""
    if region_type not in BOUND_TABLE:
        raise PlanError(f"unknown region type {region_type!r}")
    if report.waste_or_excess < -1e-6:
        raise PlanError(f"negative waste {report.waste_or_excess} signals an accounting bug")
    constant, exponent = BOUND_TABLE[region_type]
    bound_value = constant * report.x ** exponent
    passed = report.waste_or_excess <= bound_value
    report.bound_constant = constant
    report.bound_exponent = exponent
    report.bound_value = bound_value
    report.passed = passed
    return BoundCheck(constant=constant, exponent=exponent,
                      bound_value=bound_value, passed=passed)


@dataclass(frozen=True)
class Lattices:
    """Every grid and stack run of a plan as one arithmetic family of unit
    squares, in pre-order. Square (i, j) of lattice k, 0 <= i < count[k] and
    0 <= j < repeat[k], has the pose (base[k, :2] + i*step[k] + j*pitch[k],
    base[k, 2]); a lattice lists its squares row-major, j*count + i.

    A grid of rows x cols is (origin, 0, (1, 0) x cols, (0, 1) x rows); a
    run's base is folded into [-pi/2, pi/2] first. Empty families are left out.
    """

    base: np.ndarray    # (L, 3) tx, ty, angle
    step: np.ndarray    # (L, 2)
    count: np.ndarray   # (L,) int64
    pitch: np.ndarray   # (L, 2)
    repeat: np.ndarray  # (L,) int64

    def __len__(self) -> int:
        return len(self.count)

    def sizes(self) -> list[int]:
        """Squares per lattice, as exact Python integers."""
        return [n * m for n, m in zip(self.count.tolist(), self.repeat.tolist())]

    def poses(self) -> np.ndarray:
        """Flat (N, 3) array of world poses (tx, ty, angle), lattice by
        lattice, each row-major."""
        poses = np.empty((sum(self.sizes()), 3))
        end = 0
        for (bx, by, angle), (ux, uy), n, (px, py), m in zip(
                self.base.tolist(), self.step.tolist(), self.count.tolist(),
                self.pitch.tolist(), self.repeat.tolist()):
            i = np.arange(n)
            j = np.arange(m)[:, None]
            start, end = end, end + n * m
            poses[start:end, 0] = (bx + i * ux + j * px).ravel()
            poses[start:end, 1] = (by + i * uy + j * py).ravel()
            poses[start:end, 2] = angle
        return poses


def _collect_lattices(node: PlanNode, out: list[tuple]) -> None:
    if node.kind == "grid" and node.rows > 0 and node.cols > 0:
        ox, oy = node.origin
        out.append((ox, oy, 0.0, 1.0, 0.0, node.cols, 0.0, 1.0, node.rows))
    elif node.kind == "stacks":
        for run in node.runs:
            if run.count > 0 and run.repeat > 0:
                b = fold_square_pose(run.base)
                out.append((b.tx, b.ty, b.angle, *run.step, run.count, *run.pitch, run.repeat))
    for c in node.children:
        _collect_lattices(c, out)


def plan_lattices(plan: Plan | PlanNode) -> Lattices:
    """The lattices of `plan`, at any square count; their sizes add up to
    the analytic count exactly, or PlanError is raised."""
    root = plan.root if isinstance(plan, Plan) else plan
    count = root.total_count()
    rows: list[tuple] = []
    _collect_lattices(root, rows)
    table = np.array(rows, dtype=float).reshape(-1, 9)
    lat = Lattices(table[:, 0:3], table[:, 3:5], table[:, 5].astype(np.int64),
                   table[:, 6:8], table[:, 8].astype(np.int64))
    total = sum(lat.sizes())
    if total != count:
        raise PlanError(f"enumerated {total} != analytic {count}")
    return lat


def enumerate_placements(plan: Plan | PlanNode, limit: int = 10_000_000) -> np.ndarray:
    """The (N, 3) world poses `plan_lattices(plan).poses()`; N equals the
    analytic square count exactly. Raises OverLimit when N is above `limit`."""
    lat = plan_lattices(plan)
    count = sum(lat.sizes())
    if count > limit:
        raise OverLimit(f"plan holds {count} placements, limit {limit}")
    return lat.poses()


# ---------------------------------------------------------------------------
# grafting: builders work in their own local coordinates and record on each
# child the (frame, mirror) map into the parent's coordinates; repeated
# grafts of one node compose in O(1). A (frame, mirror) map reflects across
# local x = 0 when `mirror` is set, then applies the rigid frame. Unit
# squares are achiral, so a mirrored square placement is re-expressed as a
# proper rotation.

def _map_region(r: Region, frame: Pose, c: float, s: float, mirror: bool) -> Region:
    """`r` under (frame, mirror), composed as `compose_graft` composes; c and s
    are the cosine and sine of the frame's angle."""
    f = r.frame
    rx, ra = (-f.tx, -f.angle) if mirror else (f.tx, f.angle)
    pose = Pose(frame.tx + c * rx - s * f.ty, frame.ty + s * rx + c * f.ty, frame.angle + ra)
    return Region(r.kind, r.dims, pose, mirror != r.mirror)


def map_node(node: PlanNode, frame: Pose, mirror: bool) -> None:
    """Map one node's own geometry (not its children) by (frame, mirror), in place.

    A point (x, y) goes to (tx + (c*x' - s*y), ty + (s*x' + c*y)) with
    x' = sx*x, sx = -1 under a mirror; a vector drops the translation.
    The arithmetic is written out per point, and plan bytes depend on its
    operation order.
    """
    tx, ty, fa = frame.tx, frame.ty, frame.angle
    c, s = math.cos(fa), math.sin(fa)
    sx = -1.0 if mirror else 1.0
    if node.region is not None:
        node.region = _map_region(node.region, frame, c, s, mirror)
    if node.kind == "grid":
        k = round(fa / (math.pi / 2))
        if abs(fa - k * math.pi / 2) > 1e-9:
            raise PlanError("grids only survive quarter-turn frames")
        # opposite corners of the block land on opposite corners of its image
        ox, oy = node.origin
        x1, y1, x2, y2 = sx * ox, oy, sx * (ox + node.cols), oy + node.rows
        node.origin = (min(tx + (c * x1 - s * y1), tx + (c * x2 - s * y2)),
                       min(ty + (s * x1 + c * y1), ty + (s * x2 + c * y2)))
        if k % 2 != 0:
            node.rows, node.cols = node.cols, node.rows
    elif node.kind == "stacks":
        runs = []
        for r in node.runs:
            b, (ux, uy), (px, py) = r.base, r.step, r.pitch
            bx, by, ux, px = sx * b.tx, b.ty, sx * ux, sx * px
            # a reflected square is re-anchored at its other bottom corner
            angle = fa + (math.pi / 2 - b.angle if mirror else b.angle)
            runs.append(StackRun(Pose(tx + (c * bx - s * by), ty + (s * bx + c * by), angle),
                                 (c * ux - s * uy, s * ux + c * uy), r.count, r.repeat,
                                 (c * px - s * py, s * px + c * py), r.label))
        node.runs = runs
        node.overshoot = [_map_region(r, frame, c, s, mirror) for r in node.overshoot]
    node.seams = [(tx + (c * (sx * x1) - s * y1), ty + (s * (sx * x1) + c * y1),
                   tx + (c * (sx * x2) - s * y2), ty + (s * (sx * x2) + c * y2))
                  for x1, y1, x2, y2 in node.seams]


def resolve_grafts(root: PlanNode) -> list[tuple[float, float, float, float]]:
    """Map every node into world coordinates exactly once, top-down, and
    return all seam segments in pre-order. Clears the pending grafts and
    the per-node seams."""
    seams: list = []
    stack = [(root, (IDENTITY, False))]
    while stack:
        node, outer = stack.pop()
        frame = outer if node.graft is None else compose_graft(outer, node.graft)
        map_node(node, *frame)
        seams.extend(node.seams)
        node.graft, node.seams = None, []
        stack.extend((c, frame) for c in reversed(node.children))
    return seams


# ---------------------------------------------------------------------------
# serialization (deterministic: stable key order, repr-float round trip)

def _pose_to_list(p: Pose) -> list[float]:
    return [p.tx, p.ty, p.angle]


def _region_to_dict(r: Region | None):
    if r is None:
        return None
    return {"kind": r.kind, "dims": list(r.dims), "frame": _pose_to_list(r.frame),
            "mirror": r.mirror}


def _region_from_dict(d) -> Region | None:
    if d is None:
        return None
    return Region(d["kind"], tuple(d["dims"]), Pose(*d["frame"]), bool(d["mirror"]))


def _run_to_list(r: StackRun) -> list:
    return [r.base.tx, r.base.ty, r.base.angle, r.step[0], r.step[1],
            r.count, r.repeat, r.pitch[0], r.pitch[1], r.label]


def _run_from_list(v) -> StackRun:
    return StackRun(base=Pose(v[0], v[1], v[2]), step=(v[3], v[4]), count=int(v[5]),
                    repeat=int(v[6]), pitch=(v[7], v[8]), label=v[9])


def _node_to_dict(n: PlanNode) -> dict:
    d = {"kind": n.kind, "region": _region_to_dict(n.region), "area": n.area,
         "label": n.label}
    if n.kind == "split":
        d["children"] = [_node_to_dict(c) for c in n.children]
    elif n.kind == "grid":
        d["origin"] = list(n.origin)
        d["rows"] = n.rows
        d["cols"] = n.cols
    elif n.kind == "stacks":
        d["runs"] = [_run_to_list(r) for r in n.runs]
        d["leftovers"] = [_node_to_dict(c) for c in n.children]
        d["overshoot"] = [_region_to_dict(r) for r in n.overshoot]
        d["ledger"] = n.ledger
    elif n.kind == "waste":
        d["reason"] = n.reason
    return d


def _node_from_dict(d: dict) -> PlanNode:
    kind = d["kind"]
    region = _region_from_dict(d["region"])
    node = PlanNode(kind=kind, region=region, area=d["area"], label=d["label"])
    if kind == "split":
        node.children = [_node_from_dict(c) for c in d["children"]]
    elif kind == "grid":
        node.origin = tuple(d["origin"])
        node.rows = int(d["rows"])
        node.cols = int(d["cols"])
    elif kind == "stacks":
        node.runs = [_run_from_list(v) for v in d["runs"]]
        node.children = [_node_from_dict(c) for c in d["leftovers"]]
        node.overshoot = [_region_from_dict(r) for r in d["overshoot"]]
        node.ledger = d["ledger"]
    elif kind == "waste":
        node.reason = d["reason"]
    return node


def plan_to_dict(plan: Plan) -> dict:
    return {
        "version": 1,
        "kind": plan.kind,
        "x": plan.x,
        "region": _region_to_dict(plan.region),
        "seams": [list(s) for s in plan.seams],
        "meta": plan.meta,
        "root": _node_to_dict(plan.root),
    }


def plan_from_dict(d: dict) -> Plan:
    if d.get("version") != 1:
        raise PlanError(f"unsupported plan version {d.get('version')!r}")
    if d.get("kind") not in ("pack", "cover"):
        raise PlanError(f"plan kind must be 'pack' or 'cover', got {d.get('kind')!r}")
    return Plan(kind=d["kind"], x=d["x"], region=_region_from_dict(d["region"]),
                root=_node_from_dict(d["root"]),
                seams=[tuple(s) for s in d["seams"]], meta=d["meta"])


def dumps_stable(obj) -> str:
    """Canonical JSON: sorted keys, minimal separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def plan_to_json(plan: Plan) -> str:
    with gc_paused():
        return dumps_stable(plan_to_dict(plan))


def plan_from_json(text: str) -> Plan:
    with gc_paused():
        return plan_from_dict(json.loads(text))
