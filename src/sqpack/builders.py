"""Recursive layout builders behind `planner.build_plan`, shared by packing and
covering: a builder's `kind` picks floor or ceil and the sign of the tilt
equation. Regions at or below the scale `BASE_CUTOFF` are grid-filled.

Region classes and their local canonical coordinates:

panel -- rectangle whose anchor scale is `length`; border strips of width
         about length**(3/4) are split off so the remaining core is
         integer-sided and fills perfectly.
strip -- long rectangle of real width m, filled with tilted 1 x ceil(m)
         stacks; the two ends are left as wedges and recursed.
wedge -- tall right trapezoid (vertical left side, slant at a small angle
         off vertical); sliced into near-equal integer-height bands, each
         band splitting into a panel and a shelf flush against the slant.
shelf -- shallow right trapezoid whose top edge is the exact integer
         shelf_top_len(scale, kind); sliced into bands of height
         h1 = floor(scale**(-1/6)/tan(tilt)): an integer grid column on the
         left, a tilted stack band, and a slant sliver per band (conceded by
         a packing, overshot by a covering), plus a floor zone at the bottom.
         A shelf of either kind whose band table runs out fills by rows.

Each step is written once for both kinds: `_stack_family` sets up tilted
stacks of ceil(m) squares for a width m (and is the only caller of the tilt
solvers), `_wedge_band` builds one wedge band, and `build_shelf` holds the
shelf scaffold around the two band chains, `_shelf_pack` (descending) and
`_shelf_cover` (ascending, with joint grids).

Every builder works in its own local frame and returns its node in that
frame. A parent grafts a child by composing the child's local-to-parent
(frame, mirror) map into the child's pending graft in O(1), possibly
mirrored (the stack-band leftover wedges have the opposite chirality);
nothing is mapped during the build. A caller assigns only to the top node
a builder call has just returned to it; nothing below is changed once its
builder returns, so a shelf or wedge built once hangs, shared, under every
parent that uses it, and each use differs from it only in its graft. Nodes
hold only what accounting and verification read: regions, areas, squares and
ledgers; a stacks node's squares are its run columns, which `plan.stacks_node`
fills from a list of `StackRun` records and `sliced_trap_fill` writes
directly. The tree the top builder returns is the plan; the grafts are
composed only where it is read (`plan.walk`). All construction frames are
quarter-turn rotations; only square poses carry irrational angles.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ASPECT_LIMIT, BASE_CUTOFF, WEDGE_TOP
from .geometry import (
    Pose, ceil_guard, compose_graft, floor_guard, frac_guard,
    rect_region, region_area, trap_region, tri_region,
)
from .plan import PlanNode, StackRun, grid_node, split_node, stacks_node, waste_node
from .tilt import solve_cover_tilt, solve_pack_tilt

SQRT2 = math.sqrt(2.0)
EPS = 1e-12
MAX_DEPTH = 48


class InvalidSpec(ValueError):
    pass


# at and above 2**52 every double is an integer, so frac(x) is lost
MAX_SIDE = 2.0 ** 52


def check_side(x: float) -> None:
    """Reject target sides outside the supported domain."""
    if not math.isfinite(x) or abs(x) >= MAX_SIDE:
        raise InvalidSpec(f"x must be finite and below 2**52 (so frac(x) survives "
                          f"in a double), got {x}")
    if x <= 0.0:
        raise InvalidSpec(f"target side must be positive, got {x}")


@dataclass(frozen=True)
class PanelSpec:
    length: float                # anchor scale
    width: float

    def validate(self) -> None:
        if self.length < 1.0 or self.width < 1.0:
            raise InvalidSpec(f"panel sides must be >= 1: {self.length} x {self.width}")
        if self.width > ASPECT_LIMIT * self.length + 1e-9:
            raise InvalidSpec(
                f"panel width {self.width} exceeds {ASPECT_LIMIT} x length {self.length}")
        if self.width < self.length ** 0.75 - 1e-9:
            raise InvalidSpec(
                f"panel width {self.width} below length**(3/4) = {self.length ** 0.75}")


def _tilt_limit(scale: float) -> float:
    """The largest tilt, exclusive, of a wedge or shelf at an anchor scale."""
    return min(1.75 * SQRT2 * scale ** -0.5, math.pi / 3)


@dataclass(frozen=True)
class WedgeSpec:
    height: float                # anchor scale
    top: float
    tilt: float

    def validate(self) -> None:
        # a wedge of zero top and zero tilt is empty
        if not (self.height >= 1.0 and 0.0 <= self.top < math.inf and self.tilt >= 0.0
                and self.top + self.tilt > 0.0):
            raise InvalidSpec(f"bad wedge {self}")
        limit = _tilt_limit(self.height)
        if self.tilt >= limit:
            raise InvalidSpec(f"wedge tilt {self.tilt} over limit {limit}")


@dataclass(frozen=True)
class ShelfSpec:
    scale: float                 # anchor scale; the top edge is shelf_top_len(scale, kind)
    height: float                # about sqrt(scale)/2
    tilt: float

    def validate(self) -> None:
        if not (self.height >= 1.0 and self.tilt >= 0.0):
            raise InvalidSpec(f"bad shelf {self}")
        limit = _tilt_limit(self.scale)
        if self.tilt >= limit:
            raise InvalidSpec(f"shelf tilt {self.tilt} over limit {limit}")


def _band_base(scale: float, k: int, kind: str) -> int:
    """Base of shelf band k: floor(x**(1/3) + (+-sqrt2 - k) * x**(1/6)), + packs."""
    sign = 1.0 if kind == "pack" else -1.0
    return floor_guard(scale ** (1.0 / 3.0) + (sign * SQRT2 - k) * scale ** (1.0 / 6.0))


def shelf_top_len(scale: float, kind: str) -> int:
    """Integer top edge for a shelf at the given anchor scale."""
    return _band_base(scale, 0, kind)


@dataclass
class BuildStats:  # what one `build_plan` call records
    max_depth: int = 0
    fallback_bands: int = 0
    joint_max: float = 0.0
    band_tilts: list = field(default_factory=list)  # (scale, k, width, alpha)
    built: dict = field(default_factory=dict)       # shelves and wedges, by `_memoised`


def _bump(stats: BuildStats, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise InvalidSpec(f"recursion deeper than {MAX_DEPTH}; scales not decreasing?")
    stats.max_depth = max(stats.max_depth, depth)


def _memoised(build, spec, depth: int, stats: BuildStats, kind: str) -> PlanNode:
    """`build(spec, depth, stats, kind)`, run once per distinct (kind, spec) of
    a plan. Every use replays its record (band tilts in order, fallback bands,
    largest joint, depth below entry) and gets a shallow copy of the built top
    node over the shared subtree, whose graft alone its callers set; so the
    uses of one definition hold one `children` list, which `plan.definitions`
    tells definitions by."""
    key = (kind, repr(spec))  # repr tells -0.0 from 0.0, which == does not
    entry = stats.built.get(key)
    if entry is None:
        outer = stats.max_depth, stats.fallback_bands, stats.joint_max, stats.band_tilts
        stats.max_depth, stats.fallback_bands, stats.joint_max, stats.band_tilts = depth, 0, 0.0, []
        node = build(spec, depth, stats, kind)
        entry = stats.built[key] = (node, stats.max_depth - depth, stats.fallback_bands,
                                    stats.joint_max, stats.band_tilts)
        stats.max_depth, stats.fallback_bands, stats.joint_max, stats.band_tilts = outer
    node, below, fallback_bands, joint_max, band_tilts = entry
    _bump(stats, depth + below)
    stats.fallback_bands += fallback_bands
    stats.joint_max = max(stats.joint_max, joint_max)
    stats.band_tilts += band_tilts
    return copy.copy(node)


def _graft(node: PlanNode, frame: Pose, mirror: bool = False) -> PlanNode:
    """Record that `node` maps into its parent by (frame, mirror); O(1)."""
    graft = (frame, mirror)
    node.graft = graft if node.graft is None else compose_graft(graft, node.graft)
    return node


# ---------------------------------------------------------------------------
# leaf fills

def grid_fill(w: float, h: float, kind: str, label: str = "") -> PlanNode:
    """Axis-aligned fill of a w x h rectangle anchored at the origin.

    Packing uses floor x floor (margin waste stays implicit in the node);
    covering uses ceil x ceil and overshoots past the far sides.
    """
    region = rect_region(w, h)
    if kind == "pack":
        rows, cols = floor_guard(h), floor_guard(w)
    else:
        rows, cols = ceil_guard(h), ceil_guard(w)
    return grid_node(region, (0.0, 0.0), max(rows, 0), max(cols, 0), label=label)


def sliced_trap_fill(h: float, a_top: float, a_bot: float, kind: str,
                     label: str = "") -> PlanNode:
    """Row-by-row fill of a canonical right trapezoid.

    Each unit-height row holds one horizontal run of squares: floor of the
    row's narrowest width for packing, ceil of its widest for covering
    (covering rows overshoot past the slant and the partial top row becomes
    a full extra row). Consecutive rows of equal width share one run with
    `repeat` rows, a unit `pitch` apart; the node's run columns are written
    directly.
    """
    region = trap_region(h, a_top, a_bot)
    if kind == "pack":
        widths = [floor_guard(a_bot + (a_top - a_bot) * (j + 1) / h)
                  for j in range(floor_guard(h))]
    else:
        widths = [ceil_guard(a_bot + (a_top - a_bot) * j / h) for j in range(ceil_guard(h))]
    groups, j = [], 0
    for cols, group in itertools.groupby(widths):
        rows = len(list(group))
        if cols >= 1:
            groups.append((j, cols, rows))
        j += rows
    starts, counts, repeats = zip(*groups) if groups else ((), (), ())
    runs = np.zeros((len(groups), 7))
    runs[:, 1], runs[:, 3], runs[:, 6] = starts, 1.0, 1.0  # base (0, j), step (1, 0), pitch (0, 1)
    return PlanNode(kind="stacks", region=region, area=region_area(region), label=label,
                    runs=runs, counts=counts, repeats=repeats, run_labels=(label,) * len(groups))


# ---------------------------------------------------------------------------
# rectangles

def build_rect(w: float, h: float, depth: int, stats: BuildStats, kind: str):
    """General rectangle router: grid at small scale, panel when the aspect
    fits, otherwise chopped into compliant panels."""
    _bump(stats, depth)
    if min(w, h) <= BASE_CUTOFF:
        return grid_fill(w, h, kind, label="grid")
    length, width = (w, h) if w <= h else (h, w)
    if width <= ASPECT_LIMIT * length:
        built = build_panel(PanelSpec(length, width), depth, stats, kind)
        return built if w <= h else _graft(built, Pose(w, 0.0, math.pi / 2))
    # aspect too wide: chop the long side into compliant panels
    q = ceil_guard(width / (ASPECT_LIMIT * length))
    piece = width / q
    children = []
    for i in range(q):
        built = build_panel(PanelSpec(length, piece), depth + 1, stats, kind)
        if w <= h:
            children.append(_graft(built, Pose(0.0, i * piece, 0.0)))
        else:
            children.append(_graft(built, Pose(w - i * piece, 0.0, math.pi / 2)))
    return split_node(rect_region(w, h), children, label="chopped rect")


def build_panel(spec: PanelSpec, depth: int, stats: BuildStats, kind: str):
    """Rectangle with moderate aspect: integer core plus two border strips.

    The core_l x core_w core is integer-sided; the border widths
    m2 = length - core_l and m1 = width - core_w both lie in [s, s + 1)
    for s = length**(3/4). The corner arrangement guarantees every strip
    of integer width also has integer length (a fractional length would
    concede a full-width sliver). A panel narrower than s + 1 has no core
    and is one strip.
    """
    _bump(stats, depth)
    spec.validate()
    length, width = spec.length, spec.width
    region = rect_region(length, width)
    if min(length, width) <= BASE_CUTOFF:
        return grid_fill(length, width, kind, label="panel grid")

    m_target = length ** 0.75
    core_l = floor_guard(length - m_target)
    core_w = floor_guard(width - m_target)
    if core_w <= 0:
        return build_strip(width, length, depth + 1, stats, kind)

    m2 = length - core_l
    m1 = width - core_w
    swap = frac_guard(length) <= EPS and frac_guard(width) > EPS
    top_len, side_len = (length, core_w) if swap else (core_l, width)
    children = [
        grid_fill(core_l, core_w, kind, label="core"),
        _graft(build_strip(m1, top_len, depth + 1, stats, kind), Pose(0.0, core_w, 0.0)),
        _graft(build_strip(m2, side_len, depth + 1, stats, kind),
               Pose(length, 0.0, math.pi / 2)),
    ]
    return split_node(region, children, label="panel")


# ---------------------------------------------------------------------------
# strips

def _takes_stacks(m: float) -> bool:
    """Whether a width takes tilted stacks: at least 2 and not an integer."""
    return m >= 2.0 and frac_guard(m) > EPS


def _stack_family(m: float, kind: str):
    """Tilted stacks of ceil(m) squares spanning width m, as
    (theta, n, tan, sin, cos, pitch); the pitch is 1/cos(theta)."""
    tilt = solve_pack_tilt(m) if kind == "pack" else solve_cover_tilt(m)
    theta = tilt.theta
    cos_t = math.cos(theta)
    return theta, tilt.n, math.tan(theta), math.sin(theta), cos_t, 1.0 / cos_t


def _top_gap(d: float, h1: int, tan_a: float, p: float) -> float:
    """Top width of the wedge a band chain leaves before its first family."""
    return min(WEDGE_TOP * math.sqrt(d), h1 - d * tan_a - p - 0.5)


def _clamp(r: float) -> float:
    """A remainder below 1e-9 is none."""
    return 0.0 if r < 1e-9 else r


def build_strip(m: float, L: float, depth: int, stats: BuildStats, kind: str):
    """Fill [0, L] x [0, m] with tilted stacks; wedge leftovers at both ends.

    Integer widths fill as plain grids; strips too short for two wedge ends
    fall back to a grid. Covering stacks start at y0 = -sin(theta) and
    overshoot both long sides by sin(theta).
    """
    _bump(stats, depth)
    if m < 2.0:
        raise InvalidSpec(f"strip width must be >= 2, got {m}")
    region = rect_region(L, m)
    if frac_guard(m) <= EPS:
        return grid_fill(L, m, kind, label="strip grid")

    theta, n, tan_t, sin_t, cos_t, p = _stack_family(m, kind)
    y0 = 0.0 if kind == "pack" else -sin_t
    top_target = WEDGE_TOP * math.sqrt(m)
    x_start = top_target + tan_t * (m - y0)
    n_stacks = floor_guard((L - x_start - tan_t * y0 - top_target) / p)
    if n_stacks < 1:
        return grid_fill(L, m, kind, label="short strip grid")

    run = StackRun(base=Pose(x_start, y0, theta), step=(-sin_t, cos_t),
                   count=n, repeat=n_stacks, pitch=(p, 0.0), label="strip")
    right_bot = L - x_start - n_stacks * p - tan_t * y0
    children = [
        build_wedge(WedgeSpec(m, top_target, theta), depth + 1, stats, kind),
        _graft(build_wedge(WedgeSpec(m, right_bot, theta), depth + 1, stats, kind),
               Pose(L, m, math.pi)),
    ]
    return stacks_node(region, [run], leftovers=children, label="strip",
                       ledger={"stack_end_balance": n_stacks * tan_t})


# ---------------------------------------------------------------------------
# wedges

def build_wedge(spec: WedgeSpec, depth: int, stats: BuildStats, kind: str):
    """Tall right trapezoid: bands of integer height, each panel + shelf.
    A flat wedge is a rectangle, of any width."""
    return _memoised(_build_wedge, spec, depth, stats, kind)


def _build_wedge(spec: WedgeSpec, depth: int, stats: BuildStats, kind: str):
    _bump(stats, depth)
    spec.validate()
    height, top, theta = spec.height, spec.top, spec.tilt
    tan_t = math.tan(theta)
    a_bot = top + height * tan_t
    region = trap_region(height, top, a_bot)

    if theta <= EPS:
        return build_rect(top, height, depth, stats, kind)
    if height <= BASE_CUTOFF or top < 1.0:
        return sliced_trap_fill(height, top, a_bot, kind, label="wedge rows")

    a_len = shelf_top_len(height, kind)
    if a_len < 2 or top - a_len < 1.0:
        return sliced_trap_fill(height, top, a_bot, kind, label="wedge rows")

    h_int = max(1, round(height / max(round(2.0 * math.sqrt(height)), 1)))
    s_full = floor_guard(height / h_int)
    rem = _clamp(height - s_full * h_int)

    children: list = []
    for i in range(s_full):
        y_bot = height - (i + 1) * h_int
        rect, shelf = _wedge_band(spec, a_len, top + i * h_int * tan_t, y_bot, float(h_int),
                                  depth, stats, kind)
        children += [_graft(rect, Pose(0.0, y_bot, 0.0)), shelf]
    if rem > 0.0:
        w_rem_top = top + s_full * h_int * tan_t
        if rem >= 1.0:
            children.append(split_node(
                trap_region(rem, w_rem_top, a_bot),
                list(_wedge_band(spec, a_len, w_rem_top, 0.0, rem, depth, stats, kind)),
                label="wedge remainder"))
        elif kind == "pack":
            children.append(waste_node(trap_region(rem, w_rem_top, a_bot),
                                       "wedge remainder sliver"))
        else:
            children.append(sliced_trap_fill(rem, w_rem_top, a_bot, "cover",
                                             label="wedge remainder"))
    return split_node(region, children, label="wedge")


def _wedge_band(spec: WedgeSpec, a_len: int, w_top: float, y: float, h_band: float,
                depth: int, stats: BuildStats, kind: str):
    """One wedge band of top width w_top: its rectangle in the band's frame,
    then its shelf against the slant, grafted at height y."""
    a = w_top - a_len
    rect = build_rect(a, h_band, depth + 1, stats, kind)
    shelf = build_shelf(ShelfSpec(spec.height, h_band, spec.tilt), depth + 1, stats, kind)
    return rect, _graft(shelf, Pose(a, y, 0.0))


# ---------------------------------------------------------------------------
# shelves

def build_shelf(spec: ShelfSpec, depth: int, stats: BuildStats, kind: str):
    """Shallow trapezoid with integer top edge: integer grid columns on the
    left, a chain of tilted stack bands against the slant, floor zone at the
    bottom. A packing concedes each band's slant sliver, a covering
    overshoots it; the ledger holds the total either way."""
    return _memoised(_build_shelf, spec, depth, stats, kind)


def _build_shelf(spec: ShelfSpec, depth: int, stats: BuildStats, kind: str):
    _bump(stats, depth)
    spec.validate()
    scale, height, theta = spec.scale, spec.height, spec.tilt
    a_len = shelf_top_len(scale, kind)
    if a_len < 1:
        raise InvalidSpec(f"{kind} shelf at scale {scale} has top edge {a_len} < 1")
    tan_t = math.tan(theta)
    a_bot = a_len + height * tan_t
    region = trap_region(height, a_len, a_bot)

    if theta <= EPS:
        return build_rect(a_len, height, depth, stats, kind)
    if scale <= BASE_CUTOFF or a_len < 2:
        return sliced_trap_fill(height, a_len, a_bot, kind, label="shelf rows")
    h1 = floor_guard(scale ** (-1.0 / 6.0) / tan_t)
    bands = _shelf_bands(scale, a_len, h1, height, tan_t, kind)
    if any(b["base"] < 2 for b in bands):  # the band table has run out
        return sliced_trap_fill(height, a_len, a_bot, kind, label="shelf rows")
    nb = len(bands)
    h2 = _clamp(height - nb * h1)
    children: list = []

    if nb > 0:
        band_children: list = []
        for b in bands:
            if kind == "pack":
                band_children.append(waste_node(
                    tri_region(h1 * tan_t, h1, Pose(b["c"] + b["d"], b["yb"], 0.0)),
                    "slant sliver"))
            if b["k"] >= 1 and b["c"] >= 1:
                band_children.append(grid_node(
                    rect_region(b["c"], h1, Pose(0.0, b["yb"], 0.0)),
                    (0.0, b["yb"]), h1, int(b["c"]), label="grid column"))
        if kind == "pack":
            runs, leftovers, area, ledger = _shelf_pack(bands, a_len, h1, h2, scale, depth,
                                                        stats)
        else:
            runs, leftovers, area, ledger = _shelf_cover(bands, height, h1, h2, tan_t, scale,
                                                         depth, stats)
        balance = "slant_sliver_balance" if kind == "pack" else "overshoot_balance"
        ledger[balance] = nb * 0.5 * h1 * h1 * tan_t
        band_children.append(stacks_node(
            None, runs, leftovers=leftovers, label="stack bands", area=area, ledger=ledger))
        children.append(split_node(
            trap_region(nb * h1, a_len, a_len + nb * h1 * tan_t, Pose(0.0, h2, 0.0)),
            band_children, label="band block"))

    if h2 > 0.0:
        f_top = a_len + nb * h1 * tan_t
        x13 = scale ** (1.0 / 3.0)
        if kind == "pack":
            children += _floor_zone_pack(f_top, h2, x13, tan_t, depth, stats)
        else:
            children.append(_floor_zone_cover(f_top, a_bot, h2, x13, depth, stats))
    return split_node(region, children, label="shelf")


def _shelf_bands(scale: float, a_len: int, h1: int, height: float, tan_t: float,
                 kind: str) -> list[dict]:
    """Band table, top band first: integer grid width c_k, stack width d_k,
    band top yt and bottom yb. Packing numbers its bands from 0, and its top
    band spans the whole top edge; covering numbers them from 1."""
    first = 0 if kind == "pack" else 1
    bands = []
    for j in range(floor_guard(height / h1)):
        k = j + first
        base_k = _band_base(scale, k, kind)
        yt = height - j * h1
        d = float(a_len) if k == 0 else base_k + k * h1 * tan_t
        bands.append({"k": k, "base": base_k, "c": a_len - base_k, "d": d,
                      "yt": yt, "yb": yt - h1})
    return bands


def _floor_zone_pack(f1: float, h2: float, x13: float, tan_t: float, depth: int,
                     stats: BuildStats) -> list:
    """Packing floor zone under the band block: top width f1, height h2 > 0."""
    if h2 < 1.0:
        return [waste_node(trap_region(h2, f1, f1 + h2 * tan_t), "floor sliver")]
    if h2 <= x13:
        fill = grid_fill(f1, h2, "pack", label="floor grid")
    else:
        fill = _graft(build_strip(f1, h2, depth + 1, stats, "pack"),
                      Pose(f1, 0.0, math.pi / 2))
    return [fill, waste_node(tri_region(h2 * tan_t, h2, Pose(f1, 0.0, 0.0)), "floor sliver")]


def _floor_zone_cover(f_top: float, f1: float, h2: float, x13: float, depth: int,
                      stats: BuildStats) -> PlanNode:
    """Covering floor zone: the trapezoid of height h2 > 0 from f_top to f1."""
    if h2 <= x13 or h2 < 2.0 * ceil_guard(f1):
        return grid_node(trap_region(h2, f_top, f1), (0.0, 0.0), ceil_guard(h2),
                         ceil_guard(f1), label="floor grid")
    # the strip stands on its side and overshoots the floor trapezoid; the
    # node keeps the trapezoid as its region, written in the strip's own
    # frame (the inverse of the graft below)
    fnode = build_strip(f1, h2, depth + 1, stats, "cover")
    fnode.region = trap_region(h2, f_top, f1, Pose(0.0, f1, -math.pi / 2))
    fnode.area = region_area(fnode.region)
    return _graft(fnode, Pose(f1, 0.0, math.pi / 2))


def _shelf_pack(bands: list[dict], a_len: int, h1: int, h2: float, scale: float, depth: int,
                stats: BuildStats):
    """The packing chain descends: the top band fills as a grid, then each
    band takes a stack family anchored under the seam of the band above, or
    a grid where none fits. Returns (runs, leftovers, area, ledger)."""
    nb = len(bands)
    # top band: its width is the integer top edge, fills perfectly
    runs = [StackRun(base=Pose(0.0, bands[0]["yb"], 0.0), step=(1.0, 0.0), count=a_len,
                     repeat=h1, pitch=(0.0, 1.0), label="top band")]
    leftovers: list = []
    area = float(a_len) * h1
    ledger: dict = {"band_ends": [], "joints": [], "b_k": []}
    seam = None
    for b in bands[1:]:
        k, c, d, yt, yb = b["k"], float(b["c"]), b["d"], b["yt"], b["yb"]
        area += d * h1
        last = k == nb - 1
        placed = False
        if _takes_stacks(d):
            alpha, n, tan_a, sin_a, cos_a, p = _stack_family(d, "pack")
            top_gap = _top_gap(d, h1, tan_a, p) if seam is None else None
            if seam is None:
                y0 = yt - top_gap - p if top_gap >= 1.0 else None
            else:
                y0 = _anchor_below_seam(seam, c, d, p, tan_a, yt)
            if last:
                y_stop = h2 + WEDGE_TOP * math.sqrt(d) + n * sin_a
            elif _takes_stacks(bands[k + 1]["d"]):
                y_stop = yb + (bands[k + 1]["c"] - c) * tan_a
            else:
                y_stop = yb + n * sin_a
            # a family tilted past the wedge limit grids, like one that does not fit
            if y0 is not None and y0 >= y_stop and alpha < _tilt_limit(d):
                n_stacks = floor_guard((y0 - y_stop) / p) + 1
                stats.band_tilts.append((scale, k, d, alpha))
                if top_gap is not None:
                    leftovers.append(_graft(
                        build_wedge(WedgeSpec(d, top_gap, alpha), depth + 1, stats, "pack"),
                        Pose(c + d, yt, math.pi / 2), mirror=True))
                y_last = y0 - (n_stacks - 1) * p
                runs.append(StackRun(
                    base=Pose(c, y0, -alpha), step=(cos_a, -sin_a), count=n,
                    repeat=n_stacks, pitch=(0.0, -p), label=f"band {k}"))
                ledger["band_ends"].append(n_stacks * tan_a)
                if seam is not None:
                    joint = _joint_gap_area(seam, c, d, y0, p, tan_a, yt)
                    ledger["joints"].append(joint)
                    stats.joint_max = max(stats.joint_max, joint)
                    if seam["type"] == "stack" and seam["tan"] > EPS:
                        hit = seam["cx"] + (seam["y"] - yt) / seam["tan"]
                        ledger["b_k"].append(hit - c)
                if last:
                    tau_r = (y_last - h2) - d * tan_a
                    leftovers.append(_graft(
                        build_wedge(WedgeSpec(d, tau_r, alpha), depth + 1, stats, "pack"),
                        Pose(c, h2, -math.pi / 2), mirror=True))
                seam = {"type": "stack", "cx": c, "y": y_last, "tan": tan_a,
                        "x_edge": c + n * cos_a, "x_region": c + d}
                placed = True
        if not placed:
            rows = _safe_rows(seam, c, d, h1, yb)
            if rows >= 1:
                runs.append(StackRun(base=Pose(c, yb, 0.0), step=(1.0, 0.0), count=floor_guard(d),
                                     repeat=rows, pitch=(0.0, 1.0), label=f"band {k} grid"))
            if rows < h1:
                stats.fallback_bands += 1
            seam = {"type": "flat", "y": yb}
    return runs, leftovers, area, ledger


def _safe_rows(seam, c: float, d: float, h1: int, yb: float) -> int:
    """Grid rows that fit under any stack overhang from the band above."""
    if seam is None or seam["type"] != "stack":
        return h1
    x_hi = min(seam["x_edge"], c + d)
    seam_min = seam["y"] - (x_hi - seam["cx"]) * seam["tan"]
    return max(0, floor_guard(min(float(h1), seam_min - yb)))


def _anchor_below_seam(seam, c: float, d: float, p: float, tan_a: float,
                       y_top: float) -> float:
    """Highest first-stack anchor whose upper-edge line clears the seam and
    stays under the band top beyond the previous band's right edge."""
    if seam["type"] != "stack":
        return seam["y"] - p
    cands = []
    x2 = min(seam["x_edge"], c + d)
    for x in (c, x2):
        line_y = seam["y"] - (x - seam["cx"]) * seam["tan"]
        cands.append(line_y - p + (x - c) * tan_a)
    for x in (seam["x_region"], c + d):
        cands.append(y_top - p + (x - c) * tan_a)
    return min(cands)


def _joint_gap_area(seam, c: float, d: float, y0: float, p: float, tan_a: float,
                    y_top: float) -> float:
    """Area genuinely conceded at a band handoff: the step over the widening
    integer column plus the sliver between the nearly-parallel stack lines."""
    if seam["type"] != "stack":
        # flat seam from a gridded band: full triangle under the band top
        return 0.5 * d * d * tan_a
    dc = c - seam["cx"]
    step = dc * (seam["y"] - y_top) - 0.5 * dc * dc * seam["tan"]
    x_hi = min(seam["x_edge"], c + d)

    def gap(x: float) -> float:
        lam = seam["y"] - (x - seam["cx"]) * seam["tan"]
        upper = y0 + p - (x - c) * tan_a
        return max(lam - upper, 0.0)

    sliver = 0.5 * (gap(c) + gap(x_hi)) * (x_hi - c)
    return max(step, 0.0) + sliver


def _shelf_cover(bands: list[dict], height: float, h1: int, h2: float, tan_t: float,
                 scale: float, depth: int, stats: BuildStats):
    """The covering chain ascends. Each family hands off once its guaranteed
    slab covers the lower-right corner of the band above; the next family
    pitches against the previous slab-top line (the lines are nearly
    parallel), and the small uncovered triangle over the widening integer
    column is bridged by an axis-aligned joint grid. Returns (runs,
    leftovers, area, ledger)."""
    t = len(bands)
    runs: list[StackRun] = []
    leftovers: list = []
    area = 0.0
    ledger: dict = {"band_ends": [], "joints": []}
    seam = None  # slab-top line (ax, y, tan) of the family below
    for idx in range(t - 1, -1, -1):
        b = bands[idx]
        k, c, d, yt, yb = b["k"], float(b["c"]), b["d"], b["yt"], b["yb"]
        area += region_area(trap_region(h1, d - h1 * tan_t, d, Pose(c, yb, 0.0)))
        alpha, n, tan_a, sin_a, cos_a, p = _stack_family(d, "cover")
        ax = c - sin_a
        if k == t:
            tau = _top_gap(d, h1, tan_a, p)
            if tau < 1.0:
                # no room for the wedge: the band grids. Only a lone band can,
                # since two bands need h1 >= 6, which leaves tau >= 1
                runs.append(StackRun(base=Pose(c, yb, 0.0), step=(1.0, 0.0),
                                     count=ceil_guard(d), repeat=h1, pitch=(0.0, 1.0),
                                     label=f"band {k} grid"))
                stats.fallback_bands += 1
                continue
            y0 = h2 + tau + (d + sin_a) * tan_a
            leftovers.append(_graft(
                build_wedge(WedgeSpec(d, tau, alpha), depth + 1, stats, "cover"),
                Pose(c, h2, -math.pi / 2), mirror=True))
        else:
            below = bands[idx + 1]
            dc = int(below["c"] - b["c"])
            x_hi = below["c"] + below["d"]
            sx, sy, s_tan = seam
            y0 = min(sy - (x - sx) * s_tan + (x - ax) * tan_a
                     for x in (float(below["c"]), x_hi))
            gap = (y0 - sin_a * tan_a) - yb
            rows = ceil_guard(gap) if gap > 1e-9 else 0
            if dc >= 1 and rows >= 1:
                runs.append(StackRun(
                    base=Pose(c, yb, 0.0), step=(1.0, 0.0), count=dc,
                    repeat=rows, pitch=(0.0, 1.0), label=f"joint {k}"))
                ledger["joints"].append(dc * rows - dc * max(gap - dc * tan_a / 2, 0))
        stats.band_tilts.append((scale, k, d, alpha))
        if k >= 2:
            above = bands[idx - 1]
            px = above["c"] + above["d"]
            need = (yt - p - y0 + (px - ax) * tan_a) / p
            n_stacks = max(1, ceil_guard(need) + 1)
        else:
            target = height - cos_a - WEDGE_TOP * math.sqrt(d)
            n_stacks = max(1, floor_guard((target - y0) / p) + 1)
        runs.append(StackRun(
            base=Pose(ax, y0, -alpha), step=(cos_a, -sin_a), count=n,
            repeat=n_stacks, pitch=(0.0, p), label=f"band {k}"))
        ledger["band_ends"].append(n_stacks * tan_a)
        y_last = y0 + (n_stacks - 1) * p
        if k == 1:
            tau_top = height - y_last - cos_a
            if tau_top > 1e-9:
                leftovers.append(_graft(
                    build_wedge(WedgeSpec(d, tau_top, alpha), depth + 1, stats, "cover"),
                    Pose(c + d, height, math.pi / 2), mirror=True))
        seam = (ax, y_last + p, tan_a)
    return runs, leftovers, area, ledger
