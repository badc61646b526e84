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
shelf -- shallow right trapezoid whose top edge is an exact integer;
         sliced into bands of height h1 = floor(scale**(-1/6)/tan(tilt)):
         an integer grid column on the left, a tilted stack band, and a
         conceded slant sliver per band, plus a floor zone at the bottom.

Every builder works in its own local frame and returns a node that keeps
its own seam segments in that frame. A parent grafts a child by composing
the child's local-to-parent (frame, mirror) map into the child's pending
graft in O(1), possibly mirrored (the stack-band leftover wedges have the
opposite chirality); nothing is mapped during the build. The planner then
resolves the whole tree once, top-down (`plan.resolve_grafts`). All
construction frames are quarter-turn rotations; only square poses carry
irrational angles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .config import ASPECT_LIMIT, BASE_CUTOFF, WEDGE_TOP
from .geometry import (
    Pose, Region, ceil_guard, compose_graft, floor_guard, frac_guard,
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
        if not (self.height >= 1.0 and 0.0 <= self.top < math.inf and self.tilt >= 0.0):
            raise InvalidSpec(f"bad wedge {self}")
        limit = _tilt_limit(self.height)
        if self.tilt >= limit:
            raise InvalidSpec(f"wedge tilt {self.tilt} over limit {limit}")


@dataclass(frozen=True)
class ShelfSpec:
    scale: float                 # anchor scale
    height: float                # about sqrt(scale)/2
    top_len: int                 # exact integer top edge
    tilt: float

    def validate(self) -> None:
        if not (self.height >= 1.0 and self.top_len >= 1 and self.tilt >= 0.0
                and float(self.top_len).is_integer()):
            raise InvalidSpec(f"bad shelf {self}")
        limit = _tilt_limit(self.scale)
        if self.tilt >= limit:
            raise InvalidSpec(f"shelf tilt {self.tilt} over limit {limit}")


def shelf_top_len(scale: float, kind: str) -> int:
    """Integer top edge for a shelf at the given anchor scale."""
    if kind == "pack":
        return floor_guard(scale ** (1.0 / 3.0) + SQRT2 * scale ** (1.0 / 6.0))
    return floor_guard(scale ** (1.0 / 3.0) - SQRT2 * scale ** (1.0 / 6.0))


@dataclass
class BuildStats:
    max_depth: int = 0
    fallback_bands: int = 0
    joint_max: float = 0.0
    band_tilts: list = field(default_factory=list)  # (scale, k, width, alpha)


def _bump(stats: BuildStats, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise InvalidSpec(f"recursion deeper than {MAX_DEPTH}; scales not decreasing?")
    stats.max_depth = max(stats.max_depth, depth)


def _graft(node: PlanNode, frame: Pose, mirror: bool = False) -> PlanNode:
    """Record that `node` maps into its parent by (frame, mirror); O(1)."""
    graft = (frame, mirror)
    node.graft = graft if node.graft is None else compose_graft(graft, node.graft)
    return node


# ---------------------------------------------------------------------------
# leaf fills

def grid_fill(w: float, h: float, kind: str, at=(0.0, 0.0), label: str = "") -> PlanNode:
    """Axis-aligned fill of a w x h rectangle anchored at `at`.

    Packing uses floor x floor (margin waste stays implicit in the node);
    covering uses ceil x ceil and overshoots past the far sides.
    """
    region = rect_region(w, h, Pose(at[0], at[1], 0.0))
    if kind == "pack":
        rows, cols = floor_guard(h), floor_guard(w)
    else:
        rows, cols = ceil_guard(h), ceil_guard(w)
    return grid_node(region, at, max(rows, 0), max(cols, 0), label=label)


def sliced_trap_fill(h: float, a_top: float, a_bot: float, kind: str,
                     label: str = "") -> PlanNode:
    """Row-by-row fill of a canonical right trapezoid.

    Each unit-height row holds one horizontal run of squares: floor of the
    row's narrowest width for packing, ceil of its widest for covering
    (covering rows overshoot past the slant and the partial top row becomes
    a full extra row). Consecutive rows of equal width share one run with
    `repeat` rows, a unit `pitch` apart.
    """
    region = trap_region(h, a_top, a_bot)
    if kind == "pack":
        widths = [floor_guard(a_bot + (a_top - a_bot) * (j + 1) / h)
                  for j in range(floor_guard(h))]
    else:
        widths = [ceil_guard(a_bot + (a_top - a_bot) * j / h) for j in range(ceil_guard(h))]
    runs = []
    j = 0
    for cols, group in itertools.groupby(widths):
        rows = len(list(group))
        if cols >= 1:
            runs.append(StackRun(base=Pose(0.0, float(j), 0.0), step=(1.0, 0.0), count=cols,
                                 repeat=rows, pitch=(0.0, 1.0), label=label))
        j += rows
    return stacks_node(region, runs, label=label)


# ---------------------------------------------------------------------------
# rectangles

def build_rect(w: float, h: float, depth: int, stats: BuildStats, kind: str):
    """General rectangle router: grid at small scale, panel when the aspect
    fits, otherwise chopped into compliant panels."""
    _bump(stats, depth)
    if min(w, h) <= BASE_CUTOFF or min(w, h) < 2.0:
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
    concede a full-width sliver).
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
    if core_l <= 0 or core_w <= 0:
        if width <= length:
            return build_strip(width, length, depth + 1, stats, kind)
        return _graft(build_strip(length, width, depth + 1, stats, kind),
                      Pose(length, 0.0, math.pi / 2))

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

def build_strip(m: float, L: float, depth: int, stats: BuildStats, kind: str):
    """Fill [0, L] x [0, m] with tilted stacks; wedge leftovers at both ends.

    Integer widths fill as plain grids; strips too short for two wedge ends
    fall back to a grid.
    """
    _bump(stats, depth)
    if m < 2.0:
        raise InvalidSpec(f"strip width must be >= 2, got {m}")
    region = rect_region(L, m)
    if frac_guard(m) <= EPS:
        return grid_fill(L, m, kind, label="strip grid")

    tilt = solve_pack_tilt(m) if kind == "pack" else solve_cover_tilt(m)
    theta, n = tilt.theta, tilt.n
    tan_t, sin_t, cos_t = math.tan(theta), math.sin(theta), math.cos(theta)
    p = 1.0 / cos_t
    top_target = WEDGE_TOP * math.sqrt(m)

    if kind == "pack":
        x_start = top_target + m * tan_t
        n_stacks = floor_guard((L - x_start - top_target) / p)
    else:
        x_start = top_target + tan_t * (m + sin_t)
        n_stacks = floor_guard((L - x_start + tan_t * sin_t - top_target) / p)
    if n_stacks < 1:
        return grid_fill(L, m, kind, label="short strip grid")

    if kind == "pack":
        run = StackRun(base=Pose(x_start, 0.0, theta), step=(-sin_t, cos_t),
                       count=n, repeat=n_stacks, pitch=(p, 0.0), label="strip")
        left_top = top_target
        right_bot = L - x_start - n_stacks * p
        seam_lx = x_start
        overshoot = []
    else:
        run = StackRun(base=Pose(x_start, -sin_t, theta), step=(-sin_t, cos_t),
                       count=n, repeat=n_stacks, pitch=(p, 0.0), label="strip")
        left_top = top_target
        right_bot = L - x_start - n_stacks * p + tan_t * sin_t
        seam_lx = x_start - tan_t * sin_t
        overshoot = [
            rect_region(n_stacks * p + 1.0, sin_t, Pose(x_start - 1.0, -sin_t, 0.0)),
            rect_region(n_stacks * p + 1.0, sin_t,
                        Pose(seam_lx - m * tan_t - 1.0, m, 0.0)),
        ]
    children = [
        build_wedge(WedgeSpec(m, left_top, theta), depth + 1, stats, kind),
        _graft(build_wedge(WedgeSpec(m, right_bot, theta), depth + 1, stats, kind),
               Pose(L, m, math.pi)),
    ]
    node = stacks_node(region, [run], leftovers=children, label="strip",
                       overshoot=overshoot,
                       ledger={"stack_end_balance": n_stacks * tan_t})
    node.seams = [(seam_lx, 0.0, seam_lx - m * tan_t, m),
                  (seam_lx + n_stacks * p, 0.0, seam_lx + n_stacks * p - m * tan_t, m)]
    return node


# ---------------------------------------------------------------------------
# wedges

def build_wedge(spec: WedgeSpec, depth: int, stats: BuildStats, kind: str):
    """Tall right trapezoid: bands of integer height, each panel + shelf."""
    _bump(stats, depth)
    spec.validate()
    height, top, theta = spec.height, spec.top, spec.tilt
    tan_t = math.tan(theta)
    a_bot = top + height * tan_t
    region = trap_region(height, top, a_bot)

    if theta <= EPS:
        if top < 1.0:
            return waste_node(region, "sliver wedge")
        return build_rect(top, height, depth, stats, kind)
    if height <= BASE_CUTOFF or top < 1.0:
        return sliced_trap_fill(height, top, a_bot, kind, label="wedge rows")

    a_len = shelf_top_len(height, kind)
    if a_len < 2 or top - a_len < 1.0:
        return sliced_trap_fill(height, top, a_bot, kind, label="wedge rows")

    h_int = max(1, round(height / max(round(2.0 * math.sqrt(height)), 1)))
    s_full = floor_guard(height / h_int)
    rem = height - s_full * h_int
    if rem < 1e-9:
        rem = 0.0

    children: list = []
    seams: list = []
    for i in range(s_full):
        y_bot = height - (i + 1) * h_int
        w_i = top + i * h_int * tan_t
        a_i = w_i - a_len
        children.append(_graft(_band_rect(a_i, float(h_int), depth + 1, stats, kind),
                               Pose(0.0, y_bot, 0.0)))
        children.append(_graft(
            build_shelf(ShelfSpec(height, float(h_int), a_len, theta), depth + 1, stats, kind),
            Pose(a_i, y_bot, 0.0)))
        seams.append((0.0, y_bot, top + (i + 1) * h_int * tan_t, y_bot))
    if rem > 0.0:
        w_rem_top = top + s_full * h_int * tan_t
        if rem < 1.0:
            if kind == "pack":
                children.append(waste_node(trap_region(rem, w_rem_top, a_bot),
                                           "wedge remainder sliver"))
            else:
                children.append(sliced_trap_fill(rem, w_rem_top, a_bot, "cover",
                                                 label="wedge remainder"))
        else:
            a_rem = w_rem_top - a_len
            rem_children = [
                _band_rect(a_rem, rem, depth + 1, stats, kind),
                _graft(build_shelf(ShelfSpec(height, rem, a_len, theta), depth + 1, stats, kind),
                       Pose(a_rem, 0.0, 0.0)),
            ]
            children.append(split_node(trap_region(rem, w_rem_top, a_bot),
                                       rem_children, label="wedge remainder"))
    node = split_node(region, children, label="wedge")
    node.seams = seams
    return node


def _band_rect(a_i: float, h_band: float, depth: int, stats: BuildStats, kind: str):
    """Rectangular left part of a wedge band."""
    if a_i < 1.0:
        if kind == "pack":
            return waste_node(rect_region(a_i, h_band), "band sliver")
        return grid_fill(a_i, h_band, "cover", label="band sliver")
    return build_rect(a_i, h_band, depth, stats, kind)


# ---------------------------------------------------------------------------
# shelves

def build_shelf(spec: ShelfSpec, depth: int, stats: BuildStats, kind: str):
    """Shallow trapezoid with integer top edge: integer grid columns on the
    left, tilted stack bands against the slant, floor zone at the bottom."""
    _bump(stats, depth)
    spec.validate()
    scale, height, a_len, theta = spec.scale, spec.height, spec.top_len, spec.tilt
    tan_t = math.tan(theta)
    a_bot = a_len + height * tan_t
    region = trap_region(height, a_len, a_bot)

    if theta <= EPS:
        return build_rect(a_len, height, depth, stats, kind)
    if scale <= BASE_CUTOFF or a_len < 2:
        return sliced_trap_fill(height, a_len, a_bot, kind, label="shelf rows")
    h1 = floor_guard(scale ** (-1.0 / 6.0) / tan_t)
    if h1 < 1:
        raise InvalidSpec(f"tilt {theta} too large for band construction at scale {scale}")
    if kind == "pack":
        return _shelf_pack(spec, region, h1, depth, stats)
    return _shelf_cover(spec, region, h1, depth, stats)


def _shelf_bands(scale: float, a_len: int, h1: int, height: float, tan_t: float,
                 kind: str):
    """Band parameter table: integer grid width c_k, stack width d_k."""
    x13 = scale ** (1.0 / 3.0)
    x16 = scale ** (1.0 / 6.0)
    nb = floor_guard(height / h1)
    bands = []
    for k in range(nb) if kind == "pack" else range(1, nb + 1):
        if kind == "pack":
            base_k = floor_guard(x13 + (SQRT2 - k) * x16)
            yt = height - k * h1
        else:
            base_k = floor_guard(x13 - (SQRT2 + k) * x16)
            yt = height - (k - 1) * h1
        bands.append({"k": k, "base": base_k, "c": a_len - base_k,
                      "d": base_k + k * h1 * tan_t, "yt": yt, "yb": yt - h1})
    return nb, bands


def _floor_zone_pack(children, f1, h2, x13, tan_t, depth, stats):
    if h2 <= 0.0:
        return
    if h2 < 1.0:
        children.append(waste_node(trap_region(h2, f1, f1 + h2 * tan_t),
                                   "floor sliver"))
        return
    if h2 <= x13 or f1 < 2.0:
        children.append(grid_fill(f1, h2, "pack", label="floor grid"))
    else:
        children.append(_graft(build_strip(f1, h2, depth + 1, stats, "pack"),
                               Pose(f1, 0.0, math.pi / 2)))
    children.append(waste_node(tri_region(h2 * tan_t, h2, Pose(f1, 0.0, 0.0)),
                               "floor sliver"))


def _shelf_pack(spec: ShelfSpec, region: Region, h1: int, depth: int, stats: BuildStats):
    scale, height, a_len, theta = spec.scale, spec.height, spec.top_len, spec.tilt
    tan_t = math.tan(theta)
    x13 = scale ** (1.0 / 3.0)
    nb, bands = _shelf_bands(scale, a_len, h1, height, tan_t, "pack")
    h2 = height - nb * h1
    if h2 < 1e-9:
        h2 = 0.0
    seams: list = []
    children: list = []

    if nb > 0:
        band_children: list = []
        chain_runs: list[StackRun] = []
        chain_children: list = []
        chain_area = 0.0
        ledger: dict = {"slant_sliver_balance": nb * 0.5 * h1 * h1 * tan_t,
                        "band_ends": [], "joints": [], "b_k": []}
        bands[0]["d"] = float(a_len)  # integer by construction of a_len

        for b in bands:
            w_k = b["c"] + b["d"]
            band_children.append(waste_node(
                tri_region(h1 * tan_t, h1, Pose(w_k, b["yb"], 0.0)), "slant sliver"))
            if b["k"] >= 1 and b["c"] >= 1:
                band_children.append(grid_node(
                    rect_region(b["c"], h1, Pose(0.0, b["yb"], 0.0)),
                    (0.0, b["yb"]), h1, int(b["c"]), label="grid column"))
            seams.append((0.0, b["yb"], a_len + (height - b["yb"]) * tan_t, b["yb"]))

        # top band: its width is the integer top edge, fills perfectly
        chain_runs.append(StackRun(base=Pose(0.0, bands[0]["yb"], 0.0),
                                   step=(1.0, 0.0), count=a_len, repeat=h1,
                                   pitch=(0.0, 1.0), label="top band"))
        chain_area += float(a_len) * h1

        seam = None
        for b in bands[1:]:
            k, c, d, yt, yb = b["k"], float(b["c"]), b["d"], b["yt"], b["yb"]
            chain_area += d * h1
            last = k == nb - 1
            placed = False
            if d >= 2.0 and frac_guard(d) > EPS:
                alpha = solve_pack_tilt(d).theta
                n = ceil_guard(d)
                tan_a, sin_a, cos_a = math.tan(alpha), math.sin(alpha), math.cos(alpha)
                p = 1.0 / cos_a
                top_gap = None
                if seam is None:
                    tau = min(WEDGE_TOP * math.sqrt(d), h1 - d * tan_a - p - 0.5)
                    y0 = yt - tau - p if tau >= 1.0 else None
                    top_gap = tau
                else:
                    y0 = _anchor_below_seam(seam, c, d, p, tan_a, yt)
                if last:
                    y_stop = h2 + WEDGE_TOP * math.sqrt(d) + n * sin_a
                elif _next_is_stack(bands, k):
                    y_stop = yb + (bands[k + 1]["c"] - c) * tan_a
                else:
                    y_stop = yb + n * sin_a
                if y0 is not None and y0 >= y_stop:
                    n_stacks = floor_guard((y0 - y_stop) / p) + 1
                    stats.band_tilts.append((scale, k, d, alpha))
                    if top_gap is not None:
                        chain_children.append(_graft(
                            build_wedge(WedgeSpec(d, top_gap, alpha), depth + 1, stats, "pack"),
                            Pose(c + d, yt, math.pi / 2), mirror=True))
                    y_last = y0 - (n_stacks - 1) * p
                    chain_runs.append(StackRun(
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
                        chain_children.append(_graft(
                            build_wedge(WedgeSpec(d, tau_r, alpha), depth + 1, stats, "pack"),
                            Pose(c, h2, -math.pi / 2), mirror=True))
                    seam = {"type": "stack", "cx": c, "y": y_last, "tan": tan_a,
                            "x_edge": c + n * cos_a, "x_region": c + d,
                            "n_sin": n * sin_a}
                    placed = True
            if not placed:
                rows = _safe_rows(seam, c, d, h1, yb)
                cols = floor_guard(d)
                if rows >= 1 and cols >= 1:
                    chain_runs.append(StackRun(base=Pose(c, yb, 0.0), step=(1.0, 0.0),
                                               count=cols, repeat=rows,
                                               pitch=(0.0, 1.0), label=f"band {k} grid"))
                if rows < h1:
                    stats.fallback_bands += 1
                seam = {"type": "flat", "y": yb}

        band_children.append(stacks_node(
            None, chain_runs, leftovers=chain_children, label="stack bands",
            area=chain_area, ledger=ledger))
        children.append(split_node(
            trap_region(nb * h1, a_len, a_len + nb * h1 * tan_t, Pose(0.0, h2, 0.0)),
            band_children, label="band block"))

    f1 = a_len + nb * h1 * tan_t
    _floor_zone_pack(children, f1, h2, x13, tan_t, depth, stats)
    node = split_node(region, children, label="shelf")
    node.seams = seams
    return node


def _next_is_stack(bands, k: int) -> bool:
    nxt = bands[k + 1]
    return nxt["d"] >= 2.0 and frac_guard(nxt["d"]) > EPS


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


def _seam_top(seam, x: float, fallback_y: float) -> float:
    """Height of the covering slab-top line from the family below at x."""
    if seam is None:
        return fallback_y
    if seam["type"] == "flat":
        return seam["y"]
    return seam["y"] - (x - seam["ax"]) * seam["tan"]


def _shelf_cover(spec: ShelfSpec, region: Region, h1: int, depth: int, stats: BuildStats):
    scale, height, a_len, theta = spec.scale, spec.height, spec.top_len, spec.tilt
    tan_t = math.tan(theta)
    x13 = scale ** (1.0 / 3.0)
    t, bands = _shelf_bands(scale, a_len, h1, height, tan_t, "cover")
    h2 = height - t * h1
    if h2 < 1e-9:
        h2 = 0.0
    seams: list = []
    children: list = []

    if t > 0 and any(b["base"] < 2 for b in bands):
        return sliced_trap_fill(height, a_len, a_len + height * tan_t, "cover",
                                label="shelf rows")

    if t > 0:
        band_children: list = []
        chain_runs: list[StackRun] = []
        chain_children: list = []
        chain_area = 0.0
        ledger: dict = {"overshoot_balance": t * 0.5 * h1 * h1 * tan_t,
                        "band_ends": [], "joints": []}
        overshoot = []
        for b in bands:
            if b["c"] >= 1:
                band_children.append(grid_node(
                    rect_region(b["c"], h1, Pose(0.0, b["yb"], 0.0)),
                    (0.0, b["yb"]), h1, int(b["c"]), label="grid column"))
            overshoot.append(tri_region(h1 * tan_t, h1,
                                        Pose(b["c"] + b["d"], b["yt"], math.pi)))
            seams.append((0.0, b["yb"], a_len + (height - b["yb"]) * tan_t, b["yb"]))

        # The chain ascends. Each family hands off once its guaranteed slab
        # covers the lower-right corner of the band above; the next family
        # pitches against the previous slab-top line (the lines are nearly
        # parallel), and the small uncovered triangle over the widening
        # integer column is bridged by an axis-aligned joint grid.
        seam = None  # slab-top line of the family below
        for idx in range(t - 1, -1, -1):
            b = bands[idx]
            k, c, d, yt, yb = b["k"], float(b["c"]), b["d"], b["yt"], b["yb"]
            d_trap = trap_region(h1, d - h1 * tan_t, d, Pose(c, yb, 0.0))
            chain_area += region_area(d_trap)
            first = k == t
            placed = False
            if d >= 2.0 and frac_guard(d) > EPS:
                alpha = solve_cover_tilt(d).theta
                n = ceil_guard(d)
                tan_a, sin_a, cos_a = math.tan(alpha), math.sin(alpha), math.cos(alpha)
                p = 1.0 / cos_a
                ax = c - sin_a
                y0 = None
                if first:
                    tau = min(WEDGE_TOP * math.sqrt(d), h1 - d * tan_a - p - 0.5)
                    if tau >= 1.0:
                        y0 = h2 + tau + (d + sin_a) * tan_a
                        chain_children.append(_graft(
                            build_wedge(WedgeSpec(d, tau, alpha), depth + 1, stats, "cover"),
                            Pose(c, h2, -math.pi / 2), mirror=True))
                else:
                    below = bands[idx + 1]
                    dc = int(below["c"] - b["c"])
                    x_hi = below["c"] + below["d"]
                    y0 = min(_seam_top(seam, x, yb) + (x - ax) * tan_a
                             for x in (float(below["c"]), x_hi))
                    gap = (y0 - sin_a * tan_a) - yb
                    rows = ceil_guard(gap) if gap > 1e-9 else 0
                    if dc >= 1 and rows >= 1:
                        chain_runs.append(StackRun(
                            base=Pose(c, yb, 0.0), step=(1.0, 0.0), count=dc,
                            repeat=rows, pitch=(0.0, 1.0), label=f"joint {k}"))
                        ledger["joints"].append(dc * rows - dc * max(gap - dc * tan_a / 2, 0))
                if y0 is not None:
                    stats.band_tilts.append((scale, k, d, alpha))
                    if k >= 2:
                        above = bands[idx - 1]
                        px = above["c"] + above["d"]
                        need = (yt - p - y0 + (px - ax) * tan_a) / p
                        n_stacks = max(1, ceil_guard(need) + 1)
                    else:
                        target = height - cos_a - WEDGE_TOP * math.sqrt(d)
                        n_stacks = max(1, floor_guard((target - y0) / p) + 1)
                    chain_runs.append(StackRun(
                        base=Pose(ax, y0, -alpha), step=(cos_a, -sin_a), count=n,
                        repeat=n_stacks, pitch=(0.0, p), label=f"band {k}"))
                    ledger["band_ends"].append(n_stacks * tan_a)
                    y_last = y0 + (n_stacks - 1) * p
                    if k == 1:
                        tau_top = height - y_last - cos_a
                        if tau_top > 1e-9:
                            chain_children.append(_graft(
                                build_wedge(WedgeSpec(d, tau_top, alpha), depth + 1, stats,
                                            "cover"),
                                Pose(c + d, height, math.pi / 2), mirror=True))
                    seam = {"type": "stack", "ax": ax, "y": y_last + p, "tan": tan_a}
                    placed = True
            if not placed:
                chain_runs.append(StackRun(base=Pose(c, yb, 0.0), step=(1.0, 0.0),
                                           count=ceil_guard(d), repeat=h1,
                                           pitch=(0.0, 1.0), label=f"band {k} grid"))
                if d >= 2.0 and frac_guard(d) > EPS:
                    stats.fallback_bands += 1
                seam = {"type": "flat", "y": yt}

        band_children.append(stacks_node(
            None, chain_runs, leftovers=chain_children, label="stack bands",
            area=chain_area, overshoot=overshoot, ledger=ledger))
        children.append(split_node(
            trap_region(t * h1, a_len, a_len + t * h1 * tan_t, Pose(0.0, h2, 0.0)),
            band_children, label="band block"))

    if h2 > 0.0:
        f1 = a_len + height * tan_t
        f_top = a_len + t * h1 * tan_t
        if h2 <= x13 or f1 < 2.0 or h2 < 2.0 * ceil_guard(f1):
            fnode = grid_node(trap_region(h2, f_top, f1), (0.0, 0.0), ceil_guard(h2),
                              ceil_guard(f1), label="floor grid")
        else:
            # the strip stands on its side and overshoots the floor trapezoid;
            # the node keeps the trapezoid as its region, written in the
            # strip's own frame (the inverse of the graft below)
            fnode = build_strip(f1, h2, depth + 1, stats, "cover")
            fnode.region = trap_region(h2, f_top, f1, Pose(0.0, f1, -math.pi / 2))
            fnode.area = region_area(fnode.region)
            _graft(fnode, Pose(f1, 0.0, math.pi / 2))
        children.append(fnode)
    node = split_node(region, children, label="shelf")
    node.seams = seams
    return node
