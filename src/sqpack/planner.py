"""The planner: one entry point for packing and covering plans of every shape.

A packing places non-overlapping unit squares inside the target; a covering
places unit squares whose union contains it, with overlap and overshoot
allowed. Both kinds share one decomposition (`builders`) and differ only in
the `kind` every builder receives: floor versus ceil, and the sign of the
tilt equation.
"""

from __future__ import annotations

from functools import partial

from .builders import (
    BuildStats, InvalidSpec, PanelSpec, build_panel, build_rect, build_shelf,
    build_strip, build_wedge, check_side, grid_fill,
)
from .config import BASE_CUTOFF
from .geometry import rect_region
from .plan import Plan, gc_paused, resolve_grafts, waste_node


def _square(x, depth, stats, kind):
    """A grid up to the base cutoff, one square panel above it; a packing of
    a target below unit size is all waste."""
    if kind == "pack" and x < 1.0:
        return waste_node(rect_region(x, x), "target below unit size")
    if x <= BASE_CUTOFF:
        return grid_fill(x, x, kind, label="square grid")
    return build_panel(PanelSpec(x, x), depth, stats, kind)


# shape -> (builder, sides, nominal scale, target region), each taking the
# shape's dims; a region of None means the root's own region once grafts are
# resolved
_SHAPES = {
    "square": (_square, lambda x: (x,), lambda x: x, None),
    "rect": (build_rect, lambda w, h: (w, h), max, rect_region),
    "panel": (build_panel, lambda spec: (spec.length, spec.width), lambda spec: spec.length,
              lambda spec: rect_region(spec.length, spec.width)),
    "strip": (build_strip, lambda m, L: (m, L), lambda m, L: m,
              lambda m, L: rect_region(L, m)),
    "wedge": (build_wedge, lambda spec: (spec.height,), lambda spec: spec.height, None),
    "shelf": (build_shelf, lambda spec: (spec.scale, spec.height), lambda spec: spec.scale, None),
}


def build_plan(kind: str, shape: str, *dims) -> Plan:
    """Build the `kind` ("pack" or "cover") plan for a target `shape`:
    square (x), rect (w, h), panel (PanelSpec), strip (m, L), wedge
    (WedgeSpec) or shelf (ShelfSpec). It reads no settings: the scale of
    the grid base case is the constant `BASE_CUTOFF`. Every side passes
    `check_side` first. The tree is mapped into world coordinates once, here."""
    if kind not in ("pack", "cover") or shape not in _SHAPES:
        raise InvalidSpec(f"unknown plan kind or shape: {kind!r}, {shape!r}")
    build, sides, scale, region = _SHAPES[shape]
    for side in sides(*dims):
        check_side(side)
    stats = BuildStats()
    with gc_paused():
        root = build(*dims, 0, stats, kind)
        seams = resolve_grafts(root)
    meta = {"stats": {"max_depth": stats.max_depth,
                      "fallback_bands": stats.fallback_bands,
                      "joint_max": stats.joint_max},
            "band_tilts": [list(t) for t in stats.band_tilts]}
    target = root.region if region is None else region(*dims)
    return Plan(kind=kind, x=scale(*dims), region=target, root=root, seams=seams, meta=meta)


pack_square = partial(build_plan, "pack", "square")
pack_rect = partial(build_plan, "pack", "rect")
pack_panel = partial(build_plan, "pack", "panel")
pack_strip = partial(build_plan, "pack", "strip")
pack_wedge = partial(build_plan, "pack", "wedge")
pack_shelf = partial(build_plan, "pack", "shelf")
cover_square = partial(build_plan, "cover", "square")
cover_rect = partial(build_plan, "cover", "rect")
cover_panel = partial(build_plan, "cover", "panel")
cover_strip = partial(build_plan, "cover", "strip")
cover_wedge = partial(build_plan, "cover", "wedge")
cover_shelf = partial(build_plan, "cover", "shelf")
