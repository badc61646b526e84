"""Packing plans: non-overlapping unit squares inside a target region."""

from __future__ import annotations

from .builders import (
    BuildStats, InvalidSpec, PanelSpec, ShelfSpec, WedgeSpec,
    base_grid, build_panel, build_rect, build_shelf, build_strip, build_wedge,
    check_side, grid_fill, partition_panel, shelf_top_len,
)
from .config import PackConfig
from .geometry import Region, rect_region
from .plan import Plan, PlanNode, resolve_grafts, waste_node

__all__ = [
    "PanelSpec", "WedgeSpec", "ShelfSpec", "InvalidSpec", "BuildStats",
    "pack_square", "pack_rect", "pack_panel", "pack_strip", "pack_wedge",
    "pack_shelf", "pack_base_grid", "partition_panel", "shelf_top_len",
]


def _finish(x: float, region: Region | None, node: PlanNode, stats: BuildStats,
            kind: str = "pack") -> Plan:
    """Map the built tree into world coordinates (once) and wrap it in a plan.
    A region of None means the root's own region, taken after the mapping."""
    seams = resolve_grafts(node)
    if region is None:
        region = node.region
    meta = {"stats": {"max_depth": stats.max_depth,
                      "fallback_bands": stats.fallback_bands,
                      "joint_max": stats.joint_max},
            "band_tilts": [list(t) for t in stats.band_tilts]}
    return Plan(kind=kind, x=x, region=region, root=node, seams=seams, meta=meta)


def pack_square(x: float, cfg: PackConfig = PackConfig()) -> Plan:
    """Plan for a square target of side x."""
    check_side(x)
    if x < 1.0:
        region = rect_region(max(x, 1e-9), max(x, 1e-9))
        return _finish(x, region, waste_node(region, "target below unit size"),
                       BuildStats())
    stats = BuildStats()
    region = rect_region(x, x)
    if x <= cfg.base_cutoff:
        node = grid_fill(x, x, "pack", label="square grid")
    else:
        node = build_panel(PanelSpec(x, x, cfg.aspect_limit), cfg, 0, stats,
                                  "pack")
    return _finish(x, region, node, stats)


def pack_rect(w: float, h: float, cfg: PackConfig = PackConfig()) -> Plan:
    stats = BuildStats()
    node = build_rect(w, h, cfg, 0, stats, "pack")
    return _finish(max(w, h), rect_region(w, h), node, stats)


def pack_panel(spec: PanelSpec, cfg: PackConfig = PackConfig()) -> Plan:
    stats = BuildStats()
    node = build_panel(spec, cfg, 0, stats, "pack")
    return _finish(spec.length, rect_region(spec.length, spec.width), node, stats)


def pack_strip(m: float, L: float, cfg: PackConfig = PackConfig()) -> Plan:
    stats = BuildStats()
    node = build_strip(m, L, cfg, 0, stats, "pack")
    return _finish(m, rect_region(L, m), node, stats)


def pack_wedge(spec: WedgeSpec, cfg: PackConfig = PackConfig()) -> Plan:
    stats = BuildStats()
    node = build_wedge(spec, cfg, 0, stats, "pack")
    return _finish(spec.height, None, node, stats)


def pack_shelf(spec: ShelfSpec, cfg: PackConfig = PackConfig()) -> Plan:
    if spec.mode != "pack":
        raise InvalidSpec("pack_shelf expects mode='pack'")
    stats = BuildStats()
    node = build_shelf(spec, cfg, 0, stats)
    return _finish(spec.scale, None, node, stats)


def pack_base_grid(region: Region) -> PlanNode:
    """Largest anchored grid in a rectangle, trapezoid or triangle."""
    return base_grid(region, "pack")
