"""Covering plans: unit squares whose union contains the target region.

Overlap is allowed and squares may overshoot the target; the shared
decomposition discipline is mirrored from the packer with overshooting
stacks, a reduced integer shelf top edge, and integer-height joint grids.
"""

from __future__ import annotations

from .builders import (
    BuildStats, InvalidSpec, PanelSpec, ShelfSpec, WedgeSpec,
    base_grid, build_panel, build_rect, build_shelf, build_strip, build_wedge,
    check_side, grid_fill,
)
from .config import PackConfig
from .geometry import Region, rect_region
from .plan import Plan, PlanNode
from .packer import _finish

__all__ = [
    "cover_square", "cover_rect", "cover_panel", "cover_strip", "cover_wedge",
    "cover_shelf", "cover_base_grid",
]


def cover_square(x: float, cfg: PackConfig = PackConfig()) -> Plan:
    """Covering plan for a square target of side x."""
    check_side(x)
    if x <= 0.0:
        raise InvalidSpec(f"target side must be positive, got {x}")
    stats = BuildStats()
    region = rect_region(x, x)
    if x <= cfg.base_cutoff:
        node = grid_fill(x, x, "cover", label="square grid")
    else:
        node = build_panel(PanelSpec(x, x, cfg.aspect_limit), cfg, 0, stats,
                                  "cover")
    return _finish(x, region, node, stats, kind="cover")


def cover_rect(w: float, h: float, cfg: PackConfig = PackConfig()) -> Plan:
    stats = BuildStats()
    node = build_rect(w, h, cfg, 0, stats, "cover")
    return _finish(max(w, h), rect_region(w, h), node, stats, kind="cover")


def cover_panel(spec: PanelSpec, cfg: PackConfig = PackConfig()) -> Plan:
    stats = BuildStats()
    node = build_panel(spec, cfg, 0, stats, "cover")
    return _finish(spec.length, rect_region(spec.length, spec.width), node, stats, kind="cover")


def cover_strip(m: float, L: float, cfg: PackConfig = PackConfig()) -> Plan:
    stats = BuildStats()
    node = build_strip(m, L, cfg, 0, stats, "cover")
    return _finish(m, rect_region(L, m), node, stats, kind="cover")


def cover_wedge(spec: WedgeSpec, cfg: PackConfig = PackConfig()) -> Plan:
    stats = BuildStats()
    node = build_wedge(spec, cfg, 0, stats, "cover")
    return _finish(spec.height, None, node, stats, kind="cover")


def cover_shelf(spec: ShelfSpec, cfg: PackConfig = PackConfig()) -> Plan:
    if spec.mode != "cover":
        raise InvalidSpec("cover_shelf expects mode='cover'")
    stats = BuildStats()
    node = build_shelf(spec, cfg, 0, stats)
    return _finish(spec.scale, None, node, stats, kind="cover")


def cover_base_grid(region: Region) -> PlanNode:
    """Ceil-sized grid anchored at the right-angle corner; covers the region."""
    return base_grid(region, "cover")
