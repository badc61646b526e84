"""Deterministic SVG rendering of plans.

Output is byte-stable for identical input: fixed float formatting, fixed
element order, no timestamps. Squares render as polygons; waste regions
are shaded; `outline_only` draws just the region decomposition.
"""

from __future__ import annotations

from .geometry import corners
from .plan import Plan, enumerate_placements, walk

_F = "{:.6f}".format

SQUARE_STYLE = 'fill="#9ecae1" stroke="#3182bd" stroke-width="0.02"'
WASTE_STYLE = 'fill="#fcae91" stroke="#cb4335" stroke-width="0.03"'
REGION_STYLE = 'fill="none" stroke="#636363" stroke-width="0.05"'
COVER_STYLE = 'fill="#a1d99b" fill-opacity="0.55" stroke="#31a354" stroke-width="0.02"'


def _poly(points, style: str) -> str:
    pts = " ".join(f"{_F(x)},{_F(y)}" for x, y in points)
    return f'<polygon points="{pts}" {style}/>'


def plan_to_svg(plan: Plan, outline_only: bool = False, limit: int = 200_000) -> str:
    poly = plan.region.polygon()
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    margin = 1.0
    min_x, max_x = min(xs) - margin, max(xs) + margin
    min_y, max_y = min(ys) - margin, max(ys) + margin
    w = max_x - min_x
    h = max_y - min_y

    body: list[str] = []
    body.append(_poly(poly, 'fill="#ffffff" stroke="#000000" stroke-width="0.08"'))
    if not outline_only:
        poses = enumerate_placements(plan, limit)  # raises OverLimit when too big
        style = SQUARE_STYLE if plan.kind == "pack" else COVER_STYLE
        body.extend(_poly(quad, style) for quad in corners(poses).tolist())
    body.extend(_poly(n.region.grafted(frame).polygon(),
                      WASTE_STYLE if n.kind == "waste" else REGION_STYLE)
                for n, frame in walk(plan.root) if n.region is not None)

    # flip y so the world's up is the screen's up
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_F(w)}" height="{_F(h)}" '
        f'viewBox="{_F(min_x)} {_F(-max_y)} {_F(w)} {_F(h)}">\n'
        f'<g transform="scale(1,-1)">\n'
    )
    return head + "\n".join(body) + "\n</g>\n</svg>\n"
