"""Planar primitives: poses, unit-square corners, regions.

Everything is double precision. Predicates take an explicit tolerance so
flush contact (shared edges) can be treated as disjoint. Floor/ceil of
derived real quantities go through guarded versions so representation
noise cannot flip an integer part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FLOOR_EPS = 1e-12


def floor_guard(v: float) -> int:
    """Floor that forgives noise just below an integer."""
    return math.floor(v + FLOOR_EPS)


def ceil_guard(v: float) -> int:
    """Ceil that forgives noise just above an integer."""
    return math.ceil(v - FLOOR_EPS)


def frac_guard(v: float) -> float:
    """Fractional part consistent with floor_guard; clamped to [0, 1)."""
    f = v - floor_guard(v)
    if f < 0.0:
        return 0.0
    if f >= 1.0:
        return 0.0
    return f


@dataclass(frozen=True, slots=True)
class Pose:
    """Rigid placement: rotate by `angle`, then translate by (tx, ty).

    Square placements keep |angle| <= pi/2; region frames may use any angle.
    """

    tx: float
    ty: float
    angle: float

    def apply(self, x: float, y: float) -> tuple[float, float]:
        c = math.cos(self.angle)
        s = math.sin(self.angle)
        return (self.tx + c * x - s * y, self.ty + s * x + c * y)

    def compose(self, inner: "Pose") -> "Pose":
        """Pose equivalent to applying `inner` first, then self."""
        tx, ty = self.apply(inner.tx, inner.ty)
        return Pose(tx, ty, self.angle + inner.angle)


IDENTITY = Pose(0.0, 0.0, 0.0)


def compose_graft(outer: tuple[Pose, bool], inner: tuple[Pose, bool]) -> tuple[Pose, bool]:
    """One (frame, mirror) map equal to applying `inner`, then `outer`.

    A (frame, mirror) pair reflects across local x = 0 when `mirror` is set,
    then applies `frame`. Pulling a reflection through a frame reflects the
    frame: M . f = reflect(f) . M with reflect(f) = Pose(-tx, ty, -angle).
    """
    (f1, m1), (f2, m2) = outer, inner
    if m1:
        f2 = Pose(-f2.tx, f2.ty, -f2.angle)
    return f1.compose(f2), m1 != m2


def corners(poses: np.ndarray) -> np.ndarray:
    """(N, 4, 2) counterclockwise corners of unit squares for (N, 3) poses."""
    c = np.cos(poses[:, 2])
    s = np.sin(poses[:, 2])
    base = poses[:, :2]
    out = np.empty((len(poses), 4, 2))
    out[:, 0] = base
    out[:, 1, 0] = base[:, 0] + c
    out[:, 1, 1] = base[:, 1] + s
    out[:, 2, 0] = base[:, 0] + c - s
    out[:, 2, 1] = base[:, 1] + s + c
    out[:, 3, 0] = base[:, 0] - s
    out[:, 3, 1] = base[:, 1] + c
    return out


@dataclass(frozen=True, slots=True)
class Region:
    """Rectangle, right trapezoid or right triangle placed by a frame.

    Each is the right trapezoid `trap` = (h, a_top, a_bot), counterclockwise
    (0,0) (a_bot,0) (a_top,h) (0,h): a vertical left side, a slant right side
    and the narrow parallel edge on top (a_bot >= a_top). A rect (w, h) is
    (h, w, w); a tri (u, v) is (v, 0, u), the polygon (0,0) (u,0) (0,v) with
    the right angle at the origin.

    `mirror` reflects the local shape across x = 0 before the frame is
    applied; a mirrored right trapezoid is not a rotation of the canonical
    one, so the flag is required to place both chiralities.
    """

    kind: str
    dims: tuple
    frame: Pose = IDENTITY
    mirror: bool = False

    @property
    def trap(self) -> tuple[float, float, float]:
        """The right trapezoid (h, a_top, a_bot) this region is."""
        if self.kind == "trap":
            return self.dims
        if self.kind == "rect":
            return self.dims[1], self.dims[0], self.dims[0]
        if self.kind == "tri":
            return self.dims[1], 0.0, self.dims[0]
        raise ValueError(f"unknown region kind {self.kind!r}")

    def local_polygon(self) -> list[tuple[float, float]]:
        h, a_top, a_bot = self.trap
        poly = [(0.0, 0.0), (a_bot, 0.0), (a_top, h), (0.0, h)]
        if self.kind == "tri":
            del poly[2]  # the apex (a_top, h) is (0, h) again
        if self.mirror:
            poly = [(-x, y) for x, y in reversed(poly)]
        return poly

    def polygon(self) -> list[tuple[float, float]]:
        return [self.frame.apply(x, y) for x, y in self.local_polygon()]

    def grafted(self, graft: tuple[Pose, bool]) -> "Region":
        """This region mapped by the (frame, mirror) map `graft`."""
        return Region(self.kind, self.dims, *compose_graft(graft, (self.frame, self.mirror)))


def rect_region(w: float, h: float, frame: Pose = IDENTITY,
                mirror: bool = False) -> Region:
    if w <= 0 or h <= 0:
        raise ValueError(f"rect dims must be positive, got {w} x {h}")
    return Region("rect", (float(w), float(h)), frame, mirror)


def trap_region(h: float, a_top: float, a_bot: float, frame: Pose = IDENTITY,
                mirror: bool = False) -> Region:
    if h <= 0 or a_bot <= 0 or a_top < 0 or a_bot + 1e-12 < a_top:
        raise ValueError(f"bad trapezoid dims h={h} top={a_top} bot={a_bot}")
    return Region("trap", (float(h), float(a_top), float(a_bot)), frame, mirror)


def tri_region(u: float, v: float, frame: Pose = IDENTITY,
               mirror: bool = False) -> Region:
    if u <= 0 or v <= 0:
        raise ValueError(f"triangle legs must be positive, got {u}, {v}")
    return Region("tri", (float(u), float(v)), frame, mirror)


def region_area(region: Region) -> float:
    h, a_top, a_bot = region.trap
    return h * (a_top + a_bot) / 2.0


def points_in_region(region: Region, pts: np.ndarray, tau: float) -> np.ndarray:
    """Membership mask for (N, 2) points with a signed tolerance: tau > 0
    inflates the region, tau < 0 deflates it."""
    fr = region.frame
    c, s = math.cos(fr.angle), math.sin(fr.angle)
    dx = pts[:, 0] - fr.tx
    dy = pts[:, 1] - fr.ty
    x = c * dx + s * dy
    y = -s * dx + c * dy
    if region.mirror:
        x = -x
    h, a_top, a_bot = region.trap
    ex = a_top - a_bot  # the slant edge (a_bot,0) -> (a_top,h) has outward normal (h, -ex)
    slant = (h * (x - a_bot) - ex * y) / math.hypot(ex, h) <= tau
    return (x >= -tau) & (y >= -tau) & (y <= h + tau) & slant
