"""Tilt angles for stacks of unit squares spanning a strip of real width.

A stack of n = ceil(m) unit squares is a 1 x n rectangle. Tilted by theta,
its bounding height is n*cos(theta) + sin(theta); a packing stack spans a
strip of width m exactly when

    n*cos(theta) + sin(theta) = m          (packing)

and a covering stack keeps a full width-1 cross-section across the strip
exactly when

    n*cos(theta) - sin(theta) = m          (covering).

Both equations are solved in closed form through the phase-shift identity
n*cos(t) + sin(t) = sqrt(n^2+1) * cos(t - atan(1/n)), then polished with
Newton steps. The smallest non-negative root is returned: the construction
wants stacks as close to upright as possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ceil_guard, frac_guard

RESIDUAL_TOL = 1e-12


class TiltError(ValueError):
    pass


@dataclass(frozen=True)
class StripTilt:
    n: int
    theta: float


def pack_residual(m: float, n: int, theta: float) -> float:
    """n*cos(t) + sin(t) - m, written so every term is O(1).

    The naive form loses the whole tolerance budget to cancellation once m
    is large: n*cos(t) carries an eps*m rounding error. Using
    n*cos(t) - m = (n - m) - 2*n*sin(t/2)**2 keeps the evaluation exact to
    machine precision at any width (n - m is an exact IEEE subtraction).
    """
    s = math.sin(theta / 2.0)
    return (n - m) - 2.0 * n * s * s + math.sin(theta)


def cover_residual(m: float, n: int, theta: float) -> float:
    """n*cos(t) - sin(t) - m in the same cancellation-free form."""
    s = math.sin(theta / 2.0)
    return (n - m) - 2.0 * n * s * s - math.sin(theta)


def _solve(m: float, kind: str) -> StripTilt:
    if m < 2.0:
        raise TiltError(f"strip width must be >= 2, got {m}")
    n = ceil_guard(m)
    if frac_guard(m) <= 1e-12:
        return StripTilt(n=int(round(m)), theta=0.0)

    phase = math.atan2(1.0, n)
    ratio = m / math.sqrt(n * n + 1.0)
    ratio = min(1.0, max(-1.0, ratio))
    if kind == "pack":
        theta = phase + math.acos(ratio)
        resid, dresid = pack_residual, lambda t: -n * math.sin(t) + math.cos(t)
    else:
        theta = math.acos(ratio) - phase
        resid, dresid = cover_residual, lambda t: -n * math.sin(t) - math.cos(t)

    for _ in range(3):
        f = resid(m, n, theta)
        df = dresid(theta)
        if abs(df) < 1e-6:
            break
        theta -= f / df

    if theta < 0.0 and theta > -1e-13:
        theta = 0.0
    f = resid(m, n, theta)
    if not (0.0 <= theta < math.pi / 2) or abs(f) > RESIDUAL_TOL:
        raise TiltError(f"tilt solve failed for m={m} kind={kind}: theta={theta} residual={f}")
    return StripTilt(n=n, theta=theta)


def solve_pack_tilt(m: float) -> StripTilt:
    """Smallest non-negative root of n*cos(t) + sin(t) = m, n = ceil(m)."""
    return _solve(m, "pack")


def solve_cover_tilt(m: float) -> StripTilt:
    """Smallest non-negative root of n*cos(t) - sin(t) = m, n = ceil(m)."""
    return _solve(m, "cover")
