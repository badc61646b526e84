from __future__ import annotations

import math

import numpy as np
import pytest

from sqpack.tilt import (
    TiltError, _residual, solve_cover_tilt, solve_pack_tilt,
)
from oracles import bisect_tilt

SQRT2 = math.sqrt(2.0)


def test_integer_width_is_upright():
    assert solve_pack_tilt(7.0).theta == 0.0
    assert solve_cover_tilt(7.0).theta == 0.0


def test_pack_tilt_frozen_values():
    # frozen from the bisection oracle at 1e-13 tolerance
    assert abs(solve_pack_tilt(10.5).theta - 0.406211506743381) < 1e-11
    assert abs(solve_pack_tilt(100.5).theta - 0.10993500689561009) < 1e-11


def test_cover_tilt_frozen_values():
    assert abs(solve_cover_tilt(10.5).theta - 0.22489173234189058) < 1e-11
    assert abs(solve_cover_tilt(100.5).theta - 0.0901336737196336) < 1e-11


def test_stack_tilt_frozen_value():
    # band width for a million-scale shelf with tilt 1e-3; shelf bands use
    # the packing tilt
    assert abs(solve_pack_tilt(104.099).theta - 0.14096431663827852) < 1e-11


def test_stack_tilt_integer_width():
    assert solve_pack_tilt(104.0).theta == 0.0


def test_residuals_within_tolerance():
    for m in [2.5, 4.1, 10.5, 33.175, 104.099, 5623.5, 1e6 + 0.5]:
        t = solve_pack_tilt(m)
        assert abs(_residual(m, t.n, t.theta, 1.0)) <= 1e-12
        t = solve_cover_tilt(m)
        assert abs(_residual(m, t.n, t.theta, -1.0)) <= 1e-12


def test_rejects_small_widths():
    with pytest.raises(TiltError):
        solve_pack_tilt(1.5)


def test_oracle_equivalence_random_widths():
    rng = np.random.RandomState(5)
    for _ in range(2000):
        m = float(np.exp(rng.uniform(np.log(4.0), np.log(1e6))))
        if abs(m - round(m)) < 1e-9:
            continue
        assert abs(solve_pack_tilt(m).theta - bisect_tilt(m, "pack")) < 1e-11
        assert abs(solve_cover_tilt(m).theta - bisect_tilt(m, "cover")) < 1e-11


def test_leading_order_law():
    # theta * sqrt(m) approaches sqrt(2 * (1 - r)); the first correction is
    # about 1/sqrt(m), so a 3/sqrt(m) envelope holds from m = 100 up
    for r in (0.1, 0.5, 0.9):
        for base in np.geomspace(100, 1e8, 40):
            m = math.floor(base) + r
            theta = solve_pack_tilt(m).theta
            assert abs(theta * math.sqrt(m) - math.sqrt(2 * (1 - r))) <= 3 / math.sqrt(m)


def test_tilt_bound_holds_at_large_widths():
    # the sqrt(2) * m**-1/2 envelope holds for every tested r once m is
    # large enough; at small m with small fractional part it genuinely fails
    for r in (0.1, 0.5, 0.9, 0.99):
        for base in np.geomspace(256, 1e8, 30):
            m = math.floor(base) + r
            assert 0 < solve_pack_tilt(m).theta < SQRT2 * m ** -0.5
            assert 0 < solve_cover_tilt(m).theta < SQRT2 * m ** -0.5


def test_cover_tilt_always_under_envelope():
    for r in (0.01, 0.1, 0.5, 0.9, 0.99):
        for base in np.geomspace(4, 1e8, 40):
            m = math.floor(base) + r
            if m < 2:
                continue
            assert solve_cover_tilt(m).theta < SQRT2 * m ** -0.5


def test_pack_tilt_bound_fails_below_crossover():
    # documented spec finding: the envelope is asymptotic, not universal
    theta = solve_pack_tilt(4.1).theta
    assert theta > SQRT2 * 4.1 ** -0.5


def test_alpha_diagnostics_frozen_example():
    # band k=1 of a shelf at x=1e6 with tilt 1e-3 has width d_1 = 104.099;
    # its tilt alpha_1 is sqrt(2) x**(-1/6) plus an x**(-1/2) correction
    # whose coefficient is about -0.457
    x, k, theta = 1e6, 1, 1e-3
    alpha = solve_pack_tilt(104.099).theta
    leading = SQRT2 * x ** (-1 / 6)
    assert abs(alpha - 0.14096431663827852) < 1e-9
    assert abs(leading - SQRT2 * 1e-1) < 1e-12
    assert abs((alpha - leading) * math.sqrt(x) - (-0.457)) < 5e-3
    assert alpha > 0.0
    # the series terms beta = k x**(-1/6) and gamma = x**(1/3) k r' tan(theta),
    # with r' = frac(x**(-1/6) / tan(theta)), lie in their ranges
    r_prime = x ** (-1 / 6) / math.tan(theta) % 1.0
    beta = k * x ** (-1 / 6)
    gamma = x ** (1 / 3) * k * r_prime * math.tan(theta)
    assert 0 <= beta < SQRT2 / 2 + 0.01
    assert 0 <= gamma < 1 + 0.01


def test_alpha_diagnostics_degenerate_band():
    # an integer band width leaves the band upright: alpha_2 = 0
    assert solve_pack_tilt(104.0).theta == 0.0


@pytest.mark.parametrize("x, theta, ks, bound", [
    (1e6, 1e-3, (1, 2, 3, 4), 5.0),
    (1e8, 10 ** -4.5, (1,), 10.0),
], ids=["1e6", "1e8"])
def test_band_tilt_leading_order(x, theta, ks, bound):
    # the band tilt alpha_k of shelf band k is sqrt(2) * x**(-1/6) to leading
    # order; the x**(-1/2) correction coefficient stays within a few units
    h1 = math.floor(x ** (-1 / 6) / math.tan(theta))
    for k in ks:
        d_k = math.floor(x ** (1 / 3) + (SQRT2 - k) * x ** (1 / 6)) + k * h1 * math.tan(theta)
        assert d_k != math.floor(d_k)
        alpha = solve_pack_tilt(d_k).theta
        assert abs(alpha - SQRT2 * x ** (-1 / 6)) * math.sqrt(x) <= bound
