from __future__ import annotations

import math

import numpy as np
import pytest

from sqpack.builders import InvalidSpec, PanelSpec, ShelfSpec, WedgeSpec, shelf_top_len
from sqpack.config import PackConfig
from sqpack.geometry import trap_region
from sqpack.planner import (
    cover_panel, cover_shelf, cover_square, cover_strip, cover_wedge,
)
from sqpack.plan import account, check_bound
from sqpack.tilt import solve_cover_tilt
from sqpack.verifier import verify_covering

SQRT2 = math.sqrt(2.0)
CFG = PackConfig()


def test_cover_square_integer_exact():
    for x in (50, 400, 1000):
        rep = account(cover_square(float(x)))
        assert rep.square_count == x * x
        assert rep.waste_or_excess == 0.0


def test_cover_square_base_case_excess():
    rep = account(cover_square(50.5))
    assert rep.square_count == 51 * 51
    assert rep.waste_or_excess == pytest.approx(2601 - 50.5 ** 2)


def test_cover_square_recursive_verifies():
    plan = cover_square(400.5)
    rep = account(plan)
    assert rep.waste_or_excess <= (16 * SQRT2 + 38) * 400.5 ** 0.625
    vr = verify_covering(plan, cfg=CFG)
    assert vr.passed and vr.sampled_points > 0


def test_cover_strip_integer_width():
    rep = account(cover_strip(5.0, 100.0))
    assert rep.square_count == 500 and rep.waste_or_excess == 0.0


def test_cover_strip_tilted_covers():
    m, L = 10.5, 1000.0
    plan = cover_strip(m, L)
    theta = solve_cover_tilt(m).theta
    assert plan.root.runs[0].base.angle == pytest.approx(theta)
    vr = verify_covering(plan, cfg=CFG)
    assert vr.passed


def test_cover_strip_excess_ratio():
    m, L = 100.5, 10000.0
    rep = account(cover_strip(m, L))
    assert rep.waste_or_excess >= 0
    assert rep.waste_or_excess / (m * L) < 0.01


def test_cover_panel_mirrors_packing_partition():
    plan = cover_panel(PanelSpec(1024.0, 900.5))
    rep = account(plan)
    assert check_bound(rep, "panel").passed
    assert verify_covering(plan, cfg=CFG).passed


def test_cover_wedge_meets_growth_bound():
    x = 1e4
    theta = 0.7 * SQRT2 * x ** -0.5
    plan = cover_wedge(WedgeSpec(x, 2.0 * math.sqrt(x), theta))
    rep = account(plan)
    assert check_bound(rep, "wedge").passed


def test_cover_shelf_million_example_values():
    # reduced integer top edge and band height at scale one million
    x, theta = 1e6, 1e-3
    assert shelf_top_len(x, "cover") == 85
    h1 = math.floor(x ** (-1 / 6) / math.tan(theta))
    assert h1 == 99
    assert 0.5 * h1 ** 2 * math.tan(theta) == pytest.approx(0.5 * 99 ** 2 * 0.001,
                                                            abs=1e-4)


def test_cover_shelf_zero_tilt_routes_to_rect():
    plan = cover_shelf(ShelfSpec(1e4, 50.0, shelf_top_len(1e4, "cover"), 0.0))
    rep = account(plan)
    assert rep.waste_or_excess >= 0
    assert verify_covering(plan, cfg=CFG).passed


def _same_outline(r1, r2):
    return sorted(np.round(r1.polygon(), 9).tolist()) == \
        sorted(np.round(r2.polygon(), 9).tolist())


def test_cover_zero_tilt_panel_route_keeps_world_region():
    # the rect router grafts a turned panel into the root: the plan region
    # must be the mapped one, or coverage is checked on the wrong outline
    plan = cover_wedge(WedgeSpec(150.0, 300.0, 0.0))
    assert _same_outline(plan.region, trap_region(150.0, 300.0, 300.0))
    assert verify_covering(plan, cfg=CFG).passed
    top = shelf_top_len(1e8, "cover")
    plan = cover_shelf(ShelfSpec(1e8, 150.0, top, 0.0))
    assert 150.0 < top <= 7 * 150.0
    assert _same_outline(plan.region, trap_region(150.0, top, top))
    assert verify_covering(plan, cfg=CFG).passed


def test_cover_shelf_bound_and_coverage():
    for x, f in ((1e4, 1.0), (1e6, 1.0), (1e6, 0.3)):
        theta = f * SQRT2 * x ** -0.5
        spec = ShelfSpec(x, float(round(0.5 * math.sqrt(x))),
                         shelf_top_len(x, "cover"), theta)
        plan = cover_shelf(spec)
        rep = account(plan)
        assert check_bound(rep, "shelf").passed
        assert verify_covering(plan, cfg=CFG).passed


def test_cover_shelf_overshoot_ledger():
    x = 1e6
    theta = SQRT2 * x ** -0.5
    spec = ShelfSpec(x, 500.0, shelf_top_len(x, "cover"), theta)
    plan = cover_shelf(spec)
    block = next(c for c in plan.root.children if c.label == "band block")
    chain = next(c for c in block.children if c.label == "stack bands")
    assert chain.ledger["overshoot_balance"] <= 0.25 * x ** (1 / 3) * 1.01
    assert chain.overshoot, "overshoot corridors recorded"


def test_cover_joint_grid_rows_match_gap():
    # joint grids between bands use integer-width columns: c_{k-1} - c_k is
    # an exact integer by construction
    x = 1e6
    x13, x16 = x ** (1 / 3), x ** (1 / 6)
    cs = [math.floor(x13 + SQRT2 * x16) - math.floor(x13 - (SQRT2 + k) * x16)
          for k in range(1, 5)]
    for a, b in zip(cs, cs[1:]):
        assert isinstance(b - a, int) and b - a >= 1


def test_cover_square_rejects_nonpositive():
    with pytest.raises(InvalidSpec):
        cover_square(0.0)


def test_random_sizes_cover_and_meet_bound():
    import numpy as np
    rng = np.random.RandomState(77)
    for _ in range(3):
        x = float(rng.uniform(101, 700))
        plan = cover_square(x)
        rep = account(plan)
        assert check_bound(rep, "square").passed, x
        assert verify_covering(plan, cfg=CFG).passed, x


def test_cover_shelf_floor_strip_keeps_its_trapezoid_in_place():
    # a shallow tilt gives h1 > height: no bands, the whole shelf is a floor
    # zone tall enough to be filled by a strip stood on its side
    a_len = shelf_top_len(10000.0, "cover")
    tan_t = 0.004
    spec = ShelfSpec(10000.0, 40.0, a_len, math.atan(tan_t))
    plan = cover_shelf(spec)
    floor = plan.root.children[-1]
    assert floor.label == "strip"
    expected = trap_region(40.0, a_len, a_len + 40.0 * tan_t).polygon()
    assert np.allclose(floor.region.polygon(), expected, atol=1e-9)
    assert account(plan).waste_or_excess >= 0.0
    assert verify_covering(plan, cfg=CFG).passed


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), 1e300])
def test_cover_square_rejects_x_outside_domain(x):
    with pytest.raises(InvalidSpec):
        cover_square(x)
