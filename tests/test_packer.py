from __future__ import annotations

import math

import numpy as np
import pytest

from sqpack.builders import (
    InvalidSpec, PanelSpec, ShelfSpec, WedgeSpec, shelf_top_len,
)
from sqpack.config import PackConfig
from sqpack.geometry import trap_region
from sqpack.planner import (
    pack_panel, pack_rect, pack_shelf, pack_square, pack_strip, pack_wedge,
)
from sqpack.plan import account, check_bound
from sqpack.tilt import solve_pack_tilt
from sqpack.verifier import verify_packing

SQRT2 = math.sqrt(2.0)
CFG = PackConfig()


def waste_of(plan):
    return account(plan).waste_or_excess


# ---------------------------------------------------------------------------
# squares

def test_square_integer_base_case():
    rep = account(pack_square(50.0))
    assert rep.square_count == 2500 and rep.waste_or_excess == 0.0


def test_square_fractional_base_case():
    rep = account(pack_square(50.5))
    assert rep.square_count == 2500
    assert rep.waste_or_excess == pytest.approx(50.5 ** 2 - 2500)
    assert rep.waste_or_excess <= (16 * SQRT2 + 38) * 50.5 ** 0.625


def test_square_below_unit():
    rep = account(pack_square(0.5))
    assert rep.square_count == 0


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), 1e300, 2.0 ** 52])
def test_square_rejects_x_outside_domain(x):
    with pytest.raises(InvalidSpec):
        pack_square(x)


def test_square_recursive_verifies():
    plan = pack_square(400.5)
    rep = account(plan)
    assert rep.waste_or_excess <= 2566
    assert verify_packing(plan, cfg=CFG).passed


def test_square_recursion_reaches_shelves():
    plan = pack_square(2000.5)
    assert plan.meta["stats"]["max_depth"] >= 3
    assert check_bound(account(plan), "square").passed


def test_integer_inputs_give_zero_waste():
    for x in (400, 1000):
        rep = account(pack_square(float(x)))
        assert rep.waste_or_excess == 0.0
        assert rep.square_count == x * x


# ---------------------------------------------------------------------------
# panel partition

def partition_panel(spec: PanelSpec):
    """(m1, m2, core_l, core_w) read off the built panel: the widths of its
    top and side border strips, and the columns and rows of its core grid."""
    core, top, side = pack_panel(spec).root.children
    assert core.label == "core" and core.kind == "grid"
    return top.region.dims[1], side.region.dims[1], core.cols, core.rows


def test_partition_panel_symmetric_example():
    m1, m2, core_l, core_w = partition_panel(PanelSpec(10000.5, 10000.5))
    assert m1 == pytest.approx(1000.5) and m2 == pytest.approx(1000.5)
    assert core_l == 9000 and core_w == 9000


def test_partition_panel_integer_case():
    m1, m2, core_l, core_w = partition_panel(PanelSpec(10000.0, 10000.0))
    assert m1 == 1000.0 and m2 == 1000.0
    assert core_l == 9000 and core_w == 9000


def test_partition_panel_power_of_two():
    # length**(3/4) is exactly 512 here
    m1, m2, core_l, core_w = partition_panel(PanelSpec(4096.0, 4096.2))
    assert m2 == pytest.approx(512.0)
    assert m1 == pytest.approx(512.2)


def test_panel_spec_validation():
    with pytest.raises(InvalidSpec):
        PanelSpec(100.0, 800.0).validate()    # wider than 7x
    with pytest.raises(InvalidSpec):
        PanelSpec(10000.0, 500.0).validate()  # below length**(3/4)


def test_panel_integer_width_strips_fill_exactly():
    # one side integer: the integer-width strip must land on an integer
    # length and fill perfectly, whichever side carries the fraction
    for length, width in ((1024.0, 900.5), (1024.5, 900.0)):
        plan = pack_panel(PanelSpec(length, width))
        rep = account(plan)
        strip_balances = [e["balance"] for e in rep.per_region
                          if e["label"] == "strip grid"]
        assert strip_balances and all(b == 0.0 for b in strip_balances)
        assert check_bound(rep, "panel").passed
        assert verify_packing(plan, cfg=CFG).passed


# ---------------------------------------------------------------------------
# strips

def test_strip_integer_width_is_grid():
    rep = account(pack_strip(5.0, 100.0))
    assert rep.square_count == 500 and rep.waste_or_excess == 0.0


def test_strip_tilted_count_and_validity():
    m, L = 10.5, 1000.0
    plan = pack_strip(m, L)
    theta = solve_pack_tilt(m).theta
    run = plan.root.runs[0]
    assert run.count == 11
    assert run.base.angle == pytest.approx(theta)
    # stacks advance by 1/cos(theta)
    assert run.pitch[0] == pytest.approx(1.0 / math.cos(theta))
    assert verify_packing(plan, cfg=CFG).passed


def test_strip_leftover_wedges_sized_to_target():
    m, L = 100.5, 10000.0
    plan = pack_strip(m, L)
    rep = account(plan)
    assert rep.waste_or_excess / (m * L) < 0.01
    tops = [child.region.dims[1] for child in plan.root.children]
    for top in tops:
        assert 1.5 * math.sqrt(m) <= top <= 2.5 * math.sqrt(m) + 1.2


def test_strip_too_short_falls_back_to_grid():
    plan = pack_strip(10.5, 12.0)
    assert plan.root.kind == "grid"
    assert verify_packing(plan, cfg=CFG).passed


# ---------------------------------------------------------------------------
# wedges

def test_wedge_degenerate_tilt_routes_to_rect():
    plan = pack_wedge(WedgeSpec(400.0, 40.0, 0.0))
    rep = account(plan)
    assert rep.square_count > 0
    assert verify_packing(plan, cfg=CFG).passed


def _same_outline(r1, r2):
    return sorted(np.round(r1.polygon(), 9).tolist()) == \
        sorted(np.round(r2.polygon(), 9).tolist())


def test_zero_tilt_panel_route_keeps_world_region():
    # top > height > base_cutoff: the rect router grafts a turned panel into
    # the root, so the plan region must be read after the grafts are mapped
    plan = pack_wedge(WedgeSpec(150.0, 300.0, 0.0))
    assert _same_outline(plan.region, trap_region(150.0, 300.0, 300.0))
    assert verify_packing(plan, cfg=CFG).passed
    top = shelf_top_len(1e8, "pack")
    plan = pack_shelf(ShelfSpec(1e8, 150.0, top, 0.0))
    assert 150.0 < top <= 7 * 150.0
    assert _same_outline(plan.region, trap_region(150.0, top, top))
    assert verify_packing(plan, cfg=CFG).passed


def test_wedge_band_widths_stay_in_interval():
    # every band rectangle keeps sqrt(x) < a_i < (2 + sqrt(2)) sqrt(x)
    x = 1e4
    theta = 0.7 * SQRT2 * x ** -0.5
    a_len = shelf_top_len(x, "pack")
    h_int = round(x / round(2 * math.sqrt(x)))
    n_bands = int(x // h_int)
    for i in range(n_bands):
        a_i = 2 * math.sqrt(x) + i * h_int * math.tan(theta) - a_len
        assert math.sqrt(x) < a_i < (2 + SQRT2) * math.sqrt(x)


def test_wedge_small_scale_sliced_fill():
    spec = WedgeSpec(23.2, 9.6, 0.31)
    plan = pack_wedge(spec)
    rep = account(plan)
    area = rep.area
    assert rep.waste_or_excess < 0.15 * area
    assert verify_packing(plan, cfg=CFG).passed


def test_wedge_meets_growth_bound():
    for x in (1e4,):
        theta = 0.7 * SQRT2 * x ** -0.5
        plan = pack_wedge(WedgeSpec(x, 2.0 * math.sqrt(x), theta))
        rep = account(plan)
        chk = check_bound(rep, "wedge")
        assert chk.passed
        assert verify_packing(plan, cfg=CFG).passed


def test_wedge_small_instance_all_grids():
    # at height 400 every band bottoms out in grids and the bound still holds
    x = 400.0
    theta = 0.5 * SQRT2 * x ** -0.5
    plan = pack_wedge(WedgeSpec(x, 2.0 * math.sqrt(x), theta))
    rep = account(plan)
    assert check_bound(rep, "wedge").passed
    assert verify_packing(plan, cfg=CFG).passed


# ---------------------------------------------------------------------------
# shelves

def test_shelf_partition_million_example():
    # the band table, read off the built shelf
    x, theta = 1e6, 1e-3
    a = shelf_top_len(x, "pack")
    assert a == 114
    plan = pack_shelf(ShelfSpec(x, 500.0, a, theta))
    band_block = plan.root.children[0]
    top_band = band_block.children[-1].runs[0]
    assert top_band.label == "top band" and top_band.count == a
    h1 = top_band.repeat
    assert h1 == 99
    # r_prime, the fractional part of x**(-1/6)/tan(theta)
    assert 0 <= x ** (-1 / 6) / math.tan(theta) - h1 < 1
    # one slant sliver per band; t counts the bands below the top one
    assert sum(c.label == "slant sliver" for c in band_block.children) - 1 <= 5
    columns = [c for c in band_block.children if c.label == "grid column"]
    assert columns[0].cols == 10
    _, k, d, alpha = plan.meta["band_tilts"][0]
    assert k == 1
    assert d == pytest.approx(104.099, abs=1e-3)
    assert alpha == pytest.approx(0.14096, abs=1e-4)
    assert solve_pack_tilt(d).theta == alpha


def test_shelf_builds_and_verifies_at_million():
    x = 1e6
    theta = SQRT2 * x ** -0.5
    spec = ShelfSpec(x, 500.0, shelf_top_len(x, "pack"), theta)
    plan = pack_shelf(spec)
    rep = account(plan)
    assert check_bound(rep, "shelf").passed
    assert verify_packing(plan, cfg=CFG).passed
    assert len(plan.meta["band_tilts"]) >= 2


def test_shelf_no_bands_when_h1_exceeds_height():
    # tiny tilt: h1 > height, so only the floor zone remains
    x = 1e6
    theta = 0.5 * x ** (-2 / 3)
    spec = ShelfSpec(x, 500.0, shelf_top_len(x, "pack"), theta)
    plan = pack_shelf(spec)
    assert len(plan.meta["band_tilts"]) == 0
    rep = account(plan)
    assert check_bound(rep, "shelf").passed
    assert verify_packing(plan, cfg=CFG).passed


def test_shelf_integer_band_correction_when_r_prime_zero():
    # pick a tilt making x**(-1/6)/tan(theta) an exact integer
    x = 1e6
    theta = math.atan(x ** (-1 / 6) / 100.0)
    spec = ShelfSpec(x, 500.0, shelf_top_len(x, "pack"), theta)
    plan = pack_shelf(spec)
    assert verify_packing(plan, cfg=CFG).passed
    assert check_bound(account(plan), "shelf").passed


def _top_chain_ledger(plan):
    # the shelf's own chain node, not the nested ones from leftover wedges
    block = next(c for c in plan.root.children if c.label == "band block")
    chain = next(c for c in block.children if c.label == "stack bands")
    return chain.ledger


def test_shelf_slant_sliver_ledger():
    # conceded slant slivers of the shelf itself total at most x**(1/3)/4
    for f in (0.3, 1.0):
        x = 1e6
        theta = f * SQRT2 * x ** -0.5
        spec = ShelfSpec(x, 500.0, shelf_top_len(x, "pack"), theta)
        plan = pack_shelf(spec)
        total = _top_chain_ledger(plan)["slant_sliver_balance"]
        assert total <= 0.25 * x ** (1 / 3) * 1.01


def test_shelf_stack_end_ledger():
    x = 1e6
    theta = SQRT2 * x ** -0.5
    spec = ShelfSpec(x, 500.0, shelf_top_len(x, "pack"), theta)
    plan = pack_shelf(spec)
    h1 = math.floor(x ** (-1 / 6) / math.tan(theta))
    total = sum(h1 * math.tan(a) for (_, _, _, a) in plan.meta["band_tilts"])
    assert total <= (SQRT2 / 2) * x ** (1 / 3) * 1.05


def test_shelf_joint_ledger_within_budget():
    x = 1e6
    theta = SQRT2 * x ** -0.5
    spec = ShelfSpec(x, 500.0, shelf_top_len(x, "pack"), theta)
    plan = pack_shelf(spec)
    assert plan.meta["stats"]["joint_max"] <= (2.5 + 2 * SQRT2) * x ** (1 / 6)


# ---------------------------------------------------------------------------
# recursion depth

def test_recursion_depth_stays_shallow():
    for x in (400.5, 2000.25, 10000.5):
        plan = pack_square(x)
        assert plan.meta["stats"]["max_depth"] <= math.ceil(
            math.log(math.log(x))) + 4


def test_pack_rect_chops_extreme_aspect():
    plan = pack_rect(150.0, 2000.0)
    rep = account(plan)
    assert rep.waste_or_excess < 0.02 * rep.area
    assert verify_packing(plan, cfg=CFG).passed


def test_pack_rect_base_example():
    rep = account(pack_rect(80.0, 60.3))
    assert rep.square_count == 80 * 60
    assert rep.waste_or_excess == pytest.approx(80 * 0.3)
    assert rep.waste_or_excess <= (1 + 7) * 80


# ---------------------------------------------------------------------------
# band parameter consequences

def test_shelf_band_count_bound():
    # the number of bands stays below x**(2/3) * tan(theta) / 2
    for x, f in ((1e4, 1.0), (1e6, 0.3), (1e6, 1.0)):
        theta = f * SQRT2 * x ** -0.5
        h1 = math.floor(x ** (-1 / 6) / math.tan(theta))
        h = round(0.5 * math.sqrt(x))
        t = h // h1 - 1
        assert t < 0.5 * x ** (2 / 3) * math.tan(theta)


def test_shelf_band_widths_round_up_by_one():
    # ceil(d_k) = floor(x**(1/3) + (sqrt(2)-k) x**(1/6)) + 1 for k >= 1
    for x, f in ((1e4, 1.0), (1e6, 1.0)):
        theta = f * SQRT2 * x ** -0.5
        h1 = math.floor(x ** (-1 / 6) / math.tan(theta))
        h = round(0.5 * math.sqrt(x))
        for k in range(1, h // h1):
            base = math.floor(x ** (1 / 3) + (SQRT2 - k) * x ** (1 / 6))
            d_k = base + k * h1 * math.tan(theta)
            assert math.ceil(d_k) == base + 1


def test_random_sizes_build_verify_and_meet_bound():
    rng = np.random.RandomState(2024)
    for _ in range(5):
        x = float(rng.uniform(101, 1500))
        plan = pack_square(x)
        rep = account(plan)
        assert check_bound(rep, "square").passed, x
        assert verify_packing(plan, cfg=CFG).passed, x


def test_band_tilt_increment_at_intermediate_scale():
    x = 1e5
    theta = SQRT2 * x ** -0.5
    spec = ShelfSpec(x, float(round(0.5 * math.sqrt(x))),
                     shelf_top_len(x, "pack"), theta)
    plan = pack_shelf(spec)
    tilts = {k: a for (s, k, d, a) in plan.meta["band_tilts"] if s == x}
    assert len(tilts) >= 2
    for k in tilts:
        if k + 1 in tilts:
            assert abs(tilts[k + 1] - tilts[k]) <= 3 * (1 + SQRT2) * x ** -0.5
