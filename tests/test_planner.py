"""Property tests of the planner's domain: what it accepts builds, conserves
area and meets the growth bound; what it does not accept raises InvalidSpec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqpack.builders import (
    MAX_SIDE, InvalidSpec, PanelSpec, ShelfSpec, WedgeSpec, _tilt_limit, shelf_top_len,
)
from sqpack.plan import account, check_bound, plan_from_json, plan_to_json
from sqpack.planner import build_plan
from sqpack.verifier import verify_covering, verify_packing

# seeded from the test itself, no example database: every run draws the same sizes
REPEATABLE = settings(derandomize=True, database=None, deadline=None)


@settings(REPEATABLE, max_examples=60)
@given(kind=st.sampled_from(["pack", "cover"]), x=st.floats(min_value=1.0, max_value=2e4))
def test_square_plans_conserve_area_and_meet_the_bound(kind, x):
    report = account(build_plan(kind, "square", x))
    sign = 1 if kind == "pack" else -1
    assert report.area == x * x
    assert report.square_count + sign * report.waste_or_excess == pytest.approx(report.area,
                                                                                rel=1e-12)
    assert check_bound(report, "square").passed


@settings(REPEATABLE, max_examples=40)
@given(kind=st.sampled_from(["pack", "cover"]),
       x=st.one_of(st.just(float("nan")), st.just(float("inf")), st.just(float("-inf")),
                   st.floats(max_value=0.0, allow_nan=False),
                   st.floats(min_value=MAX_SIDE, allow_nan=False)))
def test_square_outside_the_domain_raises_invalid_spec(kind, x):
    with pytest.raises(InvalidSpec):
        build_plan(kind, "square", x)


@pytest.mark.parametrize("kind", ["pack", "cover"])
@pytest.mark.parametrize("x,root", [(100.0, "grid"), (100.5, "split")])
def test_squares_at_or_below_the_base_cutoff_are_grids(kind, x, root):
    assert build_plan(kind, "square", x).root.kind == root


@pytest.mark.parametrize("kind,shape", [("pak", "square"), ("cover", "circle")])
def test_unknown_kind_or_shape_raises_invalid_spec(kind, shape):
    with pytest.raises(InvalidSpec, match="unknown plan kind or shape"):
        build_plan(kind, shape, 50.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind", ["pack", "cover"])
@pytest.mark.parametrize("shape,dims", [
    ("rect", (NAN, 5.0)),
    ("rect", (5.0, INF)),
    ("panel", (PanelSpec(NAN, 200.0),)),
    ("strip", (NAN, 50.0)),
    ("strip", (5.5, INF)),
    ("wedge", (WedgeSpec(NAN, 200.0, 0.01),)),
    ("wedge", (WedgeSpec(1e4, NAN, 0.01),)),
    ("wedge", (WedgeSpec(1e4, INF, 0.01),)),
    ("wedge", (WedgeSpec(1e4, 200.0, NAN),)),
    ("wedge", (WedgeSpec(200.0, 0.0, 0.0),)),
    ("shelf", (ShelfSpec(1e6, NAN, 1e-3),)),
    ("shelf", (ShelfSpec(1e6, 500.0, NAN),)),
], ids=["rect-nan", "rect-inf", "panel-nan", "strip-nan", "strip-inf",
        "wedge-nan-height", "wedge-nan-top", "wedge-inf-top", "wedge-nan-tilt", "wedge-empty",
        "shelf-nan-height", "shelf-nan-tilt"])
def test_dims_outside_the_domain_raise_invalid_spec(kind, shape, dims):
    with pytest.raises(InvalidSpec):
        build_plan(kind, shape, *dims)


def test_covering_shelf_without_a_top_edge_raises_invalid_spec():
    # floor(20**(1/3) - sqrt(2) * 20**(1/6)) = 0: no integer top edge
    with pytest.raises(InvalidSpec, match="top edge 0"):
        build_plan("cover", "shelf", ShelfSpec(20.0, 2.0, 0.1))


def _builds_and_verifies(kind, shape, dims, bound=None):
    """Build, account and verify a plan, round-trip its JSON byte for byte and,
    given a region class, check its growth bound."""
    plan = build_plan(kind, shape, *dims)
    report = account(plan)
    verify = verify_packing if kind == "pack" else verify_covering
    assert verify(plan).status == "passed"
    text = plan_to_json(plan)
    assert plan_to_json(plan_from_json(text)) == text
    if bound is not None:
        assert check_bound(report, bound).passed


# a packing shelf whose lowest band bases fall below 2 once laid grid columns
# wider than its trapezoid: its squares escaped the target, though `account`
# and the shelf bound passed it
@pytest.mark.parametrize("scale,height,f", [
    (145.5, 145.5 ** 0.5, 0.9),
    (2000.7, 2000.7 ** 0.5, 0.9),
    (5000.1, 0.75 * 5000.1 ** 0.5, 0.9),
    # 5 is the wedge band height at this scale
    (118.95, 5.0, 0.978),
])
def test_packing_shelf_past_its_band_table_stays_inside(scale, height, f):
    _builds_and_verifies("pack", "shelf", (ShelfSpec(scale, height, f * _tilt_limit(scale)),))


KINDS = pytest.mark.parametrize("kind", ["pack", "cover"])
# a fraction in [0, 1) on a grid of 1/1000: drawn floats crowd at their bounds,
# and a tilt limit is exclusive
FRACTION = st.integers(min_value=0, max_value=999).map(lambda i: i / 1000)


def _between(draw, lo, hi):
    return lo + draw(FRACTION) * (hi - lo)


@KINDS
@settings(REPEATABLE, max_examples=8)
@given(data=st.data())
def test_squares_verify(kind, data):
    _builds_and_verifies(kind, "square", (_between(data.draw, 1.0, 1500.0),), "square")


@KINDS
@settings(REPEATABLE, max_examples=8)
@given(data=st.data())
def test_rects_verify(kind, data):
    dims = (_between(data.draw, 1.0, 1500.0), _between(data.draw, 1.0, 600.0))
    _builds_and_verifies(kind, "rect", dims)


@KINDS
@settings(REPEATABLE, max_examples=8)
@given(data=st.data())
def test_panels_verify(kind, data):
    length = _between(data.draw, 1.0, 1200.0)
    width = max(1.0, _between(data.draw, length ** 0.75, min(7.0 * length, 1200.0)))
    _builds_and_verifies(kind, "panel", (PanelSpec(length, width),), "panel")


@KINDS
@settings(REPEATABLE, max_examples=8)
@given(data=st.data())
def test_strips_verify(kind, data):
    dims = (_between(data.draw, 2.0, 200.0), _between(data.draw, 1.0, 4000.0))
    _builds_and_verifies(kind, "strip", dims)


@KINDS
@settings(REPEATABLE, max_examples=8)
@given(data=st.data())
def test_wedges_verify(kind, data):
    height = _between(data.draw, 1.0, 3000.0)
    top = _between(data.draw, 0.0, 4.0 * height ** 0.5)
    tilt = _between(data.draw, 0.0, _tilt_limit(height))
    spec = WedgeSpec(height, top if top + tilt > 0.0 else 1.0, tilt)
    _builds_and_verifies(kind, "wedge", (spec,), "wedge")


@KINDS
@settings(REPEATABLE, max_examples=60)
@given(data=st.data())
def test_shelves_verify(kind, data):
    scale = 10.0 ** _between(data.draw, 1.5, 6.0)
    height = _between(data.draw, 1.0, max(1.0, 1.5 * scale ** 0.5))
    spec = ShelfSpec(scale, height, _between(data.draw, 0.0, _tilt_limit(scale)))
    if shelf_top_len(scale, kind) < 1:
        with pytest.raises(InvalidSpec):
            build_plan(kind, "shelf", spec)
        return
    # shelves taller than the construction's may exceed the bound
    in_range = height <= 0.5 * scale ** 0.5
    _builds_and_verifies(kind, "shelf", (spec,), "shelf" if in_range else None)
