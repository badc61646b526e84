"""Property tests of the planner's domain: what it accepts builds, conserves
area and meets the growth bound; what it does not accept raises InvalidSpec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqpack.builders import MAX_SIDE, InvalidSpec, PanelSpec, ShelfSpec, WedgeSpec
from sqpack.plan import account, check_bound
from sqpack.planner import build_plan

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
    ("shelf", (ShelfSpec(1e6, NAN, 114, 1e-3),)),
    ("shelf", (ShelfSpec(1e6, 500.0, 114, NAN),)),
    ("shelf", (ShelfSpec(1e6, 500.0, INF, 1e-3),)),
    ("shelf", (ShelfSpec(1e6, 500.0, 114.5, 1e-3),)),
], ids=["rect-nan", "rect-inf", "panel-nan", "strip-nan", "strip-inf",
        "wedge-nan-height", "wedge-nan-top", "wedge-inf-top", "wedge-nan-tilt", "wedge-empty",
        "shelf-nan-height", "shelf-nan-tilt", "shelf-inf-top", "shelf-fractional-top"])
def test_dims_outside_the_domain_raise_invalid_spec(kind, shape, dims):
    with pytest.raises(InvalidSpec):
        build_plan(kind, shape, *dims)
