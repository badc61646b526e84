"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Criterion 1 is implemented exactly as stated and is expected to fail: the
upright-envelope bound theta < sqrt(2) * m**(-1/2) is an asymptotic
statement and provably fails for small widths with small fractional part
(for example m = 4.1). The failure is reported with the offending widths;
see the decisions ledger for the analysis. Everything else passes.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from sqpack.builders import ShelfSpec, WedgeSpec, shelf_top_len
from sqpack.cli import run_series, series_csv
from sqpack.config import PackConfig
from sqpack.plan import account, dumps_stable, enumerate_placements, plan_to_json
from sqpack.planner import cover_shelf, cover_square, pack_shelf, pack_square, pack_wedge
from sqpack.tilt import cover_residual, pack_residual, solve_cover_tilt, solve_pack_tilt
from sqpack.verifier import verify_covering, verify_packing
from oracles import bisect_tilt

SQRT2 = math.sqrt(2.0)
SQUARE_COEFF = 16 * SQRT2 + 38          # ~60.627
WEDGE_COEFF = 19 / 2 + 7 * SQRT2 / 2    # ~14.4497
SHELF_COEFF = 19 / 4 + 7 * SQRT2 / 4    # ~7.2249

PACK_XS = [50.0, 120.5, 400.5, 1000.5, 2000.25]
COVER_XS = [50.5, 400.5, 1000.5]
SERIES_XS = [10000.5, 100000.5, 1000000.5]

R_VALUES = (0.0, 0.1, 0.5, 0.9, 0.99)


def _announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {state}" + (f" ({detail})" if detail else ""))


def width_grid():
    per_r = 10_000 // len(R_VALUES)
    bases = np.geomspace(4.0, 1e8, per_r)
    for r in R_VALUES:
        for b in bases:
            m = math.floor(b) + r
            if m >= 4.0:
                yield m, r


@pytest.fixture(scope="module")
def pack_plans():
    return {x: pack_square(x) for x in PACK_XS}


@pytest.fixture(scope="module")
def cover_plans():
    return {x: cover_square(x) for x in COVER_XS}


@pytest.fixture(scope="module")
def shelf_instances():
    out = []
    for x in (1e4, 1e6):
        for f in (0.3, 1.0):
            theta = f * SQRT2 * x ** -0.5
            spec = ShelfSpec(x, float(round(0.5 * math.sqrt(x))),
                             shelf_top_len(x, "pack"), theta)
            out.append((x, theta, pack_shelf(spec)))
    return out


@pytest.fixture(scope="module")
def cover_shelf_instances():
    out = []
    for x in (1e4, 1e6):
        for f in (0.3, 1.0):
            theta = f * SQRT2 * x ** -0.5
            spec = ShelfSpec(x, float(round(0.5 * math.sqrt(x))),
                             shelf_top_len(x, "cover"), theta)
            out.append((x, theta, cover_shelf(spec)))
    return out


def test_criterion_01_tilt_residuals_and_envelope():
    t0 = time.perf_counter()
    residual_bad = []
    envelope_bad = []
    for m, r in width_grid():
        tp = solve_pack_tilt(m)
        tc = solve_cover_tilt(m)
        if abs(pack_residual(m, tp.n, tp.theta)) > 1e-12 or \
                abs(cover_residual(m, tc.n, tc.theta)) > 1e-12:
            residual_bad.append(m)
        cap = SQRT2 * m ** -0.5
        if not (0.0 <= tp.theta < cap) or not (0.0 <= tc.theta < cap):
            envelope_bad.append((m, r, tp.theta, cap))
    elapsed = time.perf_counter() - t0
    ok = not residual_bad and not envelope_bad and elapsed < 5.0
    detail = f"{elapsed:.2f}s"
    if envelope_bad:
        lo = min(v[0] for v in envelope_bad)
        hi = max(v[0] for v in envelope_bad)
        rs = sorted({v[1] for v in envelope_bad})
        detail += (f"; envelope fails at {len(envelope_bad)} widths, "
                   f"m in [{lo:.2f}, {hi:.2f}], r in {rs}")
    _announce(1, "tilt residuals and upright envelope", ok, detail)
    assert not residual_bad, f"residuals exceeded 1e-12 at {residual_bad[:5]}"
    assert elapsed < 5.0
    # Known spec defect: the envelope is asymptotic. theta(4.1) ~ 0.834
    # exceeds sqrt(2)/sqrt(4.1) ~ 0.699, and widths with r = 0.1 keep
    # violating it up to m ~ 197. Reported honestly rather than loosened.
    assert not envelope_bad, detail


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for m, r in width_grid():
        if r == 0.0:
            continue
        worst = max(worst,
                    abs(solve_pack_tilt(m).theta - bisect_tilt(m, "pack")),
                    abs(solve_cover_tilt(m).theta - bisect_tilt(m, "cover")))
    ok = worst <= 1e-11
    _announce(2, "closed form matches bisection", ok,
              f"max |diff| = {worst:.2e}, {time.perf_counter() - t0:.1f}s")
    assert ok


def test_criterion_03_packing_validity(pack_plans):
    t0 = time.perf_counter()
    failures = []
    total = 0
    for x, plan in pack_plans.items():
        report = verify_packing(plan, cfg=PackConfig())
        total += report.square_count
        if not report.passed or report.partial:
            failures.append((x, report.violations[:3]))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _announce(3, "packing validity at enumerable scale", ok,
              f"{total} squares, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_04_square_bound(pack_plans):
    rows = []
    ok = True
    for x, plan in pack_plans.items():
        report = account(plan)
        bound = SQUARE_COEFF * x ** 0.625
        rows.append(f"x={x}: {report.waste_or_excess:.2f} <= {bound:.1f}")
        ok &= report.waste_or_excess <= bound
    _announce(4, "square waste bound", ok, "; ".join(rows))
    assert ok


def test_criterion_05_per_type_bounds(shelf_instances):
    failures = []
    details = []
    for x in (1e4, 1e5):
        theta = 0.7 * SQRT2 * x ** -0.5
        plan = pack_wedge(WedgeSpec(x, 2.0 * math.sqrt(x), theta))
        report = account(plan)
        bound = WEDGE_COEFF * x ** (5 / 6)
        details.append(f"wedge {x:.0e}: {report.waste_or_excess:.0f}/{bound:.0f}")
        if report.waste_or_excess > bound:
            failures.append(("wedge", x, report.per_region))
    for x, theta, plan in shelf_instances:
        report = account(plan)
        bound = SHELF_COEFF * x ** (1 / 3)
        details.append(f"shelf {x:.0e}/{theta:.2e}: "
                       f"{report.waste_or_excess:.0f}/{bound:.0f}")
        if report.waste_or_excess > bound:
            failures.append(("shelf", x, report.per_region))
    _announce(5, "per-type growth bounds", not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_06_covering_validity(cover_plans):
    failures = []
    for x, plan in cover_plans.items():
        report = account(plan)
        bound = SQUARE_COEFF * x ** 0.625
        vr = verify_covering(plan)
        if not vr.passed or report.waste_or_excess > bound:
            failures.append((x, vr.violations[:3], report.waste_or_excess, bound))
    _announce(6, "covering validity and excess bound", not failures,
              f"{len(cover_plans)} covers, each checked at every edge crossing")
    assert not failures, failures


def test_criterion_07_integer_exactness():
    bad = []
    for x in (50.0, 400.0, 1000.0):
        pw = account(pack_square(x)).waste_or_excess
        ce = account(cover_square(x)).waste_or_excess
        if pw != 0.0 or ce != 0.0:
            bad.append((x, pw, ce))
    _announce(7, "integer inputs are exact", not bad)
    assert not bad, bad


def _alpha_increments(plan):
    by_scale: dict = {}
    for scale, k, d, alpha in plan.meta["band_tilts"]:
        by_scale.setdefault(scale, {})[k] = alpha
    for scale, ks in by_scale.items():
        for k, alpha in ks.items():
            if k + 1 in ks:
                yield scale, abs(ks[k + 1] - alpha)


def test_criterion_08_band_tilt_increments(shelf_instances, cover_shelf_instances):
    limit_coeff = 3 * (1 + SQRT2)
    bad = []
    checked = 0
    for _, _, plan in list(shelf_instances) + list(cover_shelf_instances):
        for scale, inc in _alpha_increments(plan):
            checked += 1
            if inc > limit_coeff * scale ** -0.5:
                bad.append((scale, inc))
    _announce(8, "band tilt increments", not bad, f"{checked} consecutive pairs")
    assert checked >= 4
    assert not bad, bad


def test_criterion_09_leading_order_law():
    worst = 0.0
    for r in (0.1, 0.5, 0.9, 0.99):
        for base in np.geomspace(100.0, 1e8, 400):
            m = math.floor(base) + r
            theta = solve_pack_tilt(m).theta
            dev = abs(theta * math.sqrt(m) - math.sqrt(2 * (1 - r)))
            worst = max(worst, dev * math.sqrt(m) / 3.0)
    ok = worst <= 1.0
    _announce(9, "leading-order coefficient sqrt(2(1-r))", ok,
              f"worst normalized deviation {worst:.3f}")
    assert ok


def test_criterion_10_exponent_trend():
    t0 = time.perf_counter()
    rows, slope = run_series(SERIES_XS, "pack")
    elapsed = time.perf_counter() - t0
    ratios_ok = all(r["ratio"] <= SQUARE_COEFF for r in rows)
    ok = slope is not None and slope <= 0.75 and ratios_ok and elapsed < 300.0
    _announce(10, "empirical waste exponent", ok,
              f"slope={slope:.4f}, ratios={[round(r['ratio'], 2) for r in rows]}, "
              f"{elapsed:.1f}s")
    assert ok


def test_criterion_11_accounting_vs_enumeration(pack_plans, cover_plans):
    bad = []
    for plan in list(pack_plans.values()) + list(cover_plans.values()):
        analytic = account(plan).square_count
        enumerated = len(enumerate_placements(plan))
        if analytic != enumerated:
            bad.append((plan.x, analytic, enumerated))
    _announce(11, "analytic count equals enumerated count", not bad)
    assert not bad, bad


def test_criterion_12_determinism(pack_plans, cover_plans):
    mismatches = []
    for x in PACK_XS:
        p2 = pack_square(x)
        if plan_to_json(pack_plans[x]) != plan_to_json(p2) or \
                dumps_stable(account(pack_plans[x]).to_dict()) != \
                dumps_stable(account(p2).to_dict()):
            mismatches.append(("pack", x))
    for x in COVER_XS:
        c2 = cover_square(x)
        if plan_to_json(cover_plans[x]) != plan_to_json(c2):
            mismatches.append(("cover", x))
    csv1 = series_csv(*run_series(SERIES_XS, "pack"))
    csv2 = series_csv(*run_series(SERIES_XS, "pack"))
    if csv1 != csv2:
        mismatches.append(("series", "csv"))
    _announce(12, "byte-identical reruns", not mismatches)
    assert not mismatches, mismatches
