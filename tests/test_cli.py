from __future__ import annotations

import json

import pytest

from sqpack.cli import main, run_series, series_csv
from sqpack.geometry import Pose, rect_region
from sqpack.render import plan_to_svg
from sqpack.planner import pack_square, pack_strip
from sqpack.plan import grid_node, plan_to_json, split_node


def run(argv):
    return main([str(a) for a in argv])


def test_pack_command_writes_plan_and_report(tmp_path):
    out = tmp_path / "plan.json"
    rc = run(["pack", "--x", 400.5, "--out", out])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "pack" and data["version"] == 1
    report = json.loads((tmp_path / "plan.json.report.json").read_text())
    assert report["passed"] is True
    assert report["waste_or_excess"] <= 2566


def test_pack_integer_zero_waste(tmp_path):
    out = tmp_path / "plan.json"
    assert run(["pack", "--x", 400, "--out", out]) == 0
    report = json.loads((tmp_path / "plan.json.report.json").read_text())
    assert report["waste_or_excess"] == 0.0


def test_cover_base_case(tmp_path):
    out = tmp_path / "plan.json"
    assert run(["cover", "--x", 50.5, "--out", out]) == 0
    report = json.loads((tmp_path / "plan.json.report.json").read_text())
    assert report["waste_or_excess"] == pytest.approx(50.75)


def test_invalid_x_usage_error(tmp_path):
    assert run(["pack", "--x", 0.2, "--out", tmp_path / "p.json"]) == 2


@pytest.mark.parametrize("command", ["pack", "cover"])
@pytest.mark.parametrize("x", ["nan", "inf", "-inf", "1e300"])
def test_x_outside_domain_is_usage_error(tmp_path, capsys, command, x):
    assert run([command, f"--x={x}", "--out", tmp_path / "p.json"]) == 2
    assert "x must be finite and below 2**52" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


def test_verify_command_roundtrip(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    run(["pack", "--x", 120.5, "--out", plan_path])
    capsys.readouterr()
    assert run(["verify", plan_path]) == 0
    assert "verify pack: passed, checked 14383 of 14383 squares" in capsys.readouterr().out


def test_verify_command_corrupt_plan(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "kind": "pack"')
    assert run(["verify", bad]) == 2


def test_verify_command_detects_fault(tmp_path):
    plan_path = tmp_path / "plan.json"
    run(["pack", "--x", 50, "--out", plan_path])
    data = json.loads(plan_path.read_text())
    # shrink the target region so the outer squares escape
    data["region"]["dims"] = [49.5, 50.0]
    plan_path.write_text(json.dumps(data))
    assert run(["verify", plan_path]) == 1


def test_verify_pack_checks_every_square(tmp_path, capsys):
    # 4.0e8 squares, far over what enumeration allows, all checked
    plan_path = tmp_path / "plan.json"
    report_path = tmp_path / "verify.json"
    assert run(["pack", "--x", 20000.5, "--out", plan_path]) == 0
    capsys.readouterr()
    assert run(["verify", plan_path, "--out", report_path]) == 0
    out = capsys.readouterr().out
    assert "verify pack: passed, checked 400013699 of 400013699 squares" in out
    report = json.loads(report_path.read_text())
    assert report["square_count"] == 400013699
    assert report["status"] == "passed"
    assert report["passed"] is True and report["partial"] is False


def _drop_leaf(node: dict, min_area: float) -> bool:
    """Remove the first grid leaf of area >= min_area below `node`."""
    for key in ("children", "leftovers"):
        for i, child in enumerate(node.get(key, [])):
            if child["kind"] == "grid" and child["area"] >= min_area:
                del node[key][i]
                return True
            if _drop_leaf(child, min_area):
                return True
    return False


def test_verify_cover_detects_dropped_leaf(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    report_path = tmp_path / "verify.json"
    assert run(["cover", "--x", 300.5, "--out", plan_path]) == 0
    capsys.readouterr()
    assert run(["verify", plan_path, "--out", report_path]) == 0
    # every square is checked, as for a packing
    assert "verify cover: passed, checked 90542 of 90542 squares" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["status"] == "passed" and report["partial"] is False
    data = json.loads(plan_path.read_text())
    assert _drop_leaf(data["root"], 50.0)
    plan_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", plan_path]) == 1
    assert "verify cover: failed" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["Pack", "packing", "", None])
def test_verify_rejects_unknown_plan_kind(tmp_path, capsys, kind):
    # one extra square overlaps the grid: checked as a packing, it fails;
    # under any other kind it must not be checked as a covering and pass
    plan = pack_square(50.0)
    extra = grid_node(rect_region(1.0, 1.0, Pose(0.5, 0.5, 0.0)), (0.5, 0.5), 1, 1)
    plan.root = split_node(None, [plan.root, extra], area=plan.root.area + extra.area)
    text = plan_to_json(plan)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(text)
    assert run(["verify", plan_path]) == 1
    data = json.loads(text)
    data["kind"] = kind
    plan_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", plan_path]) == 2
    assert "plan kind must be 'pack' or 'cover'" in capsys.readouterr().err


def test_verify_count_mismatch_is_input_error(tmp_path, capsys):
    # a grid with negative rows holds no squares but counts negative ones:
    # reading its lattices fails before any geometry is checked
    plan_path = tmp_path / "plan.json"
    assert run(["pack", "--x", 50.5, "--out", plan_path]) == 0
    data = json.loads(plan_path.read_text())
    assert data["root"]["kind"] == "grid"
    data["root"]["rows"] = -data["root"]["rows"]
    plan_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", plan_path]) == 2
    assert "enumerated 0 != analytic -2500" in capsys.readouterr().err


def _usage_error(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        run(argv)
    return exc.value.code


@pytest.mark.parametrize("argv", [
    ["pack", "--x", 50, "--limit", 5],
    ["cover", "--x", 50, "--samples", 3],
    ["series", "--x", 50, "--x", 60, "--x", 70, "--seed", 9],
    ["pack", "--x", 50, "--base-cutoff", 60],
    ["cover", "--x", 50, "--config", "cfg.json"],
    ["series", "--x", 50, "--x", 60, "--x", 70, "--base-cutoff", 60],
    ["verify", "plan.json", "--base-cutoff", 60],
    ["verify", "plan.json", "--limit", 1000],
    ["verify", "plan.json", "--samples", 1000],
    ["verify", "plan.json", "--seed", 3],
    ["verify", "plan.json", "--config", "cfg.json"],
], ids=["pack-limit", "cover-samples", "series-seed", "pack-base-cutoff", "cover-config",
        "series-base-cutoff", "verify-base-cutoff", "verify-limit", "verify-samples",
        "verify-seed", "verify-config"])
def test_unread_flags_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert _usage_error(argv) == 2


def test_render_outputs_svg(tmp_path):
    plan_path = tmp_path / "plan.json"
    run(["pack", "--x", 50, "--out", plan_path])
    svg = tmp_path / "plan.svg"
    assert run(["render", plan_path, "--out", svg]) == 0
    text = svg.read_text()
    assert text.startswith("<svg ")
    assert text.count("<polygon") >= 2500


def test_render_over_limit_requires_outline(tmp_path):
    plan_path = tmp_path / "plan.json"
    run(["pack", "--x", 400.5, "--out", plan_path])
    assert run(["render", plan_path, "--out", tmp_path / "a.svg", "--limit",
                1000]) == 2
    assert run(["render", plan_path, "--out", tmp_path / "b.svg", "--limit", 1000,
                "--outline-only"]) == 0


def test_render_deterministic_bytes():
    plan = pack_strip(10.5, 100.0)
    assert plan_to_svg(plan) == plan_to_svg(plan)


def test_series_csv_and_slope(tmp_path):
    out = tmp_path / "series.csv"
    rc = run(["series", "--x", 10000.5, "--x", 100000.5, "--x", 1000000.5,
              "--out", out])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x,kind,square_count")
    assert len(lines) == 5  # header + 3 rows + slope
    slope = float(lines[-1].split(",")[1])
    assert slope <= 0.75


def test_series_requires_three_sizes(tmp_path):
    assert run(["series", "--x", 100.5, "--x", 200.5,
                "--out", tmp_path / "s.csv"]) == 2


@pytest.mark.parametrize("x", ["-1", "0", "0.5", "nan", "inf", "1e300"])
def test_series_rejects_x_outside_domain(tmp_path, capsys, x):
    # the same domain as pack and cover: finite, below 2**52 and at least 1
    out = tmp_path / "s.csv"
    assert run(["series", f"--x={x}", "--x", 2, "--x", 3, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_series_integer_inputs_undefined_slope():
    rows, slope = run_series([100.0, 200.0, 300.0], "pack")
    assert slope is None
    assert all(r["waste_or_excess"] == 0.0 for r in rows)
    text = series_csv(rows, slope)
    assert "undefined" in text


def test_series_grid_regime_slope_near_one():
    # below the recursion cutoff the grid wastes ~x, documenting the crossover
    rows, slope = run_series([50.5, 100.5, 200.5], "pack")
    assert slope == pytest.approx(1.0, abs=0.15)


def test_series_deterministic_bytes():
    a = series_csv(*run_series([10000.5, 100000.5, 1000000.5], "pack"))
    b = series_csv(*run_series([10000.5, 100000.5, 1000000.5], "pack"))
    assert a == b


def test_bad_config_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nonsense_knob": 1}))
    assert _usage_error(["pack", "--x", 50, "--out", tmp_path / "p.json",
                         "--config", cfg_path]) == 2


@pytest.mark.parametrize("knob", ["aspect_limit", "wedge_top", "tau", "enum_limit", "samples"])
def test_config_naming_a_fixed_parameter_is_usage_error(tmp_path, knob):
    # no subcommand takes a config file: the construction's parameters are
    # constants, and verify has no enumeration limit and no sample budget
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({knob: 7.0}))
    assert _usage_error(["pack", "--x", 50, "--out", tmp_path / "p.json",
                         "--config", cfg_path]) == 2
