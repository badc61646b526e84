from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqpack import cli
from sqpack.cli import main, run_series, series_csv
from sqpack.geometry import Pose, rect_region
from sqpack.render import plan_to_svg
from sqpack.planner import build_plan, pack_square
from sqpack.plan import Plan, grid_node, plan_to_json, split_node


def run(argv):
    return main([str(a) for a in argv])


def test_pack_command_writes_plan_and_report(tmp_path):
    out = tmp_path / "plan.json"
    rc = run(["pack", "--x", 400.5, "--out", out])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "pack" and data["version"] == 2
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


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_verify_command_accepts_a_v1_plan(kind, capsys):
    plan_path = Path(__file__).parent / "data" / f"v1_{kind}_150.5.json"
    assert run(["verify", plan_path]) == 0
    assert f"verify {kind}: passed" in capsys.readouterr().out


def test_verify_command_corrupt_plan(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "kind": "pack"')
    assert run(["verify", bad]) == 2


def _deeply_nested(data, depth=3000):
    """The plan's text with its root under `depth` split nodes, written by
    concatenation, as `json.dumps` of it recurses too deep."""
    split = '{"area":%r,"kind":"split","label":"","region":null,"children":[' % data["root"]["area"]
    root = split * depth + json.dumps(data["root"]) + "]}" * depth
    return json.dumps({**data, "root": None}).replace('"root": null', '"root": ' + root)


def _nodes(node: dict):
    yield node
    for key in ("children", "leftovers"):
        for child in node.get(key, []):
            yield from _nodes(child)


def _grid(data: dict) -> dict:
    return next(n for n in _nodes(data["root"]) if n["kind"] == "grid")


def _run(data: dict) -> list:
    return next(_run_lists(data["root"]))[0]


# each edits the plan in place to a field of the wrong JSON type, and each
# loaded (a bool as a number) before the loader checked JSON types
_EDITS = {
    "mirror-string": lambda data: data["region"].update(mirror="false"),
    "rows-fraction": lambda data: _grid(data).update(rows=_grid(data)["rows"] + 0.9),
    "count-fraction": lambda data: _run(data).__setitem__(5, _run(data)[5] + 0.99),
    "rows-bool": lambda data: _grid(data).update(rows=True),
    "x-string": lambda data: data.update(x="big"),
    "area-string": lambda data: data["root"].update(area="x"),
    "label-number": lambda data: data["root"].update(label=7),
    "frame-bool": lambda data: data["region"]["frame"].__setitem__(2, False),
    "dims-bool": lambda data: data["region"]["dims"].__setitem__(1, True),
    "origin-bool": lambda data: _grid(data)["origin"].__setitem__(1, True),
    "base-bool": lambda data: _run(data).__setitem__(0, True),
}
# each loaded, or crashed past the loader, before the loader checked the
# number of fields of a run and of an origin, the type of a waste reason and
# the JSON type of the version (True == 1 == 1.0)
_SHAPES = {
    "run-9-fields": lambda data: _run(data).__delitem__(9),
    "run-11-fields": lambda data: _run(data).append(""),
    "origin-1-number": lambda data: _grid(data)["origin"].__delitem__(1),
    "origin-3-numbers": lambda data: _grid(data)["origin"].append(0.0),
    # the plan holds no waste node, so a grid becomes one
    "reason-number": lambda data: _grid(data).update(kind="waste", reason=7),
    "version-true": lambda data: data.update(version=True),
    "version-2.0": lambda data: data.update(version=2.0),
    "version-1.0": lambda data: data.update(version=1.0),
}
# each reaches one exception type that `_read_plan` turns into an input error
_CAUGHT = {
    "no-root": lambda data: data.__delitem__("root"),  # KeyError
    "count-400-digits": lambda data: _run(data).__setitem__(5, 10 ** 400),  # OverflowError
}


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("mangle", [lambda data: [1, 2], lambda data: {**data, "root": []},
                                    lambda data: {**data, "region": None}, _deeply_nested]
                         + [lambda data, edit=edit: edit(data) or data
                            for edit in [*_EDITS.values(), *_SHAPES.values(),
                                         *_CAUGHT.values()]],
                         ids=["list", "root-list", "null-region", "deeply-nested",
                              *_EDITS, *_SHAPES, *_CAUGHT])
def test_malformed_plans_are_input_errors(tmp_path, capsys, command, mangle):
    # valid JSON of the wrong shape: a list for the plan or for its root node,
    # no target region, split nodes nested past the recursion limit, a field
    # of the wrong JSON type, a run or origin of the wrong length, no root, or
    # a count too large for a float
    plan_path = tmp_path / "plan.json"
    mangled = mangle(json.loads(plan_to_json(pack_square(150.5))))
    plan_path.write_text(mangled if isinstance(mangled, str) else json.dumps(mangled))
    argv = [command, plan_path] + (["--out", tmp_path / "p.svg"] if command == "render" else [])
    assert run(argv) == 2
    assert "cannot read plan" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "render"])
def test_a_plan_file_that_cannot_be_opened_is_an_input_error(tmp_path, capsys, command):
    argv = [command, tmp_path] + (["--out", tmp_path / "p.svg"] if command == "render" else [])
    assert run(argv) == 2
    assert "cannot read plan" in capsys.readouterr().err


def test_a_crash_inside_a_check_is_no_input_error(tmp_path, monkeypatch):
    # a ValueError raised inside the verifier is a fault of the program, not of
    # the plan file: it reaches the caller instead of exiting 2
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan_to_json(pack_square(50.5)))

    def crash(plan):
        raise ValueError("crash inside the verifier")

    monkeypatch.setattr(cli, "verify_packing", crash)
    with pytest.raises(ValueError, match="crash inside the verifier"):
        run(["verify", plan_path])


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


@pytest.mark.parametrize("node_kind", ["Grid", "tile", ""])
def test_plans_with_an_unknown_node_kind_are_refused(tmp_path, capsys, node_kind):
    # the same overlapping extra square: under a kind outside the node kinds
    # it must not load as a node that holds no squares and pass
    plan = pack_square(50.0)
    extra = grid_node(rect_region(1.0, 1.0, Pose(0.5, 0.5, 0.0)), (0.5, 0.5), 1, 1)
    plan.root = split_node(None, [plan.root, extra], area=plan.root.area + extra.area)
    data = json.loads(plan_to_json(plan))
    data["root"]["children"][1]["kind"] = node_kind
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(data))
    for argv in (["verify", plan_path], ["render", plan_path, "--out", tmp_path / "p.svg"]):
        capsys.readouterr()
        assert run(argv) == 2
        assert f"unknown node kind {node_kind!r}" in capsys.readouterr().err


def test_verify_count_mismatch_is_input_error(tmp_path, capsys):
    # a grid with negative rows would hold no squares but count negative ones:
    # the loader refuses it before any lattice is read
    plan_path = tmp_path / "plan.json"
    assert run(["pack", "--x", 50.5, "--out", plan_path]) == 0
    data = json.loads(plan_path.read_text())
    assert data["root"]["kind"] == "grid"
    data["root"]["rows"] = -data["root"]["rows"]
    plan_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", plan_path]) == 2
    assert "plan grid rows must be an integer >= 0, got -50" in capsys.readouterr().err


def _run_lists(node: dict):
    """The run list of every stack node at or below `node`."""
    if node["kind"] == "stacks":
        yield node["runs"]
    for child in node.get("children", []) + node.get("leftovers", []):
        yield from _run_lists(child)


@pytest.mark.parametrize("edit", ["nan run base", "negative width", "zero width", "nan width",
                                  "unknown region kind"])
def test_verify_refuses_plans_no_builder_writes(tmp_path, capsys, edit):
    # cover_square(150.5) less its largest stack run fails; a NaN, or a side
    # that is not positive, once made it pass, and an unknown region kind got
    # past the reader; each is now refused as a file no builder writes
    data = json.loads(plan_to_json(build_plan("cover", "square", 150.5)))
    runs, i = max(((r, i) for r in _run_lists(data["root"]) for i in range(len(r))),
                  key=lambda pair: pair[0][pair[1]][5] * pair[0][pair[1]][6])
    del runs[i]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(data))
    assert run(["verify", plan_path]) == 1
    if edit == "nan run base":
        next(_run_lists(data["root"]))[0][0] = math.nan
    elif edit == "unknown region kind":
        data["region"]["kind"] = "hex"
    else:
        data["region"]["dims"][0] = {"negative width": -150.5, "zero width": 0.0,
                                     "nan width": math.nan}[edit]
    plan_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["verify", plan_path]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read plan: ")


@pytest.mark.parametrize("edit", ["region dims", "region frame", "run base", "run count"])
def test_verify_refuses_plans_with_numbers_that_overflow(tmp_path, capsys, edit):
    # the gapped cover_square(150.5) with target dims [1e400, 150.5] or a
    # target frame at x = 1e400 printed passed and exited 0, and a run count
    # of 1e400 raised OverflowError; 1e400 loads as inf, past parse_constant
    data = json.loads(plan_to_json(build_plan("cover", "square", 150.5)))
    runs, i = max(((r, i) for r in _run_lists(data["root"]) for i in range(len(r))),
                  key=lambda pair: pair[0][pair[1]][5] * pair[0][pair[1]][6])
    del runs[i]
    place, j = {"region dims": (data["region"]["dims"], 0),
                "region frame": (data["region"]["frame"], 0),
                "run base": (next(_run_lists(data["root"]))[0], 0),
                "run count": (next(_run_lists(data["root"]))[0], 5)}[edit]
    place[j] = "OVERFLOW"
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(data).replace('"OVERFLOW"', "1e400"))
    capsys.readouterr()
    assert run(["verify", plan_path]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read plan: non-finite number")


@pytest.mark.parametrize("kind", ["pack", "cover"])
def test_verify_refuses_plans_of_2_63_squares(tmp_path, capsys, kind):
    # a 4e9 x 4e9 grid and one square: flat indices past int64
    side = 4e9
    big = grid_node(rect_region(side, side), (0.0, 0.0), int(side), int(side))
    one = grid_node(rect_region(1.0, 1.0, Pose(side, 0.0, 0.0)), (side, 0.0), 1, 1)
    region = rect_region(side + 1.0, side)
    plan = Plan(kind=kind, x=side, region=region,
                root=split_node(None, [big, one], area=big.area + one.area))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan_to_json(plan))
    assert run(["verify", plan_path]) == 2
    assert ("plan holds 16000000000000000001 squares; verify takes fewer than 2**63"
            in capsys.readouterr().err)


@pytest.mark.parametrize("count", [2 ** 63, 10 ** 30])
def test_verify_refuses_lattice_counts_of_2_63(tmp_path, count):
    # such a run count once went through a float64 table and its cast to int64:
    # `sqpack verify` printed a RuntimeWarning, then a negative enumerated count
    data = json.loads(plan_to_json(build_plan("cover", "square", 150.5)))
    _run(data)[5] = count
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "sqpack.cli", "verify", str(plan_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 2
    assert f"lattice count or repeat of {count}; each must be below 2**63" in out.stderr
    assert "RuntimeWarning" not in out.stderr


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
    plan = build_plan("pack", "strip", 10.5, 100.0)
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
