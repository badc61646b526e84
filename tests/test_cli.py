from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from sqpack import cli
from sqpack.cli import main, run_series, series_csv
from sqpack.geometry import Pose, rect_region
from sqpack.render import plan_to_svg
from sqpack.planner import build_plan, pack_square
from sqpack.plan import Plan, account, grid_node, plan_from_json, plan_to_json, split_node
from oracles import v2_text


def run(argv):
    return main([str(a) for a in argv])


def test_pack_command_writes_plan_and_report(tmp_path):
    out = tmp_path / "plan.json"
    rc = run(["pack", "--x", 400.5, "--out", out])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "pack" and data["version"] == 3
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
    """`node` and the nodes below it, each written in place; uses are skipped."""
    if "def" in node:
        return
    yield node
    for key in ("children", "leftovers"):
        for child in node.get(key, []):
            yield from _nodes(child)


def _all_nodes(data: dict):
    """Every node written in place in a plan's dict: its definitions', then its root's."""
    for top in [*data.get("defs", []), data["root"]]:
        yield from _nodes(top)


def _grid(data: dict) -> dict:
    return next(n for n in _all_nodes(data) if n["kind"] == "grid")


def _run(data: dict) -> list:
    return next(n["runs"] for n in _all_nodes(data) if n["kind"] == "stacks")[0]


def _use(data: dict) -> dict:
    """The first use of a definition under the plan's root."""
    def uses(node):
        if "def" in node:
            yield node
        for key in ("children", "leftovers"):
            for child in node.get(key, []):
                yield from uses(child)
    return next(uses(data["root"]))


def _def_using(data: dict, k: int) -> None:
    """Append a definition, a split whose one child uses definition k."""
    data["defs"].append({"area": 1.0, "kind": "split", "label": "", "region": None,
                         "children": [{"def": k}]})


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
# version 3 files that the writer never writes: a use of a definition that is
# missing, that uses itself or a later one, with a graft other than
# [tx, ty, angle, mirror] of finite numbers and a bool, or with another key
_V3 = {
    "use-missing-def": lambda data: _use(data).update({"def": len(data["defs"])}),
    "use-def-bool": lambda data: _use(data).update({"def": False}),
    "def-uses-itself": lambda data: _def_using(data, len(data["defs"])),
    "def-uses-a-later-one": lambda data: (_def_using(data, len(data["defs"]) + 1),
                                          _def_using(data, 0)),
    "def-is-a-use": lambda data: data["defs"].append({"def": 0}),
    "graft-3-fields": lambda data: _use(data).update(graft=[1.0, 2.0, 0.5]),
    "graft-5-fields": lambda data: _use(data).update(graft=[1.0, 2.0, 0.5, False, 0.0]),
    "graft-mirror-number": lambda data: _use(data).update(graft=[1.0, 2.0, 0.5, 0]),
    "graft-bool-number": lambda data: _use(data).update(graft=[True, 2.0, 0.5, False]),
    "graft-string-number": lambda data: _use(data).update(graft=[1.0, "2", 0.5, False]),
    "graft-overflow": lambda data: _use(data).update(graft=[1.0, "OVERFLOW", 0.5, False]),
    "graft-object": lambda data: _use(data).update(graft={"tx": 1.0}),
    "use-with-a-kind": lambda data: _use(data).update(kind="grid"),
    "version-4": lambda data: data.update(version=4),
}


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("mangle", [lambda data: [1, 2], lambda data: {**data, "root": []},
                                    lambda data: {**data, "region": None}, _deeply_nested]
                         + [lambda data, edit=edit: edit(data) or data
                            for edit in [*_EDITS.values(), *_SHAPES.values(),
                                         *_CAUGHT.values(), *_V3.values()]],
                         ids=["list", "root-list", "null-region", "deeply-nested",
                              *_EDITS, *_SHAPES, *_CAUGHT, *_V3])
def test_malformed_plans_are_input_errors(tmp_path, capsys, command, mangle):
    # valid JSON of the wrong shape: a list for the plan or for its root node,
    # no target region, split nodes nested past the recursion limit, a field
    # of the wrong JSON type, a run or origin of the wrong length, no root, or
    # a count too large for a float
    plan_path = tmp_path / "plan.json"
    mangled = mangle(json.loads(plan_to_json(pack_square(150.5))))
    text = mangled if isinstance(mangled, str) else json.dumps(mangled)
    plan_path.write_text(text.replace('"OVERFLOW"', "1e400"))
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
            if child.get("kind") == "grid" and child["area"] >= min_area:
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
    for n in _nodes(node):
        if n["kind"] == "stacks":
            yield n["runs"]


@pytest.mark.parametrize("edit", ["nan run base", "negative width", "zero width", "nan width",
                                  "unknown region kind"])
def test_verify_refuses_plans_no_builder_writes(tmp_path, capsys, edit):
    # cover_square(150.5) less its largest stack run fails; a NaN, or a side
    # that is not positive, once made it pass, and an unknown region kind got
    # past the reader; each is now refused as a file no builder writes
    data = json.loads(v2_text(build_plan("cover", "square", 150.5)))
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
    data = json.loads(v2_text(build_plan("cover", "square", 150.5)))
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


def _sqpack(*argv, module: str = "sqpack.cli") -> subprocess.CompletedProcess:
    """`python -m <module> *argv` in a new interpreter, so its real stderr and
    stack depth apply."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", module, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_python_m_sqpack_is_the_command_line(tmp_path):
    """`python -m sqpack` works from a bare checkout and writes what `main` writes."""
    out = _sqpack("pack", "--x", 50.5, "--out", tmp_path / "m.json", module="sqpack")
    assert out.returncode == 0, out.stderr
    assert run(["pack", "--x", 50.5, "--out", tmp_path / "main.json"]) == 0
    for suffix in ("", ".report.json"):
        assert ((tmp_path / f"m.json{suffix}").read_bytes()
                == (tmp_path / f"main.json{suffix}").read_bytes())


@pytest.mark.parametrize("count", [2 ** 63, 10 ** 30])
def test_verify_refuses_lattice_counts_of_2_63(tmp_path, count):
    # such a run count once went through a float64 table and its cast to int64:
    # `sqpack verify` printed a RuntimeWarning, then a negative enumerated count
    data = json.loads(plan_to_json(build_plan("cover", "square", 150.5)))
    _run(data)[5] = count
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(data))
    out = _sqpack("verify", plan_path)
    assert out.returncode == 2
    assert f"lattice count or repeat of {count}; each must be below 2**63" in out.stderr
    assert "RuntimeWarning" not in out.stderr


def test_the_deepest_plan_the_loader_accepts_is_checked(tmp_path):
    # verify and a full render once read the plan tree by recursion, two frames
    # a level, and failed with a RecursionError on plans the loader accepted
    data = json.loads(plan_to_json(pack_square(150.5)))
    plan_path, svg_path = tmp_path / "plan.json", tmp_path / "plan.svg"

    def outline(depth: int) -> bool:
        plan_path.write_text(_deeply_nested(data, depth))
        out = _sqpack("render", plan_path, "--outline-only", "--out", svg_path)
        assert out.returncode in (0, 2) and "Traceback" not in out.stderr, (depth, out.stderr)
        return out.returncode == 0

    lo, hi = 0, 3000  # loaded, and not loaded
    assert outline(lo) and not outline(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if outline(mid) else (lo, mid)
    plan_path.write_text(_deeply_nested(data, lo))
    for argv in (["verify", plan_path], ["render", plan_path, "--out", svg_path]):
        out = _sqpack(*argv)
        assert out.returncode == 0 and "Traceback" not in out.stderr, (lo, argv, out.stderr)
    # accounting and the writer once recursed too, and the writer failed here; run
    # in a thread of its own, whose stack starts near as shallow as the command's
    with ThreadPoolExecutor(1) as pool:
        plan, text, again = pool.submit(_rewritten, plan_path.read_text()).result(timeout=120)
    assert account(plan).square_count == plan.root.total_count() > 0
    assert again == text


def _rewritten(text: str):
    """The plan of `text`, its written text, and that text read and written again."""
    plan = plan_from_json(text)
    written = plan_to_json(plan)
    return plan, written, plan_to_json(plan_from_json(written))


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
