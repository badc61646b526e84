"""Command line interface: build, verify, render and sweep plans.

Exit codes: 0 success (and bound/verify passed where applicable),
1 a check failed, 2 usage or input errors. No subcommand takes settings.
`verify` checks every square of a plan of fewer than 2**63 squares (a
square target below a side of about 3.03e9; a larger plan is an input
error, as is a file with a non-finite number or a region its kind's
constructor refuses): a packing for containment and overlaps, a covering
at every crossing of square and target edges, each tested at the point
nu = 2*(1e-9 + 2e-12*S) outside both edges, S the largest extent of the
lattices whose box meets the target's grown by 1 (the others cover none
of it and are left out). A covering passes only when each such point
lies in a square, so no gap wider than about nu at its corners is left.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .builders import InvalidSpec, check_side
from .plan import (
    OverLimit, Plan, PlanError, account, check_bound, dumps_stable, plan_from_json,
    plan_to_json,
)
from .planner import build_plan
from .render import plan_to_svg
from .verifier import verify_covering, verify_packing

CSV_HEADER = "x,kind,square_count,waste_or_excess,bound_value,ratio,verified"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _check_x(x: float) -> None:
    """The domain of --x for pack, cover and series: what the planner
    accepts, and at least one unit square."""
    check_side(x)
    if x < 1.0:
        raise InvalidSpec(f"--x must be >= 1, got {x}")


def _read_plan(path: str) -> Plan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return plan_from_json(fh.read())
    # OSError: no file at `path`, or none that can be read
    # ValueError: text that is not UTF-8 or not JSON, a region its constructor refuses, PlanError
    # KeyError: a plan or node without a key of the format
    # TypeError: a JSON value of the wrong type where one is indexed, such as a list for the root
    # AttributeError: a list for the plan itself
    # OverflowError: an integer too large for a float, such as a 400-digit run count
    # RecursionError: nodes nested past the recursion limit, such as 3,000 splits deep
    except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise PlanError(f"cannot read plan: {exc}") from exc


def _report_path(args) -> str:
    return args.report if args.report else args.out + ".report.json"


def cmd_build(args) -> int:
    kind = args.command
    _check_x(args.x)
    plan = build_plan(kind, "square", args.x)
    report = check_bound(account(plan), "square")
    _write(args.out, plan_to_json(plan))
    _write(_report_path(args), dumps_stable(report.to_dict()))
    word = "waste" if kind == "pack" else "excess"
    print(f"{kind} x={args.x}: {report.square_count} squares, "
          f"{word}={report.waste_or_excess:.6g}, "
          f"bound={report.bound_value:.6g}, passed={report.passed}")
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    plan = _read_plan(args.plan)
    report = (verify_packing if plan.kind == "pack" else verify_covering)(plan)
    if args.out:
        _write(args.out, dumps_stable(report.to_dict(include_runtime=False)))
    print(f"verify {plan.kind}: {report.status}, checked {report.square_count} of "
          f"{plan.root.total_count()} squares, violations={len(report.violations)}")
    return 0 if report.passed else 1


def cmd_render(args) -> int:
    plan = _read_plan(args.plan)
    try:
        svg = plan_to_svg(plan, outline_only=args.outline_only, limit=args.limit)
    except OverLimit as exc:
        print(f"error: {exc}; use --outline-only", file=sys.stderr)
        return 2
    _write(args.out, svg)
    print(f"wrote {args.out}")
    return 0


def run_series(xs: list[float], kind: str):
    """Rows plus an ordinary-least-squares slope of log waste vs log x."""
    rows = []
    for x in xs:
        t0 = time.perf_counter()
        plan = build_plan(kind, "square", x)
        report = check_bound(account(plan), "square")
        rows.append({
            "x": x,
            "kind": kind,
            "square_count": report.square_count,
            "waste_or_excess": report.waste_or_excess,
            "bound_value": report.bound_value,
            "ratio": report.waste_or_excess / x ** 0.625,
            "verified": "analytic-only",
            "wall_time": time.perf_counter() - t0,
        })
    pts = [(math.log(r["x"]), math.log(r["waste_or_excess"]))
           for r in rows if r["waste_or_excess"] > 0]
    if len(pts) >= 2:
        n = len(pts)
        mx = sum(p[0] for p in pts) / n
        my = sum(p[1] for p in pts) / n
        sxx = sum((p[0] - mx) ** 2 for p in pts)
        sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
        slope = sxy / sxx if sxx > 0 else None
    else:
        slope = None
    return rows, slope


def series_csv(rows, slope) -> str:
    # wall time stays out of the file so reruns are byte-identical
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            repr(r["x"]), r["kind"], str(r["square_count"]),
            repr(r["waste_or_excess"]), repr(r["bound_value"]), repr(r["ratio"]),
            r["verified"],
        ]))
    lines.append(f"# slope,{'undefined' if slope is None else repr(slope)}")
    return "\n".join(lines) + "\n"


def cmd_series(args) -> int:
    if len(args.x) < 3:
        print("error: series needs at least 3 sizes", file=sys.stderr)
        return 2
    for x in args.x:
        _check_x(x)
    rows, slope = run_series(args.x, args.kind)
    _write(args.out, series_csv(rows, slope))
    printable = "undefined" if slope is None else f"{slope:.4f}"
    print(f"series {args.kind}: {len(rows)} rows, slope={printable}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sqpack",
                                 description="unit-square packing/covering planner")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("pack", "cover"):
        p = sub.add_parser(name, help=f"build a {name}ing plan for a square")
        p.add_argument("--x", type=float, required=True, help="target side length")
        p.add_argument("--out", type=str, default=f"{name}_plan.json")
        p.add_argument("--report", type=str, default=None)
        p.set_defaults(run=cmd_build)

    p = sub.add_parser("verify", help="geometrically verify a stored plan")
    p.add_argument("plan", type=str)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("render", help="render a stored plan to SVG")
    p.add_argument("plan", type=str)
    p.add_argument("--out", type=str, default="plan.svg")
    p.add_argument("--outline-only", action="store_true")
    p.add_argument("--limit", type=int, default=200_000)
    p.set_defaults(run=cmd_render)

    p = sub.add_parser("series", help="sweep sizes and fit the waste exponent")
    p.add_argument("--x", type=float, action="append", required=True,
                   help="repeatable: one size per flag")
    p.add_argument("--kind", choices=("pack", "cover"), default="pack")
    p.add_argument("--out", type=str, default="series.csv")
    p.set_defaults(run=cmd_series)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.run(args)
    except (InvalidSpec, PlanError, OSError) as exc:  # a crash elsewhere is no input error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
