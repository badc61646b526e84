"""The benchmark's workloads: seeded inputs, the timed operation, the
correctness gate every operation passes through, and negative controls.

Every sqpack function is looked up on the `sqpack` package (or, for names
it does not export, on `sqpack.plan`) at call time, so the tracer and the
smoke test can substitute wrapped versions.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import sqpack
import sqpack.plan as plan_mod
from sqpack import PackConfig, Pose

from tracing import Tracer, op_times

SETUP_REPS = 7               # setup_s is the median of this many set-ups
CONTROL_X = (120, 140)       # integer part of the negative-control plans
CONTROL_LEAF_AREA = 50.0     # cover control: removed leaf spans >= this area


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]    # plan kind of each basket input, in run order
    x_range: tuple[int, int]  # integer part of x, stratified over the basket
    verify: bool              # False: build plans; True: verify stored plans


WORKLOADS = {
    w.name: w for w in (
        Workload("plan-large", ("pack", "cover"), (1_500_000, 1_600_000), False),
        Workload("verify-pack", ("pack",) * 3, (1_000, 1_100), True),
        Workload("verify-cover", ("cover",) * 4, (900, 1_100), True),
    )
}

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "builders.build_s": "s",
    "builders.self_s": "s",
    "builders.nodes": "count",
    "builders.runs": "count",
    "builders.max_depth": "count",
    "builders.fallback_bands": "count",
    "plan.graft_s": "s",
    "plan.graft_calls": "count",
    "plan.account_s": "s",
    "plan.dumps_s": "s",
    "plan.bytes": "B",
    "plan.loads_s": "s",
    "plan.enumerate_s": "s",
    "plan.placements": "count",
    "tilt.solve_s": "s",
    "tilt.solve_calls": "count",
    "verifier.verify_s": "s",
    "verifier.self_s": "s",
    "verifier.candidate_pairs": "count",
    "verifier.pairs_per_square": "pairs/square",
    "verifier.overlap_pairs": "count",
    "verifier.sampled_points": "count",
    "verifier.violations": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def seeded_x(rng: random.Random, lo: float, hi: float) -> float:
    return rng.randint(int(lo), int(hi)) + rng.uniform(0.05, 0.95)


def basket(w: Workload, seed: int) -> list[tuple[str, float]]:
    """One input per kind. Input i draws its integer part from the i-th of
    len(kinds) equal slices of x_range and its fractional part from the i-th
    slice of [0.05, 0.95], so every basket spans both ranges. The fraction
    shapes the plan: near x = 1.5e6 a packing with fraction above about 0.86
    has half the stack runs of one below it, so an unstratified two-input
    basket would swing between two plan shapes from seed to seed."""
    rng = random.Random(f"{w.name}:{seed}")
    lo, hi = w.x_range
    k = len(w.kinds)
    return [(kind, lo + int((i + rng.random()) * (hi - lo) / k)
             + 0.05 + 0.9 * (i + rng.random()) / k)
            for i, kind in enumerate(w.kinds)]


def _traced(tracer: Tracer | None, op):
    return tracer.active(op) if tracer is not None else nullcontext()


def _walk(node):
    yield node
    for c in node.children:
        yield from _walk(c)


# ---------------------------------------------------------------------------
# the operations: what `sqpack pack|cover` and `sqpack verify` do, minus disk

def build(kind: str, x: float):
    plan = (sqpack.pack_square if kind == "pack" else sqpack.cover_square)(x)
    report = sqpack.account(plan)
    check = sqpack.check_bound(report, "square")
    return plan, report, check, plan_mod.plan_to_json(plan)


def verify(kind: str, text: str, cfg: PackConfig):
    plan = plan_mod.plan_from_json(text)
    check = sqpack.verify_packing if kind == "pack" else sqpack.verify_covering
    return plan, check(plan, cfg=cfg)


def build_record(plan, report, check, text) -> dict:
    """Outcome of a build; `ok` is the gate (the bound check passes)."""
    nodes = list(_walk(plan.root))
    stats = plan.meta.get("stats", {})
    return {
        "ok": bool(check.passed),
        "error": None if check.passed else "bound check failed",
        "plan_sha256": sha256(text),
        "report_sha256": sha256(plan_mod.dumps_stable(report.to_dict())),
        "bytes": len(text),
        "squares": report.square_count,
        "nodes": len(nodes),
        "runs": sum(len(n.runs) for n in nodes),
        "max_depth": stats.get("max_depth", 0),
        "fallback_bands": stats.get("fallback_bands", 0),
    }


def verify_record(plan, report) -> dict:
    """Outcome of a verify; the gate is an exact, passing check whose
    enumerated count equals the plan's analytic count."""
    analytic = plan.root.total_count()
    errors = []
    if not report.passed:
        errors.append(f"verify failed: {report.violations[:3]}")
    if report.partial:
        errors.append("verify was partial")
    if report.square_count != analytic:
        errors.append(f"enumerated {report.square_count} != analytic {analytic}")
    return {
        "ok": not errors,
        "error": "; ".join(errors) or None,
        "report_sha256": sha256(plan_mod.dumps_stable(report.to_dict(include_runtime=False))),
        "placements": report.square_count,
        "candidate_pairs": report.runtime_stats.get("candidate_pairs", 0),
        "overlap_pairs": report.runtime_stats.get("overlap_pairs", 0),
        "sampled_points": report.sampled_points,
        "violations": len(report.violations),
    }


def timed_op(w: Workload, inp: dict, cfg: PackConfig, tracer: Tracer | None, op) -> dict:
    """One timed operation behind gc.collect(); a raise is a failed operation."""
    gc.collect()
    try:
        with _traced(tracer, op):
            t0 = perf_counter()
            if w.verify:
                out = verify(inp["kind"], inp["text"], cfg)
            else:
                out = build(inp["kind"], inp["x"])
            seconds = perf_counter() - t0
    except Exception as exc:  # counted in `failed`, never dropped
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "seconds": None}
    if w.verify:
        rec = verify_record(*out)
        rec.update(plan_sha256=inp["build"]["plan_sha256"], bytes=inp["build"]["bytes"])
    else:
        rec = build_record(*out)
    rec["seconds"] = seconds
    return rec


# ---------------------------------------------------------------------------
# set-up

def cold_start() -> float:
    """Wall time of a fresh interpreter that imports this process's sqpack:
    the start-up every `sqpack` command pays before its first operation."""
    src = str(Path(sqpack.__file__).resolve().parent.parent)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); import sqpack"],
                   check=True)
    return perf_counter() - t0


def setup(w: Workload, seed: int, tracer: Tracer | None) -> list[dict]:
    """Basket inputs; verify workloads build and serialise their plans here."""
    inputs = []
    for i, (kind, x) in enumerate(basket(w, seed)):
        inp = {"kind": kind, "x": x}
        if w.verify:
            with _traced(tracer, f"setup:{i}"):
                out = build(kind, x)
            rec = build_record(*out)
            if not rec["ok"]:
                raise RuntimeError(f"set-up plan {kind} x={x!r}: {rec['error']}")
            inp.update(build=rec, text=out[3])
        inputs.append(inp)
    return inputs


# ---------------------------------------------------------------------------
# negative controls: a verifier that stops checking must fail these

def _add_overlapping_square(plan, rng: random.Random) -> str:
    """Place one extra square half a unit along an existing square's own
    x axis, towards the target centre, so it overlaps that square."""
    poses = sqpack.enumerate_placements(plan)
    tx, ty, angle = (float(v) for v in poses[rng.randrange(len(poses))])
    c, s = math.cos(angle), math.sin(angle)
    half = plan.x / 2.0
    shift = 0.5 if (half - tx) * c + (half - ty) * s >= 0.0 else -0.5
    base = Pose(tx + shift * c, ty + shift * s, angle)
    extra = plan_mod.stacks_node(None, [sqpack.StackRun(base=base, step=(c, s), count=1)],
                                 label="control: overlapping square", area=1.0)
    plan.root.children.append(extra)
    return f"extra square at ({base.tx:.6f}, {base.ty:.6f}, {angle:.6f})"


def _remove_leaf(plan, rng: random.Random) -> str:
    """Drop one leaf holding squares whose region spans >= CONTROL_LEAF_AREA."""
    choices = [(parent, i) for parent in _walk(plan.root)
               for i, leaf in enumerate(parent.children)
               if leaf.own_count() > 0 and leaf.area >= CONTROL_LEAF_AREA]
    parent, i = choices[rng.randrange(len(choices))]
    leaf = parent.children.pop(i)
    return f"removed {leaf.kind} leaf {leaf.label!r} of area {leaf.area:.3f}"


def negative_control(kind: str, seed: int, cfg: PackConfig) -> dict:
    """Verify a broken small plan; `caught` when the verifier names the defect."""
    rng = random.Random(f"control:{kind}:{seed}")
    rec = {"kind": kind, "x": seeded_x(rng, *CONTROL_X),
           "expect": "overlap" if kind == "pack" else "uncovered", "caught": False}
    try:
        plan = build(kind, rec["x"])[0]
        mutate = _add_overlapping_square if kind == "pack" else _remove_leaf
        rec["mutation"] = mutate(plan, rng)
        text = plan_mod.plan_to_json(plan)
        gc.collect()
        t0 = perf_counter()
        report = verify(kind, text, cfg)[1]
        rec["seconds"] = perf_counter() - t0
    except Exception as exc:  # a crash is not a caught defect
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec["found"] = sorted({v["type"] for v in report.violations})
    rec["caught"] = not report.passed and rec["expect"] in rec["found"]
    rec["report_sha256"] = sha256(plan_mod.dumps_stable(report.to_dict(include_runtime=False)))
    return rec


# ---------------------------------------------------------------------------
# one run

def _median(values, default=0.0) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _mark_nondeterministic(results: list[dict], n_inputs: int) -> None:
    """Every execution of one input must produce the same plan and report."""
    first: dict = {}
    for res in results:
        if res["seconds"] is None:
            continue
        key = res["input"] % n_inputs
        digest = (res.get("plan_sha256"), res.get("report_sha256"))
        if first.setdefault(key, digest) != digest:
            res["ok"] = False
            res["error"] = "output differs from an earlier run of the same input"


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the closed loop for `seconds`, gate every output.

    One set-up is a cold start plus the in-process `setup`. The loop cycles
    through the basket and stops only at the end of a pass, so every input
    is timed equally often. With `trace`, every input runs once plain and
    once traced, in alternating order, and the result holds per-layer
    metrics instead of end-to-end ones.
    """
    cfg = PackConfig(seed=seed)
    tracer = Tracer() if trace else None

    setup_times, cold_starts, digests = [], [], set()
    for rep in range(SETUP_REPS):
        cold_starts.append(cold_start())
        gc.collect()
        t0 = perf_counter()
        inputs = setup(w, seed, tracer if rep == SETUP_REPS - 1 else None)
        setup_times.append(cold_starts[-1] + perf_counter() - t0)
        digests.add(tuple(inp.get("build", {}).get("plan_sha256") for inp in inputs))
    setup_deterministic = len(digests) == 1

    controls = [negative_control(w.kinds[0], seed, cfg)] if w.verify else []

    results = []
    modes = (False, True) if trace else (False,)
    t0 = perf_counter()
    op = 0
    while op < len(inputs) or op % len(inputs) or perf_counter() - t0 < seconds:
        inp = inputs[op % len(inputs)]
        for traced in (modes if op % 2 == 0 else modes[::-1]):
            res = timed_op(w, inp, cfg, tracer if traced else None, op)
            res.update(input=op, traced=traced, kind=inp["kind"], x=inp["x"])
            results.append(res)
        op += 1
    _mark_nondeterministic(results, len(inputs))

    failed = sum(not r["ok"] for r in results) + sum(not c["caught"] for c in controls)
    attempted = len(results) + len(controls)
    plain = [r for r in results if not r["traced"]]
    if trace:
        metrics = layer_metrics(w, tracer, inputs, results)
    else:
        metrics = {
            "op_s": statistics.fmean(_median(r["seconds"] for r in plain
                                             if r["input"] % len(inputs) == i)
                                     for i in range(len(inputs))),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0 and setup_deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": {
            "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
            "setup_times": setup_times, "cold_starts": cold_starts,
            "setup_deterministic": setup_deterministic,
            "inputs": [{k: v for k, v in inp.items() if k != "text"} for inp in inputs],
            "results": results, "controls": controls,
            "spans": tracer.spans if trace else None,
        },
    }


def layer_metrics(w: Workload, tracer: Tracer, inputs: list[dict],
                  results: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced operations of the first pass
    through the basket (and, on verify workloads, over the traced set-up
    builds), so that counts repeat exactly for a seed."""
    times = op_times(tracer.spans)
    n = len(inputs)
    first = [r for r in results
             if r["traced"] and r["input"] < n and r["seconds"] is not None]
    plain = {r["input"]: r["seconds"] for r in results if not r["traced"] and r["input"] < n}

    builds = []    # (span times, build record) per traced build
    verifies = []  # (span times, verify record) per traced verify
    for r in first:
        (verifies if w.verify else builds).append((times[r["input"]], r))
    for i, inp in enumerate(inputs):
        if "build" in inp:
            builds.append((times[f"setup:{i}"], inp["build"]))

    def total(t, *prefixes):
        return sum(v for k, v in t["total"].items() if k.startswith(prefixes))

    def calls(t, *prefixes):
        return sum(v for k, v in t["calls"].items() if k.startswith(prefixes))

    return {
        "builders.build_s": _median(total(t, "builders.") for t, _ in builds),
        "builders.self_s": _median(t["self"]["builders"] for t, _ in builds),
        "builders.nodes": _median(r["nodes"] for _, r in builds),
        "builders.runs": _median(r["runs"] for _, r in builds),
        "builders.max_depth": _median(r["max_depth"] for _, r in builds),
        "builders.fallback_bands": _median(r["fallback_bands"] for _, r in builds),
        "plan.graft_s": _median(total(t, "plan.transform_") for t, _ in builds),
        "plan.graft_calls": _median(calls(t, "plan.transform_node") for t, _ in builds),
        "plan.account_s": _median(total(t, "plan.account", "plan.check_bound")
                                  for t, _ in builds),
        "plan.dumps_s": _median(total(t, "plan.plan_to_json") for t, _ in builds),
        "plan.bytes": _median(r["bytes"] for r in first),
        "plan.loads_s": _median(total(t, "plan.plan_from_json") for t, _ in verifies),
        "plan.enumerate_s": _median(total(t, "plan.enumerate_placements")
                                    for t, _ in verifies),
        "plan.placements": _median(r["placements"] for _, r in verifies),
        "tilt.solve_s": _median(total(t, "tilt.") for t, _ in builds),
        "tilt.solve_calls": _median(calls(t, "tilt.") for t, _ in builds),
        "verifier.verify_s": _median(total(t, "verifier.") for t, _ in verifies),
        "verifier.self_s": _median(t["self"]["verifier"] for t, _ in verifies),
        "verifier.candidate_pairs": _median(r["candidate_pairs"] for _, r in verifies),
        "verifier.pairs_per_square": _median(r["candidate_pairs"] / max(r["placements"], 1)
                                             for _, r in verifies),
        "verifier.overlap_pairs": _median(r["overlap_pairs"] for _, r in verifies),
        "verifier.sampled_points": _median(r["sampled_points"] for _, r in verifies),
        "verifier.violations": _median(r["violations"] for _, r in verifies),
        "trace.overhead_s": _median(r["seconds"] - plain[r["input"]] for r in first
                                    if plain.get(r["input"]) is not None),
        "trace.spans": _median(sum(times[r["input"]]["calls"].values()) for r in first),
    }
