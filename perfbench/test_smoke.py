"""Smoke test of the benchmark at tiny sizes (a few seconds in all).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each workload emits exactly the metrics BENCHMARK.json names,
with their units, that the seed code passes every gate, that the negative
controls are caught, and that a verifier which stops checking is counted
as failing.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import sqpack  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "plan-large": replace(workloads.WORKLOADS["plan-large"], x_range=(150, 150)),
    "verify-pack": replace(workloads.WORKLOADS["verify-pack"], x_range=(120, 122)),
    "verify-cover": replace(workloads.WORKLOADS["verify-cover"], kinds=("cover",),
                            x_range=(120, 121)),
}


def _expected(trace: bool) -> dict:
    rows = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def test_spec_names_every_workload():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert _expected(False) == workloads.END_TO_END
    assert _expected(True) == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_emits_metrics_and_passes(name, trace):
    out = workloads.run(TINY[name], seed=3, seconds=0.0, trace=trace)
    assert out["correct"], [r["error"] for r in out["detail"]["results"] if not r["ok"]]
    assert out["failed"] == 0 and out["attempted"] >= 1
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _expected(trace)
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())
    controls = out["detail"]["controls"]
    assert len(controls) == (1 if TINY[name].verify else 0)
    assert all(c["caught"] for c in controls)


def test_seed_repeats_counts_and_hashes():
    runs = [workloads.run(TINY["verify-pack"], seed=5, seconds=0.0, trace=True)
            for _ in range(2)]
    counts = ("plan.bytes", "builders.runs", "plan.placements", "verifier.candidate_pairs")
    a, b = ([r["metrics"][k]["value"] for k in counts] for r in runs)
    assert a == b
    digests = [[(r["plan_sha256"], r["report_sha256"]) for r in run["detail"]["results"]]
               for run in runs]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", ["verify-pack", "verify-cover"])
def test_verifier_that_checks_nothing_fails_the_run(name, monkeypatch):
    target = "verify_packing" if name == "verify-pack" else "verify_covering"
    real = getattr(sqpack, target)

    def lenient(plan, cfg):
        report = real(plan, cfg=cfg)
        report.violations = []
        return report.finish()

    monkeypatch.setattr(sqpack, target, lenient)
    out = workloads.run(TINY[name], seed=3, seconds=0.0, trace=False)
    assert not out["correct"]
    assert out["failed"] == 1
    assert not out["detail"]["controls"][0]["caught"]


def test_loop_times_every_input_equally_often():
    out = workloads.run(TINY["verify-cover"], seed=3, seconds=0.0, trace=False)
    assert len(out["detail"]["results"]) == 1
    w = replace(TINY["plan-large"], x_range=(150, 160))
    out = workloads.run(w, seed=3, seconds=0.2, trace=False)
    counts = [r["input"] % len(w.kinds) for r in out["detail"]["results"]]
    assert len(counts) > len(w.kinds)
    assert counts.count(0) == counts.count(1)
