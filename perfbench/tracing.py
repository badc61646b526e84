"""Spans recorded at the boundaries between sqpack layers, from outside.

The tracer wraps module attributes: the public entry points the benchmark
calls on the `sqpack` package, and the names one layer imported from
another (builders -> plan grafting, builders -> tilt solvers, verifier ->
plan enumeration). Calls a module makes to its own functions are not
wrapped, so a recursive `transform_node` shows as one span per graft, not
one per node.

Spans are kept in memory as [name, start, end, parent, op] lists and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import sqpack
import sqpack.builders
import sqpack.plan
import sqpack.verifier

LAYERS = ("builders", "plan", "tilt", "verifier")


def _targets():
    """(module, attribute, span name) for every wrapped call site.

    A name the code no longer has (say, after grafting moves out of the
    builders) is skipped, and the metrics built on it read 0.
    """
    out = [
        (sqpack, "pack_square", "builders.pack_square"),
        (sqpack, "cover_square", "builders.cover_square"),
        (sqpack, "account", "plan.account"),
        (sqpack, "check_bound", "plan.check_bound"),
        (sqpack.plan, "plan_to_json", "plan.plan_to_json"),
        (sqpack.plan, "plan_from_json", "plan.plan_from_json"),
        (sqpack, "verify_packing", "verifier.verify_packing"),
        (sqpack, "verify_covering", "verifier.verify_covering"),
        (sqpack.builders, "transform_node", "plan.transform_node"),
        (sqpack.builders, "transform_seams", "plan.transform_seams"),
        (sqpack.verifier, "enumerate_placements", "plan.enumerate_placements"),
    ]
    for name in sorted(vars(sqpack.builders)):
        if name.startswith("solve_") and name.endswith("_tilt"):
            out.append((sqpack.builders, name, f"tilt.{name}"))
    return [t for t in out if hasattr(t[0], t[1])]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else None, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    @contextmanager
    def active(self, op):
        """Wrap every target while the block runs, tagging spans with `op`."""
        targets = _targets()
        saved = [getattr(mod, attr) for mod, attr, _ in targets]
        self.op = op
        try:
            for (mod, attr, name), fn in zip(targets, saved):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for (mod, attr, _), fn in zip(targets, saved):
                setattr(mod, attr, fn)
            self.op = None


def op_times(spans: list[list]) -> dict:
    """Per operation: total time and call count of each span name, and the
    self time of each layer (span durations minus their direct children)."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, op) in enumerate(spans):
        d = out.setdefault(op, {"total": {}, "calls": {},
                                "self": dict.fromkeys(LAYERS, 0.0)})
        d["total"][name] = d["total"].get(name, 0.0) + (end - start)
        d["calls"][name] = d["calls"].get(name, 0) + 1
        d["self"][name.split(".")[0]] += end - start - child[i]
    return out
