"""Shared configuration for plan construction and verification, and the
construction's fixed parameters."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

ASPECT_LIMIT = 7.0  # the paper's c: a panel is at most c times wider than long
WEDGE_TOP = 2.0     # target top edge of strip-end trapezoids, in units of sqrt(m)
TAU = 1e-9          # geometric predicate tolerance


@dataclass(frozen=True)
class PackConfig:
    base_cutoff: float = 100.0      # scale at or below which regions are grid-filled
    seed: int = 0                   # read by nothing (no check draws random numbers); kept
                                    # because perfbench/workloads.py builds PackConfig(seed=...)

    def with_overrides(self, **kw) -> "PackConfig":
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update({k: v for k, v in kw.items() if v is not None})
        return PackConfig(**current)


def load_config(path: str) -> PackConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    allowed = {f.name for f in fields(PackConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return PackConfig(**data)
