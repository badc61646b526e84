"""The construction's fixed parameters, and the verifiers' unread config."""

from __future__ import annotations

from dataclasses import dataclass

BASE_CUTOFF = 100.0  # scale at or below which regions are grid-filled
ASPECT_LIMIT = 7.0   # the paper's c: a panel is at most c times wider than long
WEDGE_TOP = 2.0      # target top edge of strip-end trapezoids, in units of sqrt(m)
TAU = 1e-9           # geometric predicate tolerance


@dataclass(frozen=True)
class PackConfig:
    seed: int = 0  # read by nothing; kept because perfbench/workloads.py builds
                   # PackConfig(seed=...) and passes it to the verifiers as cfg=
