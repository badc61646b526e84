"""Unit-square packing and covering plans for large rectangular targets.

Builds explicit layouts of axis-unit squares (packings stay inside the
target and never overlap; coverings may overlap and overshoot), accounts
for the wasted or excess area analytically, and verifies finished plans
geometrically without trusting the construction.
"""

from .config import PackConfig
from .geometry import Pose, Region
from .plan import PlanNode, StackRun, WasteReport, account, check_bound, enumerate_placements
from .planner import cover_square, pack_square
from .verifier import verify_covering, verify_packing

__all__ = [
    "PackConfig",
    "Pose",
    "Region",
    "PlanNode",
    "StackRun",
    "WasteReport",
    "account",
    "check_bound",
    "enumerate_placements",
    "pack_square",
    "cover_square",
    "verify_packing",
    "verify_covering",
]
