"""Keep test runs from writing into the checkout: hypothesis caches the
literals of local modules under its storage directory even with
`database=None`, so point that directory at a temporary one."""

from __future__ import annotations

import tempfile

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only test_planner.py needs hypothesis
    pass
else:
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="sqpack-hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
