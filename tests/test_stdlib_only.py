"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``.  This pins it: a tiny
BonnRoute flow must complete in a fresh interpreter in which any import
of numpy fails, without even attempting one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import builtins
import sys

sys.modules["numpy"] = None  # any later ``import numpy`` raises ImportError
attempts = []
_import = builtins.__import__


def _recording_import(name, *args, **kwargs):
    if name.split(".")[0] == "numpy":
        attempts.append(name)
    return _import(name, *args, **kwargs)


builtins.__import__ = _recording_import

import repro
from repro.chip.generator import ChipSpec, generate_chip
from repro.flow.bonnroute import BonnRouteFlow

chip = generate_chip(
    ChipSpec("stdlib", rows=1, row_width_cells=3, net_count=2, seed=7)
)
result = BonnRouteFlow(chip, gr_phases=2, seed=1, cleanup=False).run()
detailed = result.detailed_result
assert detailed.routed and not detailed.failed, detailed.failed
# Not even a guarded ``try: import numpy`` may remain.
assert not attempts, attempts
print("flow-complete")
"""


def test_flow_runs_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("flow-complete")
