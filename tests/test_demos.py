"""Smoke test of the demo scripts: each runs to exit 0 with warnings as errors.

convergence_orders.py is left out: it takes 16-19 s even with --quick, and
the refinement slopes it prints are checked by the acceptance criteria.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize(
    "script",
    ["compact_operators.py", "equivariance_checks.py", "error_tables.py", "galilean_boosts.py"],
)
def test_demo_runs_cleanly(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
