import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the demos that exercise the moment, correlation, numeric-Wigner, Bell-sum
# and elliptical-beam APIs
SMOKE_DEMOS = [
    "01_modes_and_schmidt.py",
    "02_wigner_functions.py",
    "03_bell_violation.py",
    "04_elliptical_beam.py",
    "05_correlations.py",
]


@pytest.mark.parametrize("script", SMOKE_DEMOS)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # as in the test suite, a numpy RuntimeWarning is a bug
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
