"""The walkthrough demos run to completion against the package sources.

Demos 05 and 06 drive the sweep and the cohort mimic end to end through
the public API; each takes one to two seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_network_statistics.py",
    "02_generate_population.py",
    "03_rds_recruitment.py",
    "04_correlated_covariates.py",
    "05_bias_experiment.py",
    "06_engage_mimic.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
