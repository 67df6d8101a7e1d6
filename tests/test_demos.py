"""Smoke test: every narrative script in ``demos/`` runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import src_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "feasible_region_map",
        "glue_and_inspect",
        "moduli_dimensions",
        "semistability_sweep",
    ],
)
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()
