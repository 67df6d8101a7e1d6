"""``tools/tier1_versions.py``: it reads the same golden cases as
``test_golden.py``, and its corpus run can fail."""

import subprocess
import sys

from by_path import ROOT, load_by_path
from test_cli import src_env
from test_golden import CASES, DIGIT_LIMIT_CASES

TOOL = ROOT / "tools" / "tier1_versions.py"


def load_tool():
    return load_by_path(TOOL, "tier1_versions")


def test_reads_the_golden_cases_without_importing_them():
    assert load_tool().golden_names() == (CASES, DIGIT_LIMIT_CASES)


def test_negative_control_fails_exactly_the_digit_limit_cases():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--negative-control", sys.executable],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("PASS ")
    assert f"{len(DIGIT_LIMIT_CASES)} golden cases fail" in proc.stdout
