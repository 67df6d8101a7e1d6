"""``tools/tier1_versions.py``: its corpus run, through ``golden_cases.run``,
can fail, an interpreter that cannot run fails alone, and the option may be
written after an interpreter."""

import subprocess
import sys

from by_path import ROOT
from golden_cases import DIGIT_LIMIT_CASES
from test_cli import src_env

TOOL = ROOT / "tools" / "tier1_versions.py"


def tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )


def negative_control(*pythons):
    return tool("--negative-control", *pythons)


def test_negative_control_fails_exactly_the_digit_limit_cases():
    proc = negative_control(sys.executable)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("PASS ")
    assert f"{len(DIGIT_LIMIT_CASES)} golden cases fail" in proc.stdout


def fails_first_and_passes_second(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    fail, passed = proc.stdout.splitlines()
    assert fail == "FAIL /bin/false: no output"
    assert passed.startswith(f"PASS {sys.executable} ")


def test_an_interpreter_that_cannot_run_fails_and_the_next_is_checked():
    fails_first_and_passes_second(negative_control("/bin/false", sys.executable))


def test_the_option_may_follow_an_interpreter():
    fails_first_and_passes_second(tool("/bin/false", "--negative-control", sys.executable))
