"""The per-test time limit of conftest.py, run on a sleeping test."""

import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

CONFTEST = Path(__file__).with_name("conftest.py")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX setitimer")
def test_negative_control_a_sleep_past_a_patched_limit_fails(tmp_path):
    source = CONFTEST.read_text(encoding="utf-8")
    assert source.count("TIME_LIMIT_S = 120\n") == 1
    (tmp_path / "conftest.py").write_text(
        source.replace("TIME_LIMIT_S = 120\n", "TIME_LIMIT_S = 0.1\n"), encoding="utf-8"
    )
    (tmp_path / "test_sleep.py").write_text(
        "import time\n\n\n"
        "def test_quick():\n    time.sleep(0.01)\n\n\n"
        "def test_sleeps():\n    time.sleep(30)\n",
        encoding="utf-8",
    )
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_sleep.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert time.monotonic() - start < 25
    assert result.returncode == 1, result.stdout
    assert "1 failed, 1 passed" in result.stdout
    assert "TestTimeLimit: test_sleep.py::test_sleeps ran past the 0.1 s limit" in result.stdout
