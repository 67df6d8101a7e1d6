"""Run tier-1 on each given Python, or the golden corpus and the demos where
pytest cannot be imported.

    python3 tools/tier1_versions.py [--negative-control] PYTHON...

Each PYTHON runs from the repository root with PYTHONPATH=src:SITE, where
SITE, the site-packages of the Python running this script, lends it
pytest, hypothesis and sympy.  A PYTHON that can import pytest that way
runs tier-1, ``python -m pytest -q --continue-on-collection-errors``.  Any
other runs the golden corpus in process through the runner of
``tests/golden_cases.py``, and the scripts in ``demos/``, whose stdout must
match this Python's.  ``--negative-control``, written before, between or
after the PYTHONs, runs the corpus alone with PYTHONINTMAXSTRDIGITS=0, which
lifts the limit on the digits int() converts, and passes when exactly
``DIGIT_LIMIT_CASES`` fail.

One line per PYTHON is printed, and the exit code is 1 when any fails.  A
PYTHON that cannot run gets a FAIL line with the last line of its stderr,
or "no output", and the next is checked.  ``--golden`` is the corpus run
itself, which prints the failing cases as JSON.  Only the standard library
is needed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import operator
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


class CannotRun(Exception):
    """A child Python failed or printed nothing."""


def load_corpus():
    """tests/golden_cases.py, loaded by its path: the corpus and its one runner."""
    spec = importlib.util.spec_from_file_location("golden_cases", ROOT / "tests" / "golden_cases.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def child(python: str, args: list[str], env: dict, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [python, *args], cwd=ROOT, env={**os.environ, **env},
        capture_output=True, text=True, **kwargs,
    )


def child_stdout(python: str, args: list[str], env: dict) -> str:
    """python's stdout on args.  A run that fails or prints nothing raises
    CannotRun with its last line of stderr, or "no output"."""
    proc = child(python, args, env)
    if proc.returncode or not proc.stdout.strip():
        raise CannotRun((proc.stderr.strip().splitlines() or ["no output"])[-1].strip())
    return proc.stdout


def golden_failures(python: str, env: dict) -> list[str]:
    return json.loads(child_stdout(python, [__file__, "--golden"], env))


def demo_failures(python: str, env: dict) -> list[str]:
    """The demos whose stdout under python differs from this Python's."""
    return [
        demo.stem
        for demo in DEMOS
        if child(python, [str(demo)], env).stdout != child(sys.executable, [str(demo)], env).stdout
    ]


def check(python: str, corpus, negative_control: bool) -> tuple[bool, str]:
    """(passed, summary) for one interpreter; raises OSError or CannotRun
    when it cannot run."""
    site = sysconfig.get_paths()["purelib"]
    env = {"PYTHONPATH": os.pathsep.join([str(ROOT / "src"), site])}
    version = child_stdout(python, ["-c", "import sys; print(sys.version.split()[0])"], env)
    label = f"{python} ({version.strip()})"
    if negative_control:
        env["PYTHONINTMAXSTRDIGITS"] = "0"
        failed = golden_failures(python, env)
        passed = set(failed) == corpus.DIGIT_LIMIT_CASES
        return passed, f"{label}: with no digit limit {len(failed)} golden cases fail: {failed}"
    if child(python, ["-c", "import pytest"], env).returncode == 0:
        proc = child(
            python, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors"], env, timeout=1800,
        )
        lines = proc.stdout.strip().splitlines()
        return proc.returncode == 0, f"{label}: tier-1 {lines[-1] if lines else proc.stderr}"
    failed = golden_failures(python, env)
    demos = demo_failures(python, env)
    cases = len(corpus.CASES)
    summary = (
        f"{label}: pytest not importable; golden {cases - len(failed)}/{cases} "
        f"(failed: {failed}), demos {len(DEMOS) - len(demos)}/{len(DEMOS)} (differ: {demos})"
    )
    return not failed and not demos, summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="*", metavar="PYTHON")
    parser.add_argument("--negative-control", action="store_true")
    parser.add_argument("--golden", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_intermixed_args(argv)
    corpus = load_corpus()
    if args.golden:
        print(json.dumps([name for name in sorted(corpus.CASES) if operator.ne(*corpus.compared(name))]))
        return 0
    if not args.pythons:
        parser.error("name at least one PYTHON")
    ok = True
    for python in args.pythons:
        try:
            passed, summary = check(python, corpus, args.negative_control)
        except (OSError, CannotRun) as exc:
            passed, summary = False, f"{python}: {exc}"
        print(("PASS " if passed else "FAIL ") + summary, flush=True)
        ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
