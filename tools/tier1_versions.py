"""Run tier-1 on each given Python, or the golden corpus and the demos where
pytest cannot be imported.

    python3 tools/tier1_versions.py [--negative-control] PYTHON...

Each PYTHON runs from the repository root with PYTHONPATH=src:SITE, where
SITE, the site-packages of the Python running this script, lends it the
pure-Python test dependencies: pytest, hypothesis and sympy.

- A PYTHON that can import pytest that way runs tier-1,
  ``python -m pytest -q --continue-on-collection-errors``.
- Any other PYTHON runs every case of ``tests/test_golden.py`` through
  ``cli.main`` in process, comparing exit code and output bytes with
  ``tests/golden/``, and runs the scripts in ``demos/``, comparing their
  stdout with the stdout of the Python running this script.

``--negative-control`` runs the golden corpus on each PYTHON with
PYTHONINTMAXSTRDIGITS=0, which lifts the limit on the digits int()
converts; it passes when exactly the cases of ``DIGIT_LIMIT_CASES`` fail.

One line per PYTHON is printed; the exit code is 1 when any of them fails.
Only the standard library is needed.  ``--golden`` is the in-process
corpus run itself, which prints the names of the failing cases as JSON.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def golden_names() -> tuple[dict, set]:
    """CASES and DIGIT_LIMIT_CASES of tests/test_golden.py, read without
    importing it (it imports pytest).  Both are built of literals and
    operators alone."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("CASES", "DIGIT_LIMIT_CASES"):
                code = compile(ast.Expression(node.value), "test_golden.py", "eval")
                found[name] = eval(code, {"__builtins__": {}})
    return found["CASES"], found["DIGIT_LIMIT_CASES"]


def run_golden() -> list[str]:
    """The names of the golden cases whose exit code or output differs, run
    as tests/test_golden.py runs them."""
    from nodalmoduli.cli import main

    cases, _ = golden_names()
    os.chdir(GOLDEN)
    failed = []
    for name, (argv, code, env) in sorted(cases.items()):
        saved = dict(os.environ)
        os.environ["COLUMNS"] = "80"
        os.environ.pop("NODAL_MODULI_MAX_CELLS", None)
        os.environ.update(env)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                got = main(list(argv))
        finally:
            os.environ.clear()
            os.environ.update(saved)
        ok = got == code and out.getvalue().encode() == (GOLDEN / f"{name}.out").read_bytes()
        if ok and code == 2:
            ok = err.getvalue().encode() == (GOLDEN / f"{name}.err").read_bytes()
        if not ok:
            failed.append(name)
    return failed


def child(python: str, args: list[str], env: dict, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [python, *args], cwd=ROOT, env={**os.environ, **env},
        capture_output=True, text=True, **kwargs,
    )


def golden_failures(python: str, env: dict) -> list[str]:
    proc = child(python, [__file__, "--golden"], env)
    if proc.returncode:
        raise RuntimeError(proc.stderr.strip().splitlines()[-1])
    return json.loads(proc.stdout)


def demo_failures(python: str, env: dict) -> list[str]:
    """The demos whose stdout under python differs from this Python's."""
    return [
        demo.stem
        for demo in DEMOS
        if child(python, [str(demo)], env).stdout != child(sys.executable, [str(demo)], env).stdout
    ]


def check(python: str, negative_control: bool) -> tuple[bool, str]:
    """(passed, summary) for one interpreter."""
    site = sysconfig.get_paths()["purelib"]
    env = {"PYTHONPATH": os.pathsep.join([str(ROOT / "src"), site])}
    try:
        version = child(python, ["-c", "import sys; print(sys.version.split()[0])"], env)
    except OSError as exc:
        return False, f"{python}: {exc}"
    label = f"{python} ({version.stdout.strip()})"
    if negative_control:
        _, digit_cases = golden_names()
        failed = golden_failures(python, {**env, "PYTHONINTMAXSTRDIGITS": "0"})
        passed = set(failed) == digit_cases
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
    cases = len(golden_names()[0])
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
    args = parser.parse_args(argv)
    if args.golden:
        print(json.dumps(run_golden()))
        return 0
    if not args.pythons:
        parser.error("name at least one PYTHON")
    ok = True
    for python in args.pythons:
        passed, summary = check(python, args.negative_control)
        print(("PASS " if passed else "FAIL ") + summary, flush=True)
        ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
