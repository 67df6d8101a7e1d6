"""Byte-exact CLI output against the committed corpus in ``tests/golden/``:
one test per case of ``golden_cases.CASES``, run by ``golden_cases.run``
and compared by ``golden_cases.compared``'s one rule (exit code, stdout and
stderr of every case, an absent ``.err`` recording an empty stderr), a
negative control for that rule, and a check that the corpus has no orphan
or missing file.
"""

import pytest

from nodalmoduli import cli
from by_path import mutant
from golden_cases import CASES, DIGIT_LIMIT_CASES, GOLDEN, compared
from oracles import needs_default_digit_limit


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=needs_default_digit_limit) if name in DIGIT_LIMIT_CASES
        else name
        for name in sorted(CASES)
    ],
)
def test_golden_output(name):
    got, recorded = compared(name)
    assert got == recorded


@pytest.mark.parametrize("name", ["dims", "dims_genus_zero"])
def test_negative_control_stray_stderr_fails_any_exit_code(name, monkeypatch):
    # dims exits 0 and dims_genus_zero 1, and neither records an .err.
    stray = mutant(cli, ("def _cmd_dims(args) -> None:\n",
                         "def _cmd_dims(args) -> None:\n    print('stray', file=sys.stderr)\n"))
    monkeypatch.setattr(cli, "main", stray.main)
    got, recorded = compared(name)
    assert got[:2] == recorded[:2]
    assert (got[2], recorded[2]) == (b"stray\n", b"")


# Inputs a case names on purpose without the file existing.
ABSENT_INPUTS = {"missing.json", "a" * 5000}


def test_corpus_has_no_orphan_or_missing_files():
    # An .err is optional for every case; an exit-2 case without one fails
    # its own test, since argparse writes its usage error to stderr.
    expected, optional = set(), {f"{name}.err" for name in CASES}
    for name, (argv, _, _) in CASES.items():
        expected.add(f"{name}.out")
        if "--matrix" in argv:
            expected.add(argv[argv.index("--matrix") + 1])
    present = {path.name for path in GOLDEN.iterdir()}
    assert sorted(expected - ABSENT_INPUTS - present) == [], "missing golden files"
    assert sorted(present - expected - optional) == [], "golden files no case uses"
