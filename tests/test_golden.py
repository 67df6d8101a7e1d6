"""Byte-exact CLI output against the committed corpus in ``tests/golden/``:
one test per case of ``golden_cases.CASES``, run by ``golden_cases.run``,
and a check that the corpus has no orphan or missing file.
"""

import pytest

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


# Inputs a case names on purpose without the file existing.
ABSENT_INPUTS = {"missing.json", "a" * 5000}


def test_corpus_has_no_orphan_or_missing_files():
    expected = set()
    for name, (argv, code, _) in CASES.items():
        expected.add(f"{name}.out")
        if code == 2:
            expected.add(f"{name}.err")
        if "--matrix" in argv:
            expected.add(argv[argv.index("--matrix") + 1])
    present = {path.name for path in GOLDEN.iterdir()}
    assert sorted(expected - ABSENT_INPUTS - present) == [], "missing golden files"
    assert sorted(present - expected) == [], "golden files no case uses"
