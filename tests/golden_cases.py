"""The golden corpus of the CLI and its one runner, ``run``.

``tests/golden/`` records what the CLI answers to each case of ``CASES``,
byte for byte: the exit code, stdout in ``<name>.out`` and stderr in
``<name>.err``.  One rule holds for every case, whatever its exit code: a
case without ``<name>.err`` records an empty stderr, so a stray stderr write
fails its case.  A usage error (exit code 2) always has an ``.err``; so does
a case that warns on stderr, such as ``components_non_generic_csv``.  A
change that alters a file changes the CLI's observable behaviour, and is
recorded in ``CHANGES.md``.  Every runner of the corpus calls ``run``:
``tests/test_golden.py``, ``tests/test_cli.py`` (the whole corpus twice, on
one cached parser), ``tools/tier1_versions.py`` and CI.  This file imports
no pytest, and the package only when a case runs, so
``tools/tier1_versions.py`` loads it by path on any interpreter.
"""

import contextlib
import io
import os
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code, extra environment)
CASES = {
    "feasible": (["feasible", "--r", "2", "--k", "1", "--chi1", "2", "--chi2", "3"], 0, {}),
    "feasible_chi_zero": (
        ["feasible", "--r", "3", "--k", "2", "--chi1", "1", "--chi2", "2"], 0, {}
    ),
    "feasible_negative_chi": (
        ["feasible", "--r", "3", "--k", "2", "--chi1", "-1", "--chi2", "-2"], 0, {}
    ),
    # A negative value written with underscores: a value, not an option.
    "feasible_underscored_negative": (
        ["feasible", "--r", "3", "--k", "2", "--chi1", "-1_0", "--chi2", "2"], 0, {}
    ),
    "feasible_infeasible": (
        ["feasible", "--r", "2", "--k", "1", "--chi1", "2", "--chi2", "1"], 0, {}
    ),
    "feasible_k_out_of_range": (
        ["feasible", "--r", "2", "--k", "5", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "feasible_rank_too_small": (
        ["feasible", "--r", "1", "--k", "1", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "region_json": (
        ["region", "--r", "3", "--k", "2", "--chi1=-2:3", "--chi2=0:4"], 0, {}
    ),
    "region_csv": (
        ["region", "--r", "2", "--k", "1", "--chi1=-5:5", "--chi2=-5:5",
         "--format", "csv"],
        0,
        {},
    ),
    # One column that crosses the diagonal chi = 0 at chi1 = 2: every row is
    # one cell.
    "region_one_column_json": (
        ["region", "--r", "4", "--k", "2", "--chi1=-3:6", "--chi2=2:2"], 0, {}
    ),
    "region_one_column_csv": (
        ["region", "--r", "4", "--k", "2", "--chi1=-3:6", "--chi2=2:2",
         "--format", "csv"],
        0,
        {},
    ),
    # Rows nine cells wide, each crossing every cut line of its case.
    "region_nine_wide_json": (
        ["region", "--r", "4", "--k", "2", "--chi1=-3:6", "--chi2=-2:6"], 0, {}
    ),
    "region_nine_wide_csv": (
        ["region", "--r", "4", "--k", "2", "--chi1=-3:6", "--chi2=-2:6",
         "--format", "csv"],
        0,
        {},
    ),
    # A range from a negative bound to a signed one, as its own argument.
    "region_signed_negative_range": (
        ["region", "--r", "2", "--k", "1", "--chi1", "-5:+3", "--chi2", "0:1",
         "--format", "csv"],
        0,
        {},
    ),
    "region_empty_json": (
        ["region", "--r", "2", "--k", "1", "--chi1", "3:1", "--chi2", "0:1"], 0, {}
    ),
    "region_cap": (
        ["region", "--r", "2", "--k", "1", "--chi1", "0:10", "--chi2", "0:10"],
        1,
        {"NODAL_MODULI_MAX_CELLS": "10"},
    ),
    "region_cap_bad_rank": (
        ["region", "--r", "2", "--k", "0", "--chi1", "0:10", "--chi2", "0:10"],
        1,
        {"NODAL_MODULI_MAX_CELLS": "10"},
    ),
    # A cap past int()'s digit limit, refused by name and quoted short.
    "region_cap_huge_env": (
        ["region", "--r", "2", "--k", "1", "--chi1", "0:1", "--chi2", "0:1"],
        1,
        {"NODAL_MODULI_MAX_CELLS": "7" * 5000},
    ),
    "region_huge_range": (
        ["region", "--r", "2", "--k", "1",
         "--chi1=-100000000000000000000:100000000000000000000", "--chi2", "0:1"],
        1,
        {},
    ),
    # A 5,000-digit upper bound, refused by name; region_huge_range is
    # refused by the cap instead.
    "region_huge_bound": (
        ["region", "--r", "2", "--k", "1", "--chi1", "0:" + "1" * 5000, "--chi2", "0:1"],
        2,
        {},
    ),
    "region_k_out_of_range": (
        ["region", "--r", "2", "--k", "0", "--chi1", "0:1", "--chi2", "0:1"], 1, {}
    ),
    "region_malformed_range": (
        ["region", "--r", "2", "--k", "1", "--chi1", "1", "--chi2", "0:1"], 2, {}
    ),
    "region_non_integer_range": (
        ["region", "--r", "2", "--k", "1", "--chi1", "a:b", "--chi2", "0:1"], 2, {}
    ),
    "components_json": (
        ["components", "--g1", "2", "--g2", "3", "--r", "3", "--chi", "5",
         "--w1", "2/7"],
        0,
        {},
    ),
    "components_csv": (
        ["components", "--g1", "2", "--g2", "3", "--r", "3", "--chi", "5",
         "--w1", "2/7", "--format", "csv"],
        0,
        {},
    ),
    "components_non_generic": (
        ["components", "--g1", "1", "--g2", "1", "--r", "2", "--chi", "0",
         "--w1", "1/2"],
        0,
        {},
    ),
    "components_non_generic_csv": (
        ["components", "--g1", "1", "--g2", "1", "--r", "2", "--chi", "0",
         "--w1", "1/2", "--format", "csv"],
        0,
        {},
    ),
    "components_cap": (
        ["components", "--g1", "2", "--g2", "3", "--r", "3", "--chi", "5",
         "--w1", "2/7"],
        1,
        {"NODAL_MODULI_MAX_CELLS": "3"},
    ),
    "components_rank_too_small": (
        ["components", "--g1", "2", "--g2", "2", "--r", "1", "--chi", "1",
         "--w1", "1/2"],
        1,
        {},
    ),
    "components_genus_zero": (
        ["components", "--g1", "0", "--g2", "2", "--r", "2", "--chi", "1",
         "--w1", "1/2"],
        1,
        {},
    ),
    "components_decimal_weight": (
        ["components", "--g1", "2", "--g2", "2", "--r", "2", "--chi", "1",
         "--w1", "0.5"],
        2,
        {},
    ),
    # A weight whose denominator has one digit more than int() converts.
    "components_huge_weight": (
        ["components", "--g1", "2", "--g2", "2", "--r", "2", "--chi", "1",
         "--w1", "1/" + "1" * 4301],
        2,
        {},
    ),
    "glue_identity": (
        ["glue", "--matrix", "identity.json", "--chi1", "1", "--chi2", "1"], 0, {}
    ),
    "glue_degenerate": (
        ["glue", "--matrix", "degenerate.json", "--chi1", "3", "--chi2", "1"], 0, {}
    ),
    "glue_scaled_rank7": (
        ["glue", "--matrix", "scaled_rank7.json", "--chi1", "2", "--chi2", "-3"], 0, {}
    ),
    "glue_zero_matrix": (
        ["glue", "--matrix", "zero.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_rank_one_matrix": (
        ["glue", "--matrix", "one_by_one.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_cap": (
        ["glue", "--matrix", "identity.json", "--chi1", "1", "--chi2", "1"],
        1,
        {"NODAL_MODULI_MAX_CELLS": "7"},
    ),
    "glue_cap_ragged": (
        ["glue", "--matrix", "ragged.json", "--chi1", "0", "--chi2", "0"],
        1,
        {"NODAL_MODULI_MAX_CELLS": "7"},
    ),
    "glue_missing_file": (
        ["glue", "--matrix", "missing.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    # A 5,000-character path: the OS refuses it, and the message quotes its
    # first 40 characters.
    "glue_long_path": (
        ["glue", "--matrix", "a" * 5000, "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_unreduced_cells": (
        ["glue", "--matrix", "unreduced_cells.json", "--chi1", "2", "--chi2", "-1"], 0, {}
    ),
    "glue_int_cells": (
        ["glue", "--matrix", "int_cells.json", "--chi1", "2", "--chi2", "-1"], 0, {}
    ),
    "glue_decimal_cell": (
        ["glue", "--matrix", "decimal_cell.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_zero_denominator": (
        ["glue", "--matrix", "zero_denominator.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    # A NUL inside a cell: one cell, not two, however a row is decoded.
    "glue_nul_in_cell": (
        ["glue", "--matrix", "nul_in_cell.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    # Arabic-Indic digits, which both \d and int() accept.
    "glue_unicode_digits": (
        ["glue", "--matrix", "unicode_digits.json", "--chi1", "1", "--chi2", "1"], 0, {}
    ),
    # A row with a zero denominator before a malformed cell: the first bad
    # cell in row order names the error.
    "glue_zero_denominator_before_bad_cell": (
        ["glue", "--matrix", "zero_denominator_before_bad_cell.json",
         "--chi1", "0", "--chi2", "0"],
        1,
        {},
    ),
    "glue_bool_cell": (
        ["glue", "--matrix", "bool_cell.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_float_cell": (
        ["glue", "--matrix", "float_cell.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    # A 1,000-character cell: the error quotes its first 40 characters.
    "glue_long_cell": (
        ["glue", "--matrix", "long_cell.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    # Past the interpreter's 4,300-digit limit on int(): a "p/q" cell, and a
    # bare JSON integer cell, which the decoder itself cannot convert.
    "glue_huge_digits": (
        ["glue", "--matrix", "huge_digits.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_huge_int_cell": (
        ["glue", "--matrix", "huge_int_cell.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_ragged": (
        ["glue", "--matrix", "ragged.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_two_by_three": (
        ["glue", "--matrix", "two_by_three.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_one_by_two": (
        ["glue", "--matrix", "one_by_two.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_not_array": (
        ["glue", "--matrix", "not_array.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_row_not_array": (
        ["glue", "--matrix", "row_not_array.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    # Byte 10 is 0xff, which no UTF-8 text holds.
    "glue_not_utf8": (
        ["glue", "--matrix", "not_utf8.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "glue_malformed_json": (
        ["glue", "--matrix", "malformed.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    # 100,000 levels: past the fixed C recursion limit of every CPython up
    # to 3.13 (10,000 at most) and, at more than 80 bytes of C stack per
    # level, past an 8 MB stack where 3.14 checks stack depth instead.
    # TestGlue::test_decoder_recursion_is_domain_error pins the mapping
    # independently of where the decoder gives up.
    "glue_deep_nesting": (
        ["glue", "--matrix", "deep_nesting.json", "--chi1", "0", "--chi2", "0"], 1, {}
    ),
    "check_sufficiency_default_weight": (
        ["check-sufficiency", "--r", "2", "--k", "1", "--chi1", "1", "--chi2", "2",
         "--g1", "2", "--g2", "2"],
        0,
        {},
    ),
    "check_sufficiency_strict": (
        ["check-sufficiency", "--r", "3", "--k", "2", "--chi1", "2", "--chi2", "4",
         "--g1", "5", "--g2", "5", "--w1", "1/2", "--strict"],
        0,
        {},
    ),
    "check_sufficiency_unreduced_weight": (
        ["check-sufficiency", "--r", "3", "--k", "2", "--chi1", "2", "--chi2", "4",
         "--g1", "5", "--g2", "5", "--w1", "2/4"],
        0,
        {},
    ),
    "check_sufficiency_incompatible_weight": (
        ["check-sufficiency", "--r", "2", "--k", "1", "--chi1", "2", "--chi2", "3",
         "--g1", "2", "--g2", "2", "--w1", "1/5"],
        1,
        {},
    ),
    "check_sufficiency_infeasible": (
        ["check-sufficiency", "--r", "2", "--k", "1", "--chi1", "2", "--chi2", "1",
         "--g1", "2", "--g2", "2"],
        1,
        {},
    ),
    "check_sufficiency_cap": (
        ["check-sufficiency", "--r", "3", "--k", "2", "--chi1", "2", "--chi2", "4",
         "--g1", "5", "--g2", "5"],
        1,
        {"NODAL_MODULI_MAX_CELLS": "47"},
    ),
    "check_sufficiency_genus_before_rank": (
        ["check-sufficiency", "--r", "1", "--k", "3", "--chi1", "0", "--chi2", "0",
         "--g1", "0", "--g2", "2"],
        1,
        {},
    ),
    "check_sufficiency_rank_too_small": (
        ["check-sufficiency", "--r", "1", "--k", "1", "--chi1", "0", "--chi2", "0",
         "--g1", "2", "--g2", "2"],
        1,
        {},
    ),
    "check_sufficiency_k_out_of_range": (
        ["check-sufficiency", "--r", "2", "--k", "3", "--chi1", "0", "--chi2", "0",
         "--g1", "2", "--g2", "2"],
        1,
        {},
    ),
    "dims": (["dims", "--g1", "2", "--g2", "3", "--r", "4"], 0, {}),
    "dims_genus_one": (["dims", "--g1", "1", "--g2", "1", "--r", "2"], 0, {}),
    "dims_genus_zero": (["dims", "--g1", "2", "--g2", "0", "--r", "2"], 1, {}),
    "dims_rank_zero": (["dims", "--g1", "2", "--g2", "3", "--r", "0"], 1, {}),
    "dims_non_integer_rank": (["dims", "--g1", "2", "--g2", "3", "--r", "x"], 2, {}),
    # 5,000 digits, past int()'s limit: the error quotes the first 40 characters.
    "dims_huge_rank": (["dims", "--g1", "2", "--g2", "3", "--r", "1" * 5000], 2, {}),
    "mk_test": (
        ["mk-test", "--sub-d", "1", "--sub-rk", "1", "--amb-d", "3", "--amb-rk", "2",
         "--m", "0", "--k", "1"],
        0,
        {},
    ),
    # Fails, where the subsheaf with degree and rank swapped would pass.
    "mk_test_steep_subsheaf": (
        ["mk-test", "--sub-d", "3", "--sub-rk", "1", "--amb-d", "4", "--amb-rk", "2",
         "--m", "0", "--k", "0"],
        0,
        {},
    ),
    "mk_test_strict": (
        ["mk-test", "--sub-d", "1", "--sub-rk", "1", "--amb-d", "3", "--amb-rk", "2",
         "--m", "0", "--k", "1", "--strict"],
        0,
        {},
    ),
}


# Cases past the interpreter's digit limit on int(), which pin its default.
DIGIT_LIMIT_CASES = {
    "components_huge_weight", "dims_huge_rank", "glue_huge_digits", "glue_huge_int_cell",
    "region_cap_huge_env", "region_huge_bound",
}


def run(name: str) -> tuple[int, bytes, bytes]:
    """(exit code, stdout bytes, stderr bytes) of ``cli.main`` on the case,
    run from inside ``GOLDEN`` (``glue`` echoes its relative matrix path),
    with ``COLUMNS=80`` (argparse wraps its usage text to it),
    ``NODAL_MODULI_MAX_CELLS`` unset and the case's own environment.  The
    working directory and the environment are restored afterwards."""
    from nodalmoduli.cli import main

    argv, _, env = CASES[name]
    cwd, saved = os.getcwd(), dict(os.environ)
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(GOLDEN)
        os.environ["COLUMNS"] = "80"
        os.environ.pop("NODAL_MODULI_MAX_CELLS", None)
        os.environ.update(env)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
        os.environ.clear()
        os.environ.update(saved)
    return code, out.getvalue().encode(), err.getvalue().encode()


def compared(name: str) -> tuple[tuple, tuple]:
    """(what ``run`` gives, what the corpus records) for the case, each an
    (exit code, stdout, stderr) triple compared by one rule: the recorded
    stderr is ``<name>.err``, or empty when the case has no such file."""
    err = GOLDEN / f"{name}.err"
    recorded = err.read_bytes() if err.exists() else b""
    return run(name), (CASES[name][1], (GOLDEN / f"{name}.out").read_bytes(), recorded)
