"""matrix_rank's packed rows against the list elimination they replace.

``oracles.list_matrix_rank`` is the kernel as it was before rows were
packed.  The differential test runs both on generated matrices and traces
``gluing._rank`` line by line, so it can count how often each storage path
was taken and how often a packed lead or factor was negative; every path
and both values must be reached.  Storage moves one way, packed to
list, which a count of ``gluing._pack`` calls checks.  Mutants of the
kernel are built from its source text, in a module of their own, for the
negative controls.
"""

import random
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from nodalmoduli import gluing
from oracles import list_matrix_rank
from test_gluing import _known_rank_cases, _rank_t_core, _zero_factor_cases

SOURCE = Path(gluing.__file__).read_text(encoding="utf-8")
SOURCE_LINES = SOURCE.splitlines()
WIDE = 1 << gluing._GUARD

PATHS = (
    "packed unit step",
    "packed non-unit step",
    "packed row, m + |f| > 2**G",
    "packed row, entry crosses B",
    "m != 1",
    "packed pivot tail holds -B, negated",
    "zero column",
    "list pivot inside B",
    "list pivot outside B",
)

# Values the offset digits must decode right, counted like the paths.
VALUES = ("packed lead < 0", "packed factor < 0")

# The kernel lines whose start marks a path, as written in gluing._rank.
ZERO_COLUMN = "rows[:] = [row >> w if type(row) is int else row[1:] for row in rows]"
PACKED_PIVOT_TAIL = "packed_tail = (pivot_row >> w) - off"
NEGATED_PACKED_PIVOT = "lead, packed_tail = -lead, -packed_tail"
ROW_LOOP = "for i, row in enumerate(rows):"
PACKED_ROW_TAIL = "tail = row >> w"
PACKED_UPDATE = "u = m * tail - f * packed_tail - (m - 1) * off"
PACKED_STEP = "rows[i] = u if u != off else None"
PACKED_TO_LIST = "tail = _unpack(tail, cols, w, bound)"
LIST_UPDATE = "if m == 1:  # a unit step keeps the row's scalar: no content gcd"
NON_UNIT = "new = _primitive([m * a - f * b for a, b in zip(tail, pivot_tail)])"
MARKED = {ZERO_COLUMN, PACKED_PIVOT_TAIL, NEGATED_PACKED_PIVOT, ROW_LOOP, PACKED_ROW_TAIL,
          PACKED_STEP, PACKED_TO_LIST, LIST_UPDATE, NON_UNIT}


def _digits(y: int, count: int, w: int, offset: int) -> list[int]:
    """The first count entries of a row stored with offset digits: slot j
    of y, as base-2**w digits lowest first, holds entry j plus offset."""
    return [(y >> (w * j) & ((1 << w) - 1)) - offset for j in range(count)]


def _traced_rank(module, matrix) -> tuple[int, Counter]:
    """module.matrix_rank(matrix), and how often each of PATHS was taken and
    each of VALUES held, read off the lines _rank starts and its locals
    there.  module is gluing or a mutant of it with the same lines.  A line
    started again right after itself (a comprehension's loop) counts once."""
    code = module._rank.__code__
    counts = Counter()
    steps = set()
    list_pivots = []  # per list pivot once a row is packed: was its tail packed
    last = [None]

    def local(frame, event, arg):
        if event != "line" or frame.f_lineno == last[0]:
            return local
        last[0] = frame.f_lineno
        text = SOURCE_LINES[frame.f_lineno - 1].strip()
        if text not in MARKED:
            return local
        v = frame.f_locals
        if text == PACKED_STEP:
            counts["packed unit step" if v["m"] == 1 else "packed non-unit step"] += 1
        elif text == PACKED_TO_LIST:
            if v["m"] + abs(v["f"]) > WIDE:
                counts["packed row, m + |f| > 2**G"] += 1
            elif v["packed_tail"] is not None:
                counts["packed row, entry crosses B"] += 1  # the check failed
        elif text == NON_UNIT:
            counts["m != 1"] += 1
        elif text == LIST_UPDATE:
            counts["list update"] += 1
        elif text == PACKED_PIVOT_TAIL:  # the lead is decoded
            counts["packed lead < 0"] += v["lead"] < 0
        elif text == PACKED_ROW_TAIL:  # the factor is decoded
            counts["packed factor < 0"] += v["factor"] < 0
        elif text == NEGATED_PACKED_PIVOT:
            tail = _digits(v["pivot_row"] >> v["w"], v["cols"], v["w"], v["bound"])
            if -v["bound"] in tail:
                counts["packed pivot tail holds -B, negated"] += 1
        elif text == ZERO_COLUMN:
            counts["zero column"] += 1
        elif text == ROW_LOOP and v["rank"] not in steps:  # the step's first row
            steps.add(v["rank"])
            if type(v["pivot_row"]) is list and v["off"] is not None:
                list_pivots.append(v["packed_tail"] is not None)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        rank = module.matrix_rank(matrix)
    finally:
        sys.settrace(before)
    counts["list pivot inside B"] = sum(list_pivots)
    counts["list pivot outside B"] = len(list_pivots) - counts["list pivot inside B"]
    return rank, counts


def _mutant(*edits: tuple[str, str]) -> types.ModuleType:
    """gluing with each (old, new) line edit made once, compiled as its own
    module of the package."""
    source = SOURCE
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    module = types.ModuleType("nodalmoduli._packed_rank_mutant")
    module.__package__ = "nodalmoduli"
    exec(compile(source, gluing.__file__, "exec"), module.__dict__)
    return module


def _ldu(rng: random.Random, n: int, t: int, spread: int) -> list[list[int]]:
    """L diag(d) U with L unit lower triangular with entries in
    [-spread, spread], U unit upper with entries in [-2, 2], and d = +-1 on
    the first t places, zero after: rank t, Gaussian factors up to spread."""
    d = [rng.choice((-1, 1)) if l < t else 0 for l in range(n)]
    low = [[rng.randint(-spread, spread) if j < i else int(i == j) for j in range(n)]
           for i in range(n)]
    up = [[rng.randint(-2, 2) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return [
        [sum(low[i][l] * d[l] * up[l][j] for l in range(min(i, j) + 1)) for j in range(n)]
        for i in range(n)
    ]


def _growth(n: int, sign: int, at: int) -> list[list[int]]:
    """sign times the matrix with 1 on the diagonal, -1 below it and 1 in
    the last column, that column then moved to column at: every lead is
    +-1, and that column's entries double at each step, crossing B after
    about 8 + 1 steps."""
    rows = [
        [sign * (1 if j == i or j == n - 1 else -1 if j < i else 0) for j in range(n)]
        for i in range(n)
    ]
    return [row[:at] + row[-1:] + row[at:-1] for row in rows]


def _with_dependent_line(matrix: list[list[int]], at: int) -> list[list[int]]:
    """The n x n matrix bordered to (n + 1) x (n + 1) by the sum of columns
    at and 0 and then by the difference of rows 1 and n // 2: rank n."""
    n = len(matrix)
    rows = [row + [row[at] + row[0]] for row in matrix]
    return rows + [[a - b for a, b in zip(rows[1], rows[n // 2])]]


def _cases():
    """(name, matrix) pairs that reach every path in PATHS."""
    rng = random.Random(2024)
    for n in (3, 5, 8, 12, 16):
        for t in (n, n - 1, max(1, n // 2)):
            yield f"unit-core-n{n}-t{t}", _rank_t_core(rng, n, t, (-1, 1))
            yield f"wide-f-n{n}-t{t}", _ldu(rng, n, t, 600)
        for i, (m, _) in enumerate(_known_rank_cases(rng, n)):
            yield f"known-rank-n{n}-{i}", m
        for i, (m, _) in enumerate(_zero_factor_cases(rng, n)):
            yield f"zero-factor-n{n}-{i}", m
    for n in (10, 14, 24, 30):
        for sign in (1, -1):
            for at in (n - 1, n // 2, n - 2):
                growth = _growth(n, sign, at)
                deficient = _with_dependent_line(growth, at)
                yield f"growth-n{n}-{sign:+d}-at{at}", growth
                yield f"growth-deficient-n{n}-{sign:+d}-at{at}", deficient
                yield f"growth-shuffled-n{n}-{sign:+d}-at{at}", rng.sample(deficient, n + 1)
    for n in (4, 7):
        yield f"dense-n{n}", [
            [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)]
            for _ in range(n)
        ]
    # Lead 2 against factors 1: both packed m = 2 steps give rows negative
    # in every entry, [-3, -5] and [-9, -15], which differ by a factor 3.
    yield "negative-non-unit-step", [[2, 1, 1], [1, -1, -2], [1, -4, -7]]


CASES = list(_cases())


def test_every_marked_line_is_in_the_kernel():
    kernel = [line.strip() for line in SOURCE_LINES]
    for text in MARKED:
        assert kernel.count(text) == 1, text


def test_packed_ranks_match_list_elimination_on_every_path():
    totals = Counter()
    for name, matrix in CASES:
        rank, counts = _traced_rank(gluing, matrix)
        assert rank == list_matrix_rank(matrix), name
        totals += counts
    assert {key: totals[key] for key in PATHS + VALUES if not totals[key]} == {}


def _first_disagreement(module) -> str | None:
    for name, matrix in CASES:
        if module.matrix_rank(matrix) != list_matrix_rank(matrix):
            return name
    return None


@pytest.mark.parametrize(
    "edits",
    [
        [("if not u & high:", "if True:")],
        [("factor = (row & mask) - bound", "factor = row & mask")],
        # The int 0 is a stored row of -B, so only None may mark a zero row.
        [("rows[:] = [row for row in rows if row is not None]", "rows[:] = filter(None, rows)")],
        [(PACKED_UPDATE, "u = tail - f * packed_tail - (m - 1) * off")],
        # Without the correction a packed m = 2 step stores each entry
        # plus B; only an update negative in every entry passes the check.
        [(PACKED_UPDATE, "u = m * tail - f * packed_tail")],
    ],
    ids=["mask-check-dropped", "offset-lead-dropped", "stored-zero-dropped",
         "packed-m-factor-dropped", "packed-offset-correction-dropped"],
)
def test_negative_control_broken_packed_kernel_disagrees(edits):
    assert _first_disagreement(gluing) is None
    assert _first_disagreement(_mutant(*edits)) is not None


# The packed-path guard: on cores whose Gaussian pivots are all +-1, rows
# start packed and take at most n list updates in all, so a kernel that
# quietly stays on lists fails here although its ranks are right.
GUARD_CASES = [
    (_rank_t_core(random.Random(40 + n), n, t, (-1, 1)), t)
    for n in (12, 64)
    for t in (n, n - 1)
]


@pytest.mark.parametrize("matrix, rank", GUARD_CASES,
                         ids=[f"n{len(m)}-t{t}" for m, t in GUARD_CASES])
def test_unit_cores_stay_packed(matrix, rank):
    got, counts = _traced_rank(gluing, matrix)
    assert got == rank
    assert counts["list update"] <= len(matrix)
    assert counts["packed unit step"] > 0


def test_negative_control_list_only_kernel_breaks_the_guard():
    module = _mutant(("rows[:] = [_pack(row, w) + off for row in rows]", "pass"))
    matrix, rank = GUARD_CASES[-1]
    got, counts = _traced_rank(module, matrix)
    assert got == rank
    assert counts["list update"] > len(matrix)


def _over_one_way(module, monkeypatch) -> list[str]:
    """The CASES on which module._rank packs more than n + (pivot steps)
    times: once per row after the row content pass and at most once per list
    pivot's tail, which a kernel that never packs a row again keeps to."""
    calls = [0]
    pack = module._pack

    def counted(row, w):
        calls[0] += 1
        return pack(row, w)

    monkeypatch.setattr(module, "_pack", counted)
    over = []
    for name, matrix in CASES:
        calls[0] = 0
        rank = module.matrix_rank(matrix)  # one pivot step per unit of rank
        if calls[0] > len(matrix) + rank:
            over.append(name)
    return over


def test_rows_are_packed_once(monkeypatch):
    assert _over_one_way(gluing, monkeypatch) == []


def test_negative_control_repacking_kernel_breaks_the_one_way_guard(monkeypatch):
    # A kernel that packs a unit step's list result again when it fits.
    module = _mutant((
        "rows[i] = new if any(new) else None",
        "if not any(new): new = None\n"
        "            elif m == 1 and -bound <= min(new) and max(new) < bound: new = _pack(new, w) + off\n"
        "            rows[i] = new",
    ))
    assert _over_one_way(module, monkeypatch) != []
