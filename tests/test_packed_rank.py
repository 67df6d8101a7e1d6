"""matrix_rank's two phases against the list elimination they replace.

``oracles.list_matrix_rank`` is the kernel as it was before rows were
packed.  The differential test runs both on generated matrices and traces
``gluing.matrix_rank`` and ``gluing._list_rank`` line by line, so it can
count how often each path was taken (a packed step, each kind of handoff
to the list phase, a list step) and how often a packed lead or factor was
negative; every path and both values must be reached.  Rows are packed
once, at the start, which a count of ``gluing._pack`` calls checks.
Mutants of the kernel are built from its source text, in a module of
their own, for the negative controls.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from by_path import mutant
from nodalmoduli import gluing
from oracles import list_matrix_rank
from test_gluing import _known_rank_cases, _rank_t_core, _zero_factor_cases

SOURCE_LINES = Path(gluing.__file__).read_text(encoding="utf-8").splitlines()
WIDE = 1 << gluing._GUARD

PATHS = (
    "packed unit step",
    "packed non-unit step",
    "handoff on m + |f| > 2**G",
    "handoff on an entry crossing B",
    "handoff after a packed update in the same step",
    "handoff at step 0",
    "list unit step",
    "list m != 1",
    "packed pivot tail holds -B, negated",
    "packed zero column",
    "list zero column",
)

# Values the offset digits must decode right, counted like the paths.
VALUES = ("packed lead < 0", "packed factor < 0")

# The kernel lines whose start marks a path, as written in
# gluing.matrix_rank and gluing._list_rank.
PACKED_ZERO_COLUMN = "rows[:] = [row >> w for row in rows]"
PACKED_PIVOT_TAIL = "pivot_tail = (pivot_row >> w) - off"
NEGATED_PACKED_PIVOT = "lead, pivot_tail = -lead, -pivot_tail"
PACKED_STEP_START = "updated = []"
PACKED_UPDATE = "u = m * (row >> w) - f * pivot_tail - (m - 1) * off"
PACKED_STEP = "if u != off:  # OFF is the zero row; the int 0 is a row of -B"
HANDOFF = "rows.insert(pivot, pivot_row)"
LIST_ZERO_COLUMN = "rows[:] = [row[1:] for row in rows]"
LIST_UNIT = "rows[i] = [a - f * b for a, b in zip(row[1:], pivot_tail)]"
LIST_NON_UNIT = "rows[i] = _primitive([m * a - f * b for a, b in zip(row[1:], pivot_tail)])"
MARKED = {PACKED_ZERO_COLUMN, PACKED_PIVOT_TAIL, NEGATED_PACKED_PIVOT, PACKED_STEP_START,
          PACKED_UPDATE, PACKED_STEP, HANDOFF, LIST_ZERO_COLUMN, LIST_UNIT, LIST_NON_UNIT}


def _digits(y: int, count: int, w: int, offset: int) -> list[int]:
    """The first count entries of a row stored with offset digits: slot j
    of y, as base-2**w digits lowest first, holds entry j plus offset."""
    return [(y >> (w * j) & ((1 << w) - 1)) - offset for j in range(count)]


def _traced_rank(module, matrix) -> tuple[int, Counter]:
    """module.matrix_rank(matrix), and how often each of PATHS was taken and
    each of VALUES held, read off the lines matrix_rank and _list_rank start
    and their locals there, with "handoff" counting the handoffs.  module is
    gluing or a mutant of it with the same lines.  A line started again
    right after itself (a comprehension's loop) counts once."""
    codes = {module.matrix_rank.__code__, module._list_rank.__code__}
    counts = Counter()
    packed_update = [False]  # whether the current packed step updated a row
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
            packed_update[0] = True
        elif text == PACKED_STEP_START:
            packed_update[0] = False
        elif text == PACKED_UPDATE:  # the factor is decoded
            counts["packed factor < 0"] += v["factor"] < 0
        elif text == HANDOFF:
            counts["handoff"] += 1
            if v["m"] + abs(v["f"]) > WIDE:
                counts["handoff on m + |f| > 2**G"] += 1
            else:
                counts["handoff on an entry crossing B"] += 1  # the check failed
            counts["handoff after a packed update in the same step"] += packed_update[0]
            counts["handoff at step 0"] += v["rank"] == 0
        elif text == LIST_UNIT:
            counts["list unit step"] += 1
        elif text == LIST_NON_UNIT:
            counts["list m != 1"] += 1
        elif text == PACKED_PIVOT_TAIL:  # the lead is decoded
            counts["packed lead < 0"] += v["lead"] < 0
        elif text == NEGATED_PACKED_PIVOT:
            tail = _digits(v["pivot_row"] >> v["w"], v["cols"], v["w"], v["bound"])
            if -v["bound"] in tail:
                counts["packed pivot tail holds -B, negated"] += 1
        elif text == PACKED_ZERO_COLUMN:
            counts["packed zero column"] += 1
        elif text == LIST_ZERO_COLUMN:
            counts["list zero column"] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in codes else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        rank = module.matrix_rank(matrix)
    finally:
        sys.settrace(before)
    return rank, counts


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


def _with_repeated_column(matrix: list[list[int]], at: int) -> list[list[int]]:
    """The n x n matrix with column at repeated next to itself, and then
    bordered by the difference of rows 1 and n // 2: rank n, and the repeat
    is a zero column once column at is eliminated."""
    n = len(matrix)
    rows = [row[:at + 1] + row[at:] for row in matrix]
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
            # From n = 14 the repeat comes after the handoff, at about step
            # 9, so it is a zero column of the list phase.
            repeated = _with_repeated_column(_growth(n, sign, n - 1), n - 3)
            yield f"growth-repeated-n{n}-{sign:+d}", repeated
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
        assert counts["handoff"] <= 1, name
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
        [("if m + abs(f) > wide or u & high:", "if m + abs(f) > wide:")],
        # The handoff decodes every lead of the list phase.  A packed lead or
        # factor decoded without the offset is off by B, so it makes
        # m + |f| > 2**G and hands off: that mutant ranks right.
        [("(y >> s & mask) - bound", "(y >> s & mask)")],
        # The int 0 is a stored row of -B, so only OFF may mark a zero row.
        [("if u != off:", "if u and u != off:")],
        [(PACKED_UPDATE, "u = (row >> w) - f * pivot_tail - (m - 1) * off")],
        # Without the correction a packed m = 2 step stores each entry
        # plus B; only an update negative in every entry passes the check.
        [(PACKED_UPDATE, "u = m * (row >> w) - f * pivot_tail")],
        # The handoff's rows hold the pivot column, one slot more than
        # their tails.
        [("span = w * (cols + 1)", "span = w * cols")],
        # The step writes its updates over the rows it would hand off.
        [("for row in rows:", "for i, row in enumerate(rows):"),
         ("updated.append(u)", "updated.append(u)\n                rows[i] = u")],
        # The failed step is counted, but its rows are handed off as they
        # were, without the pivot.
        [(HANDOFF, "rank += 1")],
    ],
    ids=["mask-check-dropped", "offset-lead-dropped", "stored-zero-dropped",
         "packed-m-factor-dropped", "packed-offset-correction-dropped",
         "handoff-one-slot-short", "handoff-partly-updated-rows", "handoff-skips-failed-step"],
)
def test_negative_control_broken_packed_kernel_disagrees(edits):
    assert _first_disagreement(gluing) is None
    assert _first_disagreement(mutant(gluing, *edits)) is not None


# The packed-path guard: on cores whose Gaussian pivots are all +-1, every
# step stays packed, so a kernel that quietly hands off to lists fails
# here although its ranks are right.
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
    assert counts["handoff"] == 0
    assert counts["packed unit step"] > 0


def test_negative_control_list_only_kernel_breaks_the_guard():
    # A kernel that hands every matrix off at its first updated row.
    module = mutant(gluing, ("if m + abs(f) > wide or u & high:", "if True:"))
    matrix, rank = GUARD_CASES[-1]
    got, counts = _traced_rank(module, matrix)
    assert got == rank
    assert counts["handoff"] == 1
    assert counts["list unit step"] > 0


def _over_one_pack(module, monkeypatch) -> list[str]:
    """The CASES on which module.matrix_rank packs more than n times: once
    per row of the initial pack, which a kernel that packs nothing later
    keeps to."""
    calls = [0]
    pack = module._pack

    def counted(row, w):
        calls[0] += 1
        return pack(row, w)

    monkeypatch.setattr(module, "_pack", counted)
    over = []
    for name, matrix in CASES:
        calls[0] = 0
        module.matrix_rank(matrix)
        if calls[0] > len(matrix):
            over.append(name)
    return over


def test_rows_are_packed_once(monkeypatch):
    assert _over_one_pack(gluing, monkeypatch) == []


def test_negative_control_repacking_kernel_breaks_the_one_way_guard(monkeypatch):
    # A kernel that packs a list unit step's result again.
    module = mutant(gluing, (LIST_UNIT, LIST_UNIT + "\n                _pack(rows[i], 1)"))
    assert _over_one_pack(module, monkeypatch) != []
