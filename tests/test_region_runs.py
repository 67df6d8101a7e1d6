"""``region_runs`` against the point kernel ``w1_bounds``, cell by cell.

A run (chi1, first, last, bounds, step) claims that every cell (chi1, chi2)
with first <= chi2 <= last has the interval of its first cell, except that
the denominator moves by step per cell and an open upper end follows it.
``expand`` reads that claim off the run; the oracle is ``w1_bounds`` at each
cell.  The runs must also tile the box chi1-major, in ascending order.
"""

import itertools

import pytest

from nodalmoduli import feasibility
from nodalmoduli.feasibility import region_runs, region_scan, w1_bounds


def claimed(run, chi2):
    """The bounds a run claims for its cell chi2."""
    _, first, _, bounds, step = run
    if bounds is None:
        return None
    lo, hi, den, lo_open, hi_open = bounds
    d = den + step * (chi2 - first)
    return (lo, d if hi_open else hi, d, lo_open, hi_open)


def expand(run):
    """The (chi1, chi2, bounds) cells a run stands for."""
    chi1, first, last = run[:3]
    return ((chi1, chi2, claimed(run, chi2)) for chi2 in range(first, last + 1))


def mismatches(r, k, chi1_range, chi2_range):
    """Cells where the expanded runs disagree with w1_bounds, or where the
    runs do not cover the box in order."""
    (lo1, hi1), (lo2, hi2) = chi1_range, chi2_range
    got = itertools.chain.from_iterable(map(expand, region_runs(r, k, chi1_range, chi2_range)))
    want = (
        (chi1, chi2, w1_bounds(r, k, chi1, chi2))
        for chi1 in range(lo1, hi1 + 1)
        for chi2 in range(lo2, hi2 + 1)
    )
    for a, b in itertools.zip_longest(got, want):
        if a != b:
            yield (r, k, chi1_range, chi2_range), a, b


# r 2..8, every k, chi1 and chi2 in -25..25: 91,035 cells.
GRID = [(r, k) for r in range(2, 9) for k in range(1, r + 1)]
SPAN = (-25, 25)

# (r, k, chi1_range, chi2_range) of boxes with special shapes.
BOXES = {
    "empty_chi1": (3, 2, (4, 3), (0, 5)),
    "empty_chi2": (3, 2, (0, 5), (4, 3)),
    "one_cell": (3, 2, (1, 1), (2, 2)),
    "one_cell_on_diagonal": (4, 4, (4, 4), (0, 0)),
    "one_row": (5, 3, (2, 2), (-40, 40)),
    "one_column": (5, 3, (-40, 40), (2, 2)),
    "below_diagonal": (4, 2, (-6, 6), (-30, -10)),
    "above_diagonal": (4, 2, (-6, 6), (20, 30)),
    "two_wide": (6, 4, (-20, 20), (3, 4)),
    "narrow_row": (6, 4, (-20, 20), (2, 9)),
    "just_wider_than_narrow": (6, 4, (-20, 20), (2, 10)),
}

NARROW_WIDTHS = (1, 2, 8)


def narrow_boxes(width):
    """The chi2 ranges width cells wide whose ends fall before, on and after
    each cut: for r <= 8 every cut lies in 0 <= chi2 <= 9."""
    return [(lo, lo + width - 1) for lo in range(-width - 1, 12)]


def sign(n):
    return (n > 0) - (n < 0)


def shape_faults(r, runs):
    """The rows of runs that have more than five runs or two neighbours of
    the same shape: verdict, openness and the sign of chi at the first cell."""
    for _, row in itertools.groupby(runs, key=lambda run: run[0]):
        row = list(row)
        kinds = [
            (b is None, b and b[3], b and b[4], sign(chi1 + first - r))
            for chi1, first, _, b, _ in row
        ]
        if len(row) > 5 or any(a == b for a, b in zip(kinds, kinds[1:])):
            yield row


def step_faults(r, runs):
    """The runs whose step is not the sign of chi at their first cell."""
    return (run for run in runs if run[4] != sign(run[0] + run[1] - r))


class TestRunsMatchTheKernel:
    @pytest.mark.parametrize("r, k", GRID)
    def test_grid(self, r, k):
        assert next(mismatches(r, k, SPAN, SPAN), None) is None

    @pytest.mark.parametrize("r, k", GRID)
    def test_one_column_boxes(self, r, k):
        # Every column of the grid, each row a single cell.
        for chi2 in range(SPAN[0], SPAN[1] + 1):
            assert next(mismatches(r, k, SPAN, (chi2, chi2)), None) is None

    @pytest.mark.parametrize("width", [2, 8])
    def test_narrow_boxes(self, width):
        # A row that ends on a cut, or just past one, keeps both sides apart.
        for (r, k), chi2_range in itertools.product(GRID, narrow_boxes(width)):
            assert next(mismatches(r, k, SPAN, chi2_range), None) is None

    @pytest.mark.parametrize("name", BOXES)
    def test_special_boxes(self, name):
        assert next(mismatches(*BOXES[name]), None) is None

    def test_region_cells_is_the_expansion(self):
        # Expanded, the runs list the cells region_scan tabulates.
        for r, k in GRID:
            runs = region_runs(r, k, (-9, 9), (-9, 9))
            expanded = list(itertools.chain.from_iterable(map(expand, runs)))
            rows = region_scan(r, k, (-9, 9), (-9, 9))
            assert [(a, b, bounds is not None) for a, b, bounds in expanded] == [
                (a, b, ok) for a, b, ok, _ in rows
            ]


class TestRunShape:
    def test_at_most_five_runs_per_row_and_neighbours_differ(self):
        for r, k in GRID:
            assert next(shape_faults(r, region_runs(r, k, SPAN, SPAN)), None) is None

    @pytest.mark.parametrize("name", BOXES)
    def test_special_boxes_have_maximal_runs(self, name):
        r = BOXES[name][0]
        assert next(shape_faults(r, region_runs(*BOXES[name])), None) is None

    @pytest.mark.parametrize("width", NARROW_WIDTHS)
    def test_narrow_rows_have_maximal_runs(self, width):
        for (r, k), chi2_range in itertools.product(GRID, narrow_boxes(width)):
            runs = region_runs(r, k, SPAN, chi2_range)
            assert next(shape_faults(r, runs), None) is None, (r, k, chi2_range)

    def test_step_is_the_sign_of_chi_at_the_first_cell(self):
        boxes = [(r, k, SPAN, SPAN) for r, k in GRID]
        boxes += BOXES.values()
        boxes += [
            (r, k, SPAN, chi2_range)
            for width in NARROW_WIDTHS
            for (r, k), chi2_range in itertools.product(GRID, narrow_boxes(width))
        ]
        for r, k, chi1_range, chi2_range in boxes:
            runs = region_runs(r, k, chi1_range, chi2_range)
            assert next(step_faults(r, runs), None) is None, (r, k, chi1_range, chi2_range)

    def test_empty_boxes_have_no_runs(self):
        assert list(region_runs(3, 2, (4, 3), (0, 5))) == []
        assert list(region_runs(3, 2, (0, 5), (4, 3))) == []

    @pytest.mark.parametrize("r, k", [(1, 1), (2, 0), (2, 3)])
    def test_ranks_are_checked_by_the_call(self, r, k):
        with pytest.raises(ValueError):
            region_runs(r, k, (4, 3), (0, 5))


class TestHugeRanges:
    # Bounds beyond ssize_t: len(range(...)) would overflow, so nothing may
    # size or list the box.
    HUGE = (-10**20, 10**20)

    def test_huge_chi1_range_is_walked_lazily(self):
        runs = region_runs(2, 1, self.HUGE, (0, 3))
        row = list(itertools.takewhile(lambda run: run[0] == -10**20, runs))
        cells = list(itertools.chain.from_iterable(map(expand, row)))
        assert cells == [(-10**20, c, w1_bounds(2, 1, -10**20, c)) for c in range(4)]

    def test_huge_chi2_range_is_one_row_of_runs(self):
        r, k = 3, 2
        row = list(region_runs(r, k, (1, 1), self.HUGE))
        assert row[0][1] == -10**20 and row[-1][2] == 10**20
        assert all(a[2] + 1 == b[1] for a, b in zip(row, row[1:]))
        # Each run holds at its ends and next to every cut.
        for run in row:
            chi1, first, last = run[:3]
            for chi2 in (first, first + 1, last - 1, last):
                if first <= chi2 <= last:
                    assert claimed(run, chi2) == w1_bounds(r, k, chi1, chi2), run

    def test_huge_chi2_range_through_region_cells(self):
        cells = expand(next(region_runs(3, 2, (0, 0), self.HUGE)))
        assert next(cells) == (0, -10**20, w1_bounds(3, 2, 0, -10**20))


@pytest.mark.parametrize("shift", [-1, 1])
def test_negative_control_moved_r_minus_k_cut_is_caught(monkeypatch, shift):
    real = feasibility._row_starts

    def moved(r, k, chi1):
        return tuple(s + shift if s == r - k else s for s in real(r, k, chi1))

    monkeypatch.setattr(feasibility, "_row_starts", moved)
    found = (next(mismatches(r, k, SPAN, SPAN), None) for r, k in GRID)
    assert any(found)
