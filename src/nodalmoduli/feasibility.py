"""Existence and exact computation of polarizations compatible with a gluing.

For a gluing of rank r, fiber-map rank k and restriction characteristics
(chi1, chi2), a polarization w is compatible when the four non-strict linear
inequalities

    chi*w1 <= chi1 <= chi*w1 + k
    chi*w2 + r - k <= chi2 <= chi*w2 + r

hold, where chi = chi1 + chi2 - r and w2 = 1 - w1.  As chi2 = chi + r - chi1,
the second line is the first rearranged: the system is the integer window of
:func:`chi1_window`, and the irreducible components of the moduli space are
exactly the compatible splittings chi1 + chi2 = chi + r at k = r.

Solving for w1 gives a closed interval whose endpoints have denominator
dividing |chi|; for chi = 0 the system degenerates to the integer test
0 <= chi1 <= k and every weight works when it passes.  The admissible region
is that interval intersected with the open unit interval of valid weights,
so infeasibility is simply an empty intersection.

:func:`w1_bounds` computes the intersection in integers alone, as numerators
over the common denominator |chi| (the fraction-free idiom of
``gluing.matrix_rank``); the ``Fraction``-valued reports are built from it.

Along a row of fixed chi1 the system is linear in chi2, so the interval
changes shape only at chi2 = r - k, r - min(k, chi1) and r and on the
diagonal chi2 = r - chi1 (chi = 0).  Below the diagonal the row is
feasible when chi1 < k and chi2 < r, its upper end open from r - k on;
above it, when chi1 > 0 and chi2 > r - min(k, chi1), its upper end open up
to r; on it, when 0 <= chi1 <= k.  The lower end is open throughout a
side, or not, by chi1 alone.  So between those lines every cell has the
same verdict and openness, and a closed endpoint is L/|chi| or U/|chi|
with L and U fixed.  :func:`region_runs` cuts every row of a box, however
narrow, into such runs, at most five per row, in three cases: chi1 < 0,
0 <= chi1 <= k (at both ends the diagonal repeats a cut, which is skipped)
and chi1 > k.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from ._record import Record
from .curves import Polarization
from .gluing import GluingDatum, validate_ranks
from .rationals import RationalInterval

# (lo, hi, den, lo_open, hi_open): the w1-interval from lo/den to hi/den.
Bounds = tuple[int, int, int, bool, bool]
# (chi1, first, last, bounds, step): the cells (chi1, first..last) of one
# run; bounds is w1_bounds at chi2 = first, and step, the sign of chi there,
# is how far den moves per cell.
Run = tuple[int, int, int, Bounds | None, int]


class FeasibilityReport(Record):
    """Outcome of the weight-existence problem for one (r, k, chi1, chi2).

    ``w1_interval`` is already intersected with the open unit interval, so
    ``feasible`` is simply its nonemptiness.  ``sample`` is a concrete
    compatible polarization when one exists (interval midpoint).
    """

    def __init__(
        self,
        feasible: bool,
        w1_interval: RationalInterval,
        sample: Polarization | None,
        chi: int,
    ) -> None:
        fields = self.__dict__
        fields["feasible"] = feasible
        fields["w1_interval"] = w1_interval
        fields["sample"] = sample
        fields["chi"] = chi


def chi1_window(chi: int, w1: Fraction, k: int) -> tuple[int, int]:
    """The integers chi1 with chi*w1 <= chi1 <= chi*w1 + k, as the range
    (lo, hi) from ceil(chi*w1) to floor(chi*w1) + k; it holds k + 1 values
    when chi*w1 is an integer and k otherwise."""
    p, q = w1.numerator, w1.denominator
    return -(-chi * p // q), (chi * p + k * q) // q


def violated_conditions(u: GluingDatum, w: Polarization) -> list[str]:
    """Names of the compatibility inequalities that w fails, in system order.

    The fourth inequality is the first rearranged and the third is the
    second, so the names fail in pairs; as k >= 1, the first two cannot
    both fail.
    """
    lo, hi = chi1_window(u.chi, w.w1, u.k)
    if u.chi1 < lo:
        return ["chi*w1 <= chi1", "chi2 <= chi*w2 + r"]
    if u.chi1 > hi:
        return ["chi1 <= chi*w1 + k", "chi*w2 + r - k <= chi2"]
    return []


def w1_bounds(r: int, k: int, chi1: int, chi2: int) -> Bounds | None:
    """The compatible w1-interval in integers: None when it is empty, else
    (lo, hi, den, lo_open, hi_open) for the interval from lo/den to hi/den.

    The raw solution runs from (chi1 - k)/chi to chi1/chi (flipped when
    chi < 0), so with den = |chi| both numerators are integers and hi - lo
    = k >= 1; clipping to the open unit interval replaces an endpoint at or
    beyond 0 or 1 by an open one.  The fractions need not be in lowest
    terms.  r and k are not validated here.
    """
    chi = chi1 + chi2 - r
    if chi == 0:
        return (0, 1, 1, True, True) if 0 <= chi1 <= k else None
    if chi > 0:
        lo, hi, den = chi1 - k, chi1, chi
    else:
        lo, hi, den = -chi1, k - chi1, -chi
    if hi <= 0 or lo >= den:
        return None
    lo_open = lo <= 0
    hi_open = hi >= den
    return (0 if lo_open else lo, den if hi_open else hi, den, lo_open, hi_open)


def _interval(bounds: Bounds | None) -> RationalInterval:
    if bounds is None:
        return RationalInterval.empty()
    lo, hi, den, lo_open, hi_open = bounds
    return RationalInterval(Fraction(lo, den), Fraction(hi, den), lo_open, hi_open)


def feasible_interval(r: int, k: int, chi1: int, chi2: int) -> FeasibilityReport:
    """Exact w1-interval of polarizations compatible with (r, k, chi1, chi2).

    The raw solution of the inequality system is the closed interval with
    endpoints (chi1 - k)/chi and chi1/chi (in the order the sign of chi
    dictates), or all weights when chi = 0 and 0 <= chi1 <= k; the report
    stores its intersection with the open unit interval.

    The k = 1 constraints are the strongest, so the intersection of the
    intervals over k = 1..r is the k = 1 interval, and the sample at k = 1
    is compatible for every fiber-map rank at once.
    """
    validate_ranks(r, k)
    bounds = w1_bounds(r, k, chi1, chi2)
    sample = None
    if bounds is not None:
        lo, hi, den = bounds[:3]
        sample = Polarization.from_w1(Fraction(lo + hi, 2 * den))
    return FeasibilityReport(
        feasible=bounds is not None,
        w1_interval=_interval(bounds),
        sample=sample,
        chi=chi1 + chi2 - r,
    )


def in_region(r: int, k: int, chi1: int, chi2: int) -> bool:
    """Whether (chi1, chi2) admits a compatible polarization for this k."""
    validate_ranks(r, k)
    return w1_bounds(r, k, chi1, chi2) is not None


def _row_starts(r: int, k: int, chi1: int) -> tuple[int, ...]:
    """The chi2 at which the runs of row chi1 after the first begin, by the
    three cases of the module docstring: ascending, with a start repeated at
    chi1 = 0 and at chi1 = k, which _runs skips.  Two adjacent runs differ in
    verdict, openness or the sign of chi."""
    if chi1 < 0:
        return (r - k, r)
    if chi1 <= k:
        d = r - chi1
        return (r - k, d, d + 1, r + 1)
    return (r - k + 1, r + 1)


def _runs(r: int, k: int, chi1s: range, lo2: int, hi2: int) -> Iterator[Run]:
    for chi1 in chi1s:
        first = lo2
        for start in _row_starts(r, k, chi1):
            if first < start <= hi2:
                chi = chi1 + first - r
                bounds = w1_bounds(r, k, chi1, first)
                yield chi1, first, start - 1, bounds, (chi > 0) - (chi < 0)
                first = start
        chi = chi1 + first - r
        yield chi1, first, hi2, w1_bounds(r, k, chi1, first), (chi > 0) - (chi < 0)


def region_runs(
    r: int,
    k: int,
    chi1_range: tuple[int, int],
    chi2_range: tuple[int, int],
) -> Iterator[Run]:
    """Feasibility over a lattice box of (chi1, chi2) pairs, one run of
    cells of the same interval shape at a time.

    A run (chi1, first, last, bounds, step) covers the cells (chi1, chi2)
    for first <= chi2 <= last, and bounds is w1_bounds(r, k, chi1, first).
    Along a feasible run chi keeps its sign, and only the denominator moves,
    by step per cell, the sign of chi at first; an open upper end follows
    it.  Runs come chi1-major, chi2 ascending, tiling each row of the box
    with its maximal runs, at most five.  r and k are checked before
    anything is returned, and a box beyond ssize_t is walked lazily.
    """
    (lo1, hi1), (lo2, hi2) = chi1_range, chi2_range
    validate_ranks(r, k)
    if lo2 > hi2:
        return iter(())
    return _runs(r, k, range(lo1, hi1 + 1), lo2, hi2)


def region_scan(
    r: int,
    k: int,
    chi1_range: tuple[int, int],
    chi2_range: tuple[int, int],
) -> list[tuple[int, int, bool, RationalInterval]]:
    """Tabulate feasibility over a lattice box of (chi1, chi2) pairs, one
    :func:`w1_bounds` call per cell.

    Rows are emitted chi1-major, chi2-minor, both ascending.  Empty ranges
    yield an empty list; r and k are checked first, even for an empty box.
    """
    (lo1, hi1), (lo2, hi2) = chi1_range, chi2_range
    validate_ranks(r, k)
    return [
        (chi1, chi2, bounds is not None, _interval(bounds))
        for chi1 in range(lo1, hi1 + 1)
        for chi2 in range(lo2, hi2 + 1)
        for bounds in [w1_bounds(r, k, chi1, chi2)]
    ]
