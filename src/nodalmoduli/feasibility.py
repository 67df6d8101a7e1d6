"""Existence and exact computation of polarizations compatible with a gluing.

For a gluing of rank r, fiber-map rank k and restriction characteristics
(chi1, chi2), a polarization w is compatible when the four non-strict linear
inequalities

    chi*w1 <= chi1 <= chi*w1 + k
    chi*w2 + r - k <= chi2 <= chi*w2 + r

hold, where chi = chi1 + chi2 - r and w2 = 1 - w1.  Solving for w1 gives a
closed interval whose endpoints have denominator dividing |chi|; for chi = 0
the system degenerates to the integer test 0 <= chi1 <= k and every weight
works when it passes.  The admissible region is that interval intersected
with the open unit interval of valid weights, so infeasibility is simply an
empty intersection.

:func:`w1_bounds` computes the intersection in integers alone, as numerators
over the common denominator |chi| (the fraction-free idiom of
``gluing.matrix_rank``); the ``Fraction``-valued reports are built from it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from ._record import Record
from .curves import Polarization
from .gluing import GluingDatum, validate_ranks
from .rationals import RationalInterval

# (lo, hi, den, lo_open, hi_open): the w1-interval from lo/den to hi/den.
Bounds = tuple[int, int, int, bool, bool]


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

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "w1_interval": self.w1_interval.to_json(),
            "sample": None if self.sample is None else self.sample.to_json(),
            "chi": self.chi,
        }


def violated_conditions(u: GluingDatum, w: Polarization) -> list[str]:
    """Names of the compatibility inequalities that w fails, in system order.

    With chi2 = chi + r - chi1 and w2 = 1 - w1, the fourth inequality is the
    first rearranged and the third is the second, so the names fail in pairs;
    as k >= 1, the first two cannot both fail.
    """
    lhs = u.chi * w.w1
    if lhs > u.chi1:
        return ["chi*w1 <= chi1", "chi2 <= chi*w2 + r"]
    if u.chi1 > lhs + u.k:
        return ["chi1 <= chi*w1 + k", "chi*w2 + r - k <= chi2"]
    return []


def necessary_conditions(u: GluingDatum, w: Polarization) -> bool:
    """Whether w satisfies all four compatibility inequalities exactly."""
    return not violated_conditions(u, w)


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
    return feasible_interval(r, k, chi1, chi2).feasible


def region_cells(
    r: int,
    k: int,
    chi1_range: tuple[int, int],
    chi2_range: tuple[int, int],
) -> Iterator[tuple[int, int, Bounds | None]]:
    """Feasibility over a lattice box of (chi1, chi2) pairs, one cell at a time.

    r and k are checked before anything is returned, so bad ranks fail even
    when the box is empty.  The iterator yields (chi1, chi2, w1_bounds(...))
    chi1-major, chi2-minor, both ascending, and walks even a box beyond
    ssize_t lazily.
    """
    (lo1, hi1), (lo2, hi2) = chi1_range, chi2_range
    validate_ranks(r, k)
    chi2s = range(lo2, hi2 + 1)
    return (
        (chi1, chi2, w1_bounds(r, k, chi1, chi2))
        for chi1 in range(lo1, hi1 + 1)
        for chi2 in chi2s
    )


def region_scan(
    r: int,
    k: int,
    chi1_range: tuple[int, int],
    chi2_range: tuple[int, int],
) -> list[tuple[int, int, bool, RationalInterval]]:
    """Tabulate feasibility over a lattice box of (chi1, chi2) pairs.

    Rows are emitted chi1-major, chi2-minor, both ascending.  Empty ranges
    yield an empty list; r and k are checked first, as in :func:`region_cells`.
    """
    return [
        (chi1, chi2, bounds is not None, _interval(bounds))
        for chi1, chi2, bounds in region_cells(r, k, chi1_range, chi2_range)
    ]
