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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import Polarization
from .gluing import GluingDatum, validate_ranks
from .rationals import RationalInterval

_OPEN_UNIT = RationalInterval(Fraction(0), Fraction(1), True, True)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the weight-existence problem for one (r, k, chi1, chi2).

    ``w1_interval`` is already intersected with the open unit interval, so
    ``feasible`` is simply its nonemptiness.  ``sample`` is a concrete
    compatible polarization when one exists (interval midpoint).
    """

    feasible: bool
    w1_interval: RationalInterval
    sample: Polarization | None
    chi: int

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


def feasible_interval(r: int, k: int, chi1: int, chi2: int) -> FeasibilityReport:
    """Exact w1-interval of polarizations compatible with (r, k, chi1, chi2).

    The raw solution of the inequality system is the closed interval with
    endpoints (chi1 - k)/chi and chi1/chi (in the order the sign of chi
    dictates), or all weights when chi = 0 and 0 <= chi1 <= k; the report
    stores its intersection with the open unit interval.
    """
    validate_ranks(r, k)
    chi = chi1 + chi2 - r
    if chi == 0:
        interval = _OPEN_UNIT if 0 <= chi1 <= k else RationalInterval.empty()
    else:
        # Dividing by chi flips the endpoint order when chi < 0.
        endpoints = sorted((Fraction(chi1 - k, chi), Fraction(chi1, chi)))
        interval = RationalInterval.closed(*endpoints).intersect(_OPEN_UNIT)
    w1 = interval.sample()
    sample = None if w1 is None else Polarization(w1, 1 - w1)
    return FeasibilityReport(
        feasible=not interval.is_empty, w1_interval=interval, sample=sample, chi=chi
    )


def in_region(r: int, k: int, chi1: int, chi2: int) -> bool:
    """Whether (chi1, chi2) admits a compatible polarization for this k."""
    return feasible_interval(r, k, chi1, chi2).feasible


def feasible_interval_all_k(r: int, chi1: int, chi2: int) -> FeasibilityReport:
    """Polarizations compatible with every fiber-map rank k = 1..r at once.

    The k = 1 constraints are the strongest, so the intersection over k
    equals the k = 1 interval, and its sample works simultaneously for all k.
    """
    return feasible_interval(r, 1, chi1, chi2)


def in_region_all_k(r: int, chi1: int, chi2: int) -> bool:
    """Whether (chi1, chi2) admits one polarization compatible for all k."""
    return feasible_interval_all_k(r, chi1, chi2).feasible


def region_scan(
    r: int,
    k: int,
    chi1_range: tuple[int, int],
    chi2_range: tuple[int, int],
    max_cells: int | None = None,
) -> list[tuple[int, int, bool, RationalInterval]]:
    """Tabulate feasibility over a lattice box of (chi1, chi2) pairs.

    Rows are emitted chi1-major, chi2-minor, both ascending.  Empty ranges
    yield an empty list.
    """
    lo1, hi1 = chi1_range
    lo2, hi2 = chi2_range
    n1 = max(0, hi1 - lo1 + 1)
    n2 = max(0, hi2 - lo2 + 1)
    if max_cells is not None and n1 * n2 > max_cells:
        raise ValueError(
            f"region of {n1 * n2} lattice points exceeds the cap of {max_cells}"
        )
    rows = []
    for chi1 in range(lo1, hi1 + 1):
        for chi2 in range(lo2, hi2 + 1):
            report = feasible_interval(r, k, chi1, chi2)
            rows.append((chi1, chi2, report.feasible, report.w1_interval))
    return rows
