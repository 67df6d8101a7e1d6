"""Irreducible components of the moduli space of rank-(r, r) classes.

Components correspond to the integer splittings chi1 + chi2 = chi + r that
fall inside the two-sided window conditions for the chosen polarization;
every component has the same dimension r^2(g1 + g2 - 1) + 1.
"""

from __future__ import annotations

import math
from typing import Iterator

from ._record import Record
from .curves import NodalCurve, Polarization, chi_to_degree, dim_moduli_smooth
from .gluing import validate_ranks


class ComponentRecord(Record):
    """One irreducible component, keyed by its characteristic pair."""

    def __init__(self, chi1: int, chi2: int, d1: int, d2: int, dimension: int) -> None:
        fields = self.__dict__
        fields["chi1"] = chi1
        fields["chi2"] = chi2
        fields["d1"] = d1
        fields["d2"] = d2
        fields["dimension"] = dimension

    def to_json(self) -> dict:
        return {
            "chi1": self.chi1,
            "chi2": self.chi2,
            "d1": self.d1,
            "d2": self.d2,
            "dimension": self.dimension,
        }


def component_dimension(c: NodalCurve, r: int) -> int:
    """Dimension r^2(g1 + g2 - 1) + 1 of every irreducible component."""
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    return r * r * (c.arithmetic_genus - 1) + 1


def projective_bundle_dimension(c: NodalCurve, r: int) -> int:
    """Dimension of the projectivized bundle of fiber maps over the product
    of the two smooth-curve moduli spaces.

    Each factor enters with its moduli dimension at a degree coprime to r
    (degree 1 serves for every r, and makes a genus-1 factor contribute 1);
    the projectivized space of fiber maps adds r^2 - 1.
    """
    base = dim_moduli_smooth(r, 1, c.g1) + dim_moduli_smooth(r, 1, c.g2)
    return base + (r * r - 1)


def fixed_det_fiber_dimension(c: NodalCurve, r: int) -> int:
    """Dimension (r^2 - 1)(g1 + g2 - 1) of a fiber of the map recording the
    determinants of the two restrictions."""
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    return (r * r - 1) * (c.arithmetic_genus - 1)


def is_generic_for(chi: int, w: Polarization) -> bool:
    """Whether the window endpoints wi*chi are non-integral, so that neither
    boundary of the component window sits on a lattice point."""
    return (chi * w.w1).denominator != 1


def component_rows(
    c: NodalCurve, r: int, chi: int, w: Polarization
) -> Iterator[tuple[int, int, int, int, int]]:
    """(chi1, chi2, d1, d2, dimension) of every component, lazily and sorted
    by chi1 ascending: the splittings chi1 + chi2 = chi + r inside both
    windows w_i chi <= chi_i <= w_i chi + r.  As w2 = 1 - w1, the second
    window holds exactly when the first does.  r is checked at the call.

    Both boundary values are included when w_i chi is an integer; that is
    the non-generic case :func:`is_generic_for` detects, with r + 1 rows
    instead of r.
    """
    validate_ranks(r)
    low1 = chi * w.w1
    dimension = component_dimension(c, r)
    return (
        (
            chi1,
            chi + r - chi1,
            chi_to_degree(chi1, r, c.g1),
            chi_to_degree(chi + r - chi1, r, c.g2),
            dimension,
        )
        for chi1 in range(math.ceil(low1), math.floor(low1 + r) + 1)
    )


def enumerate_components(
    c: NodalCurve, r: int, chi: int, w: Polarization
) -> list[ComponentRecord]:
    """All components, one per row of :func:`component_rows`, sorted by chi1
    ascending."""
    return [ComponentRecord(*row) for row in component_rows(c, r, chi, w)]
