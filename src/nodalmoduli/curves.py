"""Discrete model of the nodal curve, polarizations, and depth-one sheaf classes.

The curve has two smooth components of genus g1, g2 >= 1 joined at a single
node.  A sheaf class carries only the numerical invariants the moduli
bookkeeping needs: the multirank (r1, r2), the Euler characteristic, and
optionally the characteristics of the restrictions to the two components.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .rationals import exact


class NodalCurve(Record):
    """Two smooth components of genus g1 and g2 meeting at one node."""

    def __init__(self, g1: int, g2: int) -> None:
        if g1 < 1 or g2 < 1:
            raise ValueError(f"component genera must be >= 1, got ({g1}, {g2})")
        fields = self.__dict__
        fields["g1"] = g1
        fields["g2"] = g2

    @property
    def arithmetic_genus(self) -> int:
        """g1 + g2 for a two-component curve with one node."""
        return self.g1 + self.g2


class Polarization(Record):
    """Rational weights (w1, w2) with w1 + w2 = 1 and 0 < wi < 1.

    Invalid weights are rejected at construction, never normalized: a caller
    handing in a bad pair is a bug worth surfacing.  A float weight is
    refused too, since its binary value can put w1 on the wrong side of a
    compatibility bound.
    """

    def __init__(self, w1: Fraction, w2: Fraction) -> None:
        w1 = Fraction(exact(w1, "weights"))
        w2 = Fraction(exact(w2, "weights"))
        if not 0 < w1 < 1:  # then 0 < w2 < 1 when the sum check passes
            raise ValueError(
                f"weights must lie strictly between 0 and 1, got ({w1}, {w2})"
            )
        if w1 + w2 != 1:
            raise ValueError(f"weights must sum to 1, got {w1} + {w2} = {w1 + w2}")
        fields = self.__dict__
        fields["w1"] = w1
        fields["w2"] = w2

    @classmethod
    def from_w1(cls, w1) -> "Polarization":
        w1 = Fraction(exact(w1, "weights"))
        return cls(w1, 1 - w1)


class SheafClass(Record):
    """Numerical invariants of a depth-one sheaf: multirank and characteristics.

    chi1/chi2 record the characteristics of the two restrictions when known.
    The zero sheaf (both ranks zero) is rejected: its slope has no convention.
    """

    def __init__(
        self,
        r1: int,
        r2: int,
        chi: int,
        chi1: int | None = None,
        chi2: int | None = None,
    ) -> None:
        if r1 < 0 or r2 < 0:
            raise ValueError(f"ranks must be >= 0, got ({r1}, {r2})")
        if r1 + r2 == 0:
            raise ValueError("zero sheaf has no slope; ranks must not both vanish")
        fields = self.__dict__
        fields["r1"] = r1
        fields["r2"] = r2
        fields["chi"] = chi
        fields["chi1"] = chi1
        fields["chi2"] = chi2


def polarized_slope(e: SheafClass, w: Polarization) -> Fraction:
    """Weighted slope chi / (w1 r1 + w2 r2) of a depth-one sheaf class."""
    return Fraction(e.chi) / (w.w1 * e.r1 + w.w2 * e.r2)


def chi_to_degree(chi_i: int, r_i: int, g_i: int) -> int:
    """Degree of a restriction: chi - r * chi(O), with chi(O) = 1 - g."""
    return chi_i - r_i * (1 - g_i)


def dim_moduli_smooth(r: int, d: int, g: int) -> int:
    """Dimension of the moduli space of semistable rank-r, degree-d bundles
    on a smooth curve of genus g: r^2(g-1) + 1 for g >= 2, gcd(r, d) for g = 1.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if g == 1:
        return math.gcd(r, d)
    return r * r * (g - 1) + 1


def mk_slope(d: int, rk: int, m: int) -> Fraction:
    """Shifted slope (d + m) / rk used by the (m,k)-semistability test."""
    if rk < 1:
        raise ValueError(f"rank must be >= 1, got {rk}")
    return Fraction(d + m, rk)
