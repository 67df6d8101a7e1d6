"""Slope bounds for subsheaves of a glued sheaf, and sufficiency checks.

Subsheaves of a gluing are classified, at the invariant level, by a shape
(s, s1, s2): the free multiplicity s of their stalk at the node and their
ranks s1, s2 on the two components, with 0 <= s <= k and s <= si <= r.  Such
a subsheaf splits off kernel bundles G1, G2 on the components, and when the
component bundles are (0,k)- resp. (0,r)-semistable the degrees of G1, G2
are bounded above.  Since the weighted slope grows with the degrees, the
extremal degrees realize the largest slope of each shape; comparing those
finitely many extremal slopes against the ambient slope decides
semistability at the level this model resolves.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .curves import NodalCurve, Polarization, chi_to_degree, mk_slope
from .feasibility import violated_conditions
from .gluing import GluingDatum


class NecessaryConditionError(ValueError):
    """The polarization fails the compatibility inequalities of the gluing."""

    def __init__(self, message: str, violated: list[str]):
        super().__init__(message)
        self.violated = violated


class StabilityHypotheses(Record):
    """A gluing instance together with the component genera.

    Degrees d1, d2 are derived from the characteristics: di = chii - r(1-gi).
    Validation is by :class:`NodalCurve`, then :class:`GluingDatum`.
    """

    def __init__(self, r: int, k: int, chi1: int, chi2: int, g1: int, g2: int) -> None:
        fields = self.__dict__
        fields["r"] = r
        fields["k"] = k
        fields["chi1"] = chi1
        fields["chi2"] = chi2
        fields["g1"] = g1
        fields["g2"] = g2
        NodalCurve(g1, g2)
        self.gluing()
        fields["d1"] = chi_to_degree(chi1, r, g1)
        fields["d2"] = chi_to_degree(chi2, r, g2)

    def gluing(self) -> GluingDatum:
        return GluingDatum(self.r, self.k, self.chi1, self.chi2)


class SubsheafInvariant(Record):
    """Shape and kernel degrees of a candidate subsheaf.

    s is the free multiplicity of the stalk at the node; s1, s2 the component
    ranks (each at least s, since the free part restricts to both sides);
    deg_g1, deg_g2 the degrees of the kernel bundles.
    """

    def __init__(self, s: int, s1: int, s2: int, deg_g1: int, deg_g2: int) -> None:
        if s < 0:
            raise ValueError(f"free multiplicity must be >= 0, got {s}")
        if s1 < s or s2 < s:
            raise ValueError(
                f"component ranks must be >= s, got s={s}, s1={s1}, s2={s2}"
            )
        fields = self.__dict__
        fields["s"] = s
        fields["s1"] = s1
        fields["s2"] = s2
        fields["deg_g1"] = deg_g1
        fields["deg_g2"] = deg_g2


def subsheaf_slope(
    f: SubsheafInvariant, h: StabilityHypotheses, w: Polarization
) -> Fraction:
    """Weighted slope of a subsheaf shape.

    chi(F) = deg(G1) + s1(1-g1) + deg(G2) + s2(1-g2) + s, divided by the
    weighted rank w1 s1 + w2 s2.
    """
    if f.s1 == 0 and f.s2 == 0:
        raise ValueError("subsheaf must have positive rank on some component")
    chi_f = (
        f.deg_g1
        + f.s1 * (1 - h.g1)
        + f.deg_g2
        + f.s2 * (1 - h.g2)
        + f.s
    )
    return Fraction(chi_f) / (w.w1 * f.s1 + w.w2 * f.s2)


def max_degree_bounds(
    shape: tuple[int, int, int],
    h: StabilityHypotheses,
    strict: bool = False,
) -> tuple[int | None, int | None]:
    """Largest kernel degrees the component hypotheses allow for a shape.

    On the first component ((0,k)-semistable): deg(G1) <= s1 (d1 - k) / r.
    On the second ((0,r)-semistable, twisted down by the node point):
    deg(G2) <= s2 (d2 - 2r) / r.  A rank-zero side carries no bound (None).
    With ``strict`` the hypotheses are stability, the bounds become strict,
    and an integer bound drops by one.
    """
    _, s1, s2 = shape
    # (n - strict) // r is the largest integer <= n/r, or < n/r when strict.
    max1 = None if s1 == 0 else (s1 * (h.d1 - h.k) - strict) // h.r
    max2 = None if s2 == 0 else (s2 * (h.d2 - 2 * h.r) - strict) // h.r
    return max1, max2


def check_sufficiency(
    h: StabilityHypotheses,
    w: Polarization,
    strict: bool = False,
) -> tuple[bool, SubsheafInvariant | None]:
    """Search for a subsheaf shape whose slope beats the ambient slope.

    Requires w to satisfy the compatibility inequalities of the gluing
    (raises :class:`NecessaryConditionError` naming the violated one
    otherwise).  Shapes (s, s1, s2) are enumerated lexicographically with
    0 <= s <= k and s <= si <= r, each filled with its extremal kernel
    degrees; the slope is monotone in the degrees, so the extremal pair
    dominates all smaller ones.  In strict mode the comparison is strict,
    restricted to proper shapes ((s1, s2) = (r, r) excluded), under the
    stability upgrade of the component hypotheses.

    Returns (holds, witness); the witness is the first violating invariant.
    """
    datum = h.gluing()
    violated = violated_conditions(datum, w)
    if violated:
        raise NecessaryConditionError(
            f"polarization violates compatibility: {violated[0]}", violated
        )
    # The glued sheaf has rank (r, r) and w1 + w2 = 1, so its slope is chi/r.
    ambient = Fraction(datum.chi, h.r)
    for s in range(0, h.k + 1):
        for s1 in range(s, h.r + 1):
            for s2 in range(s, h.r + 1):
                if s1 == 0 and s2 == 0:
                    continue
                if strict and (s1, s2) == (h.r, h.r):
                    continue
                max1, max2 = max_degree_bounds((s, s1, s2), h, strict=strict)
                # An absent side (bound None) has kernel degree 0 by convention.
                f = SubsheafInvariant(s, s1, s2, max1 or 0, max2 or 0)
                slope = subsheaf_slope(f, h, w)
                if slope > ambient or (strict and slope == ambient):
                    return False, f
    return True, None


def mk_semistable_test(
    sub: tuple[int, int],
    amb: tuple[int, int],
    m: int,
    k: int,
    strict: bool = False,
) -> bool:
    """Shifted-slope comparison mu_m(sub) <= mu_(m-k)(amb), strict on request."""
    mu_sub = mk_slope(sub[0], sub[1], m)
    mu_amb = mk_slope(amb[0], amb[1], m - k)
    return mu_sub < mu_amb if strict else mu_sub <= mu_amb


def nonstable_locus_codim_bound(r: int, g: int, s: int) -> int:
    """Lower bound s((g-1)(r-s) - r) for the codimension of the locus of
    bundles that are not (0,r)-stable, at kernel rank s.

    Positive whenever g > r + 1; it can vanish at g = r + 1.
    """
    if not 1 <= s <= r - 1:
        raise ValueError(f"kernel rank must satisfy 1 <= s <= r-1, got s={s}, r={r}")
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    return s * ((g - 1) * (r - s) - r)
