"""Brute-force oracles shared by the unit and acceptance suites.

These deliberately avoid the library's feasibility code: feasibility is
decided by scanning a rational weight grid and testing the four
compatibility inequalities directly in integer arithmetic, and the exact
w1-interval is recomputed in ``Fraction`` arithmetic by sorting and
intersecting, independently of the integer kernel ``w1_bounds``.  The
interval algebra that reference needs (``closed``, ``intersect``,
``contains``, ``sample``) lives here, as free functions over the library's
finite ``RationalInterval`` values.  The compatibility window
chi*w1 <= chi1 <= chi*w1 + k, which the library computes in integers in
``feasibility.chi1_window``, is restated here in ``Fraction`` arithmetic.
The skip mark ``needs_default_digit_limit`` and its condition
``DEFAULT_DIGIT_LIMIT`` are shared here as well, and so is
``cellwise_parse_matrix``, the cell-by-cell matrix decode that
``gluing.parse_matrix``'s whole-row decode is checked against.
"""

import math
import re
import sys
from fractions import Fraction

import pytest

from nodalmoduli.rationals import RationalInterval, short_repr

# The digit-limit cases pin what the interpreter's default limit of 4,300
# digits on int() of a string refuses.  Python 3.10.0-3.10.6 have no limit,
# and PYTHONINTMAXSTRDIGITS or -X int_max_str_digits can change it.
DEFAULT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() == 4300
needs_default_digit_limit = pytest.mark.skipif(
    not DEFAULT_DIGIT_LIMIT,
    reason="needs the interpreter's default limit of 4,300 digits on int()",
)


def closed(lower, upper) -> RationalInterval:
    return RationalInterval(Fraction(lower), Fraction(upper), False, False)


OPEN_UNIT = RationalInterval(Fraction(0), Fraction(1), True, True)


def contains(interval: RationalInterval, value) -> bool:
    """Membership test honoring endpoint openness."""
    if interval.is_empty:
        return False
    q = Fraction(value)
    if q < interval.lower or (q == interval.lower and interval.lower_open):
        return False
    if q > interval.upper or (q == interval.upper and interval.upper_open):
        return False
    return True


def intersect(a: RationalInterval, b: RationalInterval) -> RationalInterval:
    """Exact intersection; a tied endpoint keeps the stricter (open) side."""
    if a.is_empty or b.is_empty:
        return RationalInterval.empty()
    lo, lo_open = _tighter(a.lower, a.lower_open, b.lower, b.lower_open, max)
    up, up_open = _tighter(a.upper, a.upper_open, b.upper, b.upper_open, min)
    return RationalInterval(lo, up, lo_open, up_open)


def _tighter(x, x_open, y, y_open, pick):
    """The tighter of two like-side endpoints: ``pick`` (max for lower
    endpoints, min for upper ones) of the values, open on a tie if either is."""
    if x == y:
        return x, x_open or y_open
    return (x, x_open) if pick(x, y) == x else (y, y_open)


def sample(interval: RationalInterval) -> Fraction | None:
    """A rational inside the interval, or None when empty: the midpoint, or
    the single closed point in the degenerate case."""
    if interval.is_empty:
        return None
    if interval.lower == interval.upper:
        return interval.lower
    return (interval.lower + interval.upper) / 2


def fraction_interval(r: int, k: int, chi1: int, chi2: int) -> RationalInterval:
    """Reference w1-interval of compatible polarizations.

    The closed solution of the inequality system has endpoints
    (chi1 - k)/chi and chi1/chi, sorted by value since dividing by chi < 0
    flips them; it is intersected with the open unit interval by
    :func:`intersect`.  At chi = 0 every weight works when 0 <= chi1 <= k
    and none otherwise.
    """
    chi = chi1 + chi2 - r
    if chi == 0:
        return OPEN_UNIT if 0 <= chi1 <= k else RationalInterval.empty()
    endpoints = sorted((Fraction(chi1 - k, chi), Fraction(chi1, chi)))
    return intersect(closed(*endpoints), OPEN_UNIT)


def fraction_violated_conditions(u, w) -> list[str]:
    """Reference for ``feasibility.violated_conditions``: chi*w1 is formed
    as a ``Fraction`` and compared with chi1 on both sides of the window."""
    lhs = u.chi * w.w1
    if lhs > u.chi1:
        return ["chi*w1 <= chi1", "chi2 <= chi*w2 + r"]
    if u.chi1 > lhs + u.k:
        return ["chi1 <= chi*w1 + k", "chi*w2 + r - k <= chi2"]
    return []


def fraction_component_chi1s(chi: int, w1: Fraction, r: int) -> list[int]:
    """Reference for the chi1 column of ``moduli.component_rows``: the
    integers from ceil(chi*w1) to floor(chi*w1 + r), rounded by ``math``
    from the ``Fraction`` chi*w1."""
    low1 = chi * w1
    return list(range(math.ceil(low1), math.floor(low1 + r) + 1))


def grid_feasible(r: int, k: int, chi1: int, chi2: int) -> bool:
    """Search w1 = p/q, 1 <= p < q <= max(3, 2(|chi|+1)), for a weight
    satisfying the four inequalities (cross-multiplied by q).

    The grid is complete: every endpoint of the solution interval has
    denominator dividing |chi|, so a nonempty intersection with (0,1)
    contains a fraction with denominator at most 2(|chi|+1).
    """
    chi = chi1 + chi2 - r
    q_max = max(3, 2 * (abs(chi) + 1))
    for q in range(2, q_max + 1):
        for p in range(1, q):
            if (
                chi * p <= chi1 * q
                and chi1 * q <= chi * p + k * q
                and chi * (q - p) + (r - k) * q <= chi2 * q
                and chi2 * q <= chi * (q - p) + r * q
            ):
                return True
    return False


def region_characterization(r: int, k: int, chi1: int, chi2: int) -> bool:
    """Membership test for chi != 0 phrased directly from the two sign cases:
    chi > 0 needs chi1 > 0 and chi2 > r - k; chi < 0 needs chi1 < k and
    chi2 < r.  Callers must not use it at chi = 0."""
    chi = chi1 + chi2 - r
    if chi > 0:
        return chi1 > 0 and chi2 > r - k
    if chi < 0:
        return chi1 < k and chi2 < r
    raise ValueError("characterization applies only to chi != 0")


def windowed_sufficiency(h, w1, window: int, strict: bool = False):
    """Slow reference for the extremal-degree sufficiency sweep.

    Re-derives everything from the plain fields (r, k, chi1, chi2, g1, g2)
    of ``h`` in integer arithmetic, with w1 = p/q: every shape (s, s1, s2)
    of the sweep, and every kernel degree pair from the hypothesis bound
    down to ``window`` below it, is tested against the ambient slope
    chi / r by cross-multiplication.  Degrees run downward, so a shape's
    witness is its extremal pair unless a lower pair beats the ambient slope
    while the extremal one does not.  No compatibility gate is applied.

    Returns (holds, witness) with witness the first violating
    (s, s1, s2, deg1, deg2) in sweep order, or None.
    """
    r, k = h.r, h.k
    p, q = w1.numerator, w1.denominator
    chi = h.chi1 + h.chi2 - r
    d1 = h.chi1 - r * (1 - h.g1)
    d2 = h.chi2 - r * (1 - h.g2)
    cut = 1 if strict else 0  # a strict bound n/r admits at most (n - 1) // r

    def degrees(rank: int, numerator: int) -> range:
        if rank == 0:
            return range(0, 1)
        top = (rank * numerator - cut) // r
        return range(top, top - window - 1, -1)

    for s in range(0, k + 1):
        for s1 in range(s, r + 1):
            for s2 in range(s, r + 1):
                if s1 + s2 == 0 or (strict and s1 == s2 == r):
                    continue
                weighted = p * s1 + (q - p) * s2  # q times the weighted rank
                for deg1 in degrees(s1, d1 - k):
                    for deg2 in degrees(s2, d2 - 2 * r):
                        chi_f = deg1 + s1 * (1 - h.g1) + deg2 + s2 * (1 - h.g2) + s
                        # subsheaf slope q chi_f / weighted vs ambient chi / r
                        lhs, rhs = q * chi_f * r, chi * weighted
                        if lhs > rhs or (strict and lhs == rhs):
                            return False, (s, s1, s2, deg1, deg2)
    return True, None


def fraction_degree_bounds(shape, h, strict: bool = False):
    """Reference for ``stability.max_degree_bounds`` in ``Fraction``
    arithmetic: each bound s1 (d1 - k) / r and s2 (d2 - 2r) / r is reduced to
    lowest terms and floored, after one is taken from its numerator when
    strict; a rank-zero side has no bound (None)."""
    _, s1, s2 = shape

    def floor_bound(q: Fraction) -> int:
        return (q.numerator - (1 if strict else 0)) // q.denominator

    max1 = None if s1 == 0 else floor_bound(Fraction(s1 * (h.d1 - h.k), h.r))
    max2 = None if s2 == 0 else floor_bound(Fraction(s2 * (h.d2 - 2 * h.r), h.r))
    return max1, max2


# The "p/q" or "p" pattern, matched against the stripped cell.
_RATIO_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def cellwise_ratio(text: str) -> tuple[int, int]:
    """One "p/q" or "p" cell as the integer pair (p, q), decoded through a
    regex's groups; the errors name the cell as ``rationals.parse_ratio``'s
    do."""
    m = _RATIO_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational 'p/q' or 'p' string: {short_repr(text)}")
    try:
        numerator = int(m.group(1))
        denominator = 1 if m.group(2) is None else int(m.group(2))
    except ValueError:
        raise ValueError(f"too many digits in rational: {short_repr(text)}") from None
    if denominator == 0:
        raise ValueError(f"zero denominator in rational string: {short_repr(text)}")
    return numerator, denominator


def cellwise_parse_matrix(data) -> tuple[tuple[int, ...], ...]:
    """Reference for ``gluing.parse_matrix``: each cell decoded on its own,
    a string through ``cellwise_ratio`` and a non-bool int as it is, and each
    row scaled by the lcm of its denominators; the first bad cell in row
    order names the error."""
    if not isinstance(data, list) or not data:
        raise ValueError("matrix JSON must be a nonempty array of rows")
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise ValueError("matrix JSON rows must be arrays")
        nums, dens = [], []
        for cell in row:
            if isinstance(cell, str):
                num, den = cellwise_ratio(cell)
            elif isinstance(cell, int) and not isinstance(cell, bool):
                num, den = cell, 1
            else:
                raise ValueError(
                    f"matrix entries must be 'p/q' strings, got {short_repr(cell)}"
                )
            nums.append(num)
            dens.append(den)
        scale = math.lcm(*dens)
        rows.append(tuple(num * (scale // den) for num, den in zip(nums, dens)))
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return tuple(rows)
