"""Exact rational numbers and intervals with open or closed endpoints.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always in
canonical form (positive denominator, gcd-reduced), with exact arithmetic
and a total order.  This module adds the string codec used throughout the
package ("p/q", or "p" for integers) and :class:`RationalInterval`, whose
endpoints may be open, closed, or infinite.

Intervals arise as solution sets of one-variable rational inequality
systems, so the empty interval is a normal value, never an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse "p/q" or "p" into the integer pair (p, q), q = 1 for "p".  The
    package's one "p/q" decoder.

    Surrounding whitespace is ignored.  The denominator, when present, must
    be a positive integer literal; the pair is returned as written, not
    reduced.  Decimal notation is rejected rather than rounded.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational 'p/q' or 'p' string: {text!r}")
    numerator = int(m.group(1))
    if m.group(2) is None:
        return numerator, 1
    denominator = int(m.group(2))
    if denominator == 0:
        raise ValueError(f"zero denominator in rational string: {text!r}")
    return numerator, denominator


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; see :func:`parse_ratio`."""
    return Fraction(*parse_ratio(text))


def format_ratio(num: int, den: int) -> str:
    """Render num/den (den > 0) in lowest terms as "p/q", or "p" when it is
    an integer.  The package's one "p/q" encoder."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1."""
    q = Fraction(value)
    return format_ratio(q.numerator, q.denominator)


# Canonical field values of the unique empty interval.
_EMPTY = (Fraction(0), Fraction(0), True, True)


@dataclass(frozen=True)
class RationalInterval:
    """An interval of rationals; each endpoint open or closed, possibly infinite.

    ``lower is None`` means unbounded below and ``upper is None`` unbounded
    above; infinite endpoints are forced open.  Degenerate data (lower above
    upper, or a single point with an open end) canonicalizes to *the* empty
    interval, so dataclass equality is interval equality.
    """

    lower: Fraction | None = None
    upper: Fraction | None = None
    lower_open: bool = False
    upper_open: bool = False

    def __post_init__(self) -> None:
        lo = None if self.lower is None else Fraction(self.lower)
        up = None if self.upper is None else Fraction(self.upper)
        lo_open = self.lower_open or lo is None
        up_open = self.upper_open or up is None
        if lo is not None and up is not None and (
            lo > up or (lo == up and (lo_open or up_open))
        ):
            lo, up, lo_open, up_open = _EMPTY
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower_open", lo_open)
        object.__setattr__(self, "upper_open", up_open)

    @classmethod
    def empty(cls) -> "RationalInterval":
        return cls(*_EMPTY)

    @classmethod
    def closed(cls, lower, upper) -> "RationalInterval":
        return cls(Fraction(lower), Fraction(upper), False, False)

    @classmethod
    def open(cls, lower, upper) -> "RationalInterval":
        return cls(Fraction(lower), Fraction(upper), True, True)

    @property
    def is_empty(self) -> bool:
        return (
            self.lower is not None
            and self.upper is not None
            and (self.lower, self.upper, self.lower_open, self.upper_open) == _EMPTY
        )

    def contains(self, value) -> bool:
        """Membership test honoring endpoint openness."""
        if self.is_empty:
            return False
        q = Fraction(value)
        if self.lower is not None:
            if q < self.lower or (q == self.lower and self.lower_open):
                return False
        if self.upper is not None:
            if q > self.upper or (q == self.upper and self.upper_open):
                return False
        return True

    def intersect(self, other: "RationalInterval") -> "RationalInterval":
        """Exact intersection; a tied endpoint keeps the stricter (open) side."""
        if self.is_empty or other.is_empty:
            return RationalInterval.empty()
        lo, lo_open = _tighter(
            self.lower, self.lower_open, other.lower, other.lower_open, prefer_max=True
        )
        up, up_open = _tighter(
            self.upper, self.upper_open, other.upper, other.upper_open, prefer_max=False
        )
        return RationalInterval(lo, up, lo_open, up_open)

    def sample(self) -> Fraction | None:
        """A rational inside the interval, or None when empty.

        Finite intervals yield their midpoint (the single closed point in the
        degenerate case); half-infinite ones step one unit inward.
        """
        if self.is_empty:
            return None
        if self.lower is None and self.upper is None:
            return Fraction(0)
        if self.lower is None:
            return self.upper - 1
        if self.upper is None:
            return self.lower + 1
        if self.lower == self.upper:
            return self.lower
        return (self.lower + self.upper) / 2

    def to_json(self) -> dict:
        return {
            "lower": None if self.lower is None else format_rational(self.lower),
            "upper": None if self.upper is None else format_rational(self.upper),
            "lower_open": self.lower_open,
            "upper_open": self.upper_open,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RationalInterval":
        lower = None if data["lower"] is None else parse_rational(data["lower"])
        upper = None if data["upper"] is None else parse_rational(data["upper"])
        return cls(lower, upper, bool(data["lower_open"]), bool(data["upper_open"]))

    def __repr__(self) -> str:
        if self.is_empty:
            return "RationalInterval.empty()"
        lo = "-inf" if self.lower is None else format_rational(self.lower)
        up = "+inf" if self.upper is None else format_rational(self.upper)
        left = "(" if self.lower_open else "["
        right = ")" if self.upper_open else "]"
        return f"RationalInterval {left}{lo}, {up}{right}"


def _tighter(a, a_open, b, b_open, *, prefer_max):
    """Pick the tighter of two like-side endpoints (None is infinite)."""
    if a is None:
        return b, b_open
    if b is None:
        return a, a_open
    if a == b:
        return a, a_open or b_open
    take_a = a > b if prefer_max else a < b
    return (a, a_open) if take_a else (b, b_open)
