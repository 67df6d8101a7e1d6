"""Exact rational numbers and bounded intervals with open or closed endpoints.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always in
canonical form (positive denominator, gcd-reduced), with exact arithmetic
and a total order.  This module adds the string codec used throughout the
package ("p/q", or "p" for integers), the one check that refuses a float
where an exact rational is required, and :class:`RationalInterval`, the
value a feasibility report holds.

Intervals arise as solution sets of one-variable rational inequality
systems, so the empty interval is a normal value, never an error.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ._record import Record

# A "p/q" or "p" cell and its padding; gluing.parse_matrix matches rows of it.
_CELL = r"\s*[+-]?\d+(?:/\d+)?\s*"
_RATIONAL_RE = re.compile(_CELL)


def short_repr(value: object) -> str:
    """repr(value) cut after 40 characters, with the length of the whole: an
    error message that quotes an input stays short however large it is."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse "p/q" or "p" into the integer pair (p, q), q = 1 for "p".  The
    package's one "p/q" decoder.

    Surrounding whitespace is ignored.  The denominator, when present, must
    be a positive integer literal; the pair is returned as written, not
    reduced.  Decimal notation is rejected rather than rounded, and so is a
    number past the interpreter's limit on the digits ``int`` converts.
    """
    if _RATIONAL_RE.fullmatch(text) is None:
        raise ValueError(f"not a rational 'p/q' or 'p' string: {short_repr(text)}")
    num, _, den = text.strip().partition("/")
    try:
        numerator = int(num)
        if not den:
            return numerator, 1
        denominator = int(den)
    except ValueError:
        # More digits than the interpreter's limit on int() of a string.
        raise ValueError(f"too many digits in rational: {short_repr(text)}") from None
    if denominator == 0:
        raise ValueError(f"zero denominator in rational string: {short_repr(text)}")
    return numerator, denominator


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; see :func:`parse_ratio`."""
    return Fraction(*parse_ratio(text))


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1: the
    public name of a ``Fraction``'s own ``str``, the package's one encoder."""
    return str(Fraction(value))


def exact(x: object, what: str) -> Fraction | int:
    """x as an exact rational; an int or a Fraction is kept as it is.  A
    float is refused, naming ``what`` it was given as: its binary value is
    not the decimal it was written as, so it would decide a verdict by
    rounding.  The package's one exactness check."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise ValueError(f"{what} must be exact rationals, got the float {x!r}")
    return Fraction(x)


# Canonical field values of the unique empty interval.
_EMPTY = (Fraction(0), Fraction(0), True, True)


class RationalInterval(Record):
    """A bounded interval of rationals, each endpoint open or closed.

    Degenerate data (lower above upper, or a single point with an open end)
    canonicalizes to *the* empty interval, so two intervals are equal
    exactly when their fields are.
    """

    def __init__(
        self,
        lower: Fraction,
        upper: Fraction,
        lower_open: bool = False,
        upper_open: bool = False,
    ) -> None:
        lower = Fraction(exact(lower, "interval endpoints"))
        upper = Fraction(exact(upper, "interval endpoints"))
        if lower > upper or (lower == upper and (lower_open or upper_open)):
            lower, upper, lower_open, upper_open = _EMPTY
        fields = self.__dict__
        fields["lower"] = lower
        fields["upper"] = upper
        fields["lower_open"] = lower_open
        fields["upper_open"] = upper_open

    @classmethod
    def empty(cls) -> "RationalInterval":
        return cls(*_EMPTY)

    @property
    def is_empty(self) -> bool:
        return (self.lower, self.upper, self.lower_open, self.upper_open) == _EMPTY

    def __repr__(self) -> str:
        if self.is_empty:
            return "RationalInterval.empty()"
        left = "(" if self.lower_open else "["
        right = ")" if self.upper_open else "]"
        return f"RationalInterval {left}{self.lower}, {self.upper}{right}"
