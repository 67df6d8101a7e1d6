"""Gluing data for two rank-r bundles joined over the node by a fiber map.

At the invariant level a gluing is determined by the common rank r, the rank
k of the fiber map sigma, and the characteristics (chi1, chi2) of the two
bundles.  sigma itself may be supplied as an exact r x r rational matrix, in
which case k is computed from it by fraction-free elimination.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .curves import SheafClass
from .rationals import exact, parse_ratio

Matrix = tuple[tuple[Fraction | int, ...], ...]


class StalkType(Record):
    """Multiplicities (a, b, c) of the free part and the two torsion parts
    of the stalk at the node."""

    def __init__(self, a: int, b: int, c: int) -> None:
        fields = self.__dict__
        fields["a"] = a
        fields["b"] = b
        fields["c"] = c

    def to_json(self) -> list[int]:
        return [self.a, self.b, self.c]


class GluingDatum(Record):
    """A gluing of rank r with fiber map of rank k and characteristics chi_i.

    ``k=None`` with an explicit sigma derives k from the matrix; giving both
    requires them to agree.  The fiber map must be nonzero (k >= 1).
    """

    def __init__(
        self,
        r: int,
        k: int | None,
        chi1: int,
        chi2: int,
        sigma: Matrix | None = None,
    ) -> None:
        validate_ranks(r)
        if sigma is not None:
            # Rows that are already tuples of ints (parse_matrix's) are kept.
            sigma = tuple(
                row
                if type(row) is tuple and all(type(x) is int for x in row)
                else tuple(exact(x, "matrix entries") for x in row)
                for row in sigma
            )
            if len(sigma) != r or any(len(row) != r for row in sigma):
                raise ValueError(f"sigma must be a {r}x{r} matrix")
            rank = matrix_rank(sigma)
            if k is None:
                k = rank
            elif k != rank:
                raise ValueError(f"declared k={k} but sigma has rank {rank}")
        if k is None:
            raise ValueError("either k or an explicit sigma matrix is required")
        validate_ranks(r, k)
        fields = self.__dict__
        fields["r"] = r
        fields["k"] = k
        fields["chi1"] = chi1
        fields["chi2"] = chi2
        fields["sigma"] = sigma

    @property
    def chi(self) -> int:
        return self.chi1 + self.chi2 - self.r


def validate_ranks(r: int, k: int | None = None) -> None:
    """Reject a gluing rank r below 2 and, when k is given, a fiber-map rank
    outside 1..r.  The one place these conditions are checked."""
    if r < 2:
        raise ValueError(f"gluing rank must be >= 2, got {r}")
    if k is not None and not 1 <= k <= r:
        raise ValueError(f"fiber-map rank must satisfy 1 <= k <= r, got k={k}, r={r}")


def matrix_rank(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Each entry is converted once (ints and Fractions as they are, floats
    refused), and each row that is not all ints is scaled by the lcm of its
    denominators to integers.  Each column and then each row is divided by
    the gcd of its entries; nonzero scaling does not change the rank, and
    it keeps the integers that elimination multiplies small.  The pivot is the first
    nonzero entry of the column among the rows not yet used; rows that
    become zero are dropped, and every later division is exact.  A row with
    a zero in the pivot column only has its tail rescaled, by lead/prev.
    Requires a square matrix, which is left unchanged.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("matrix must be nonempty")
    rows: list[Sequence[int]] = []
    for row in matrix:
        if len(row) != n:
            raise ValueError(
                f"matrix must be square, got a row of length {len(row)} with {n} rows"
            )
        if all(type(x) is int for x in row):
            rows.append(row)
            continue
        entries = [exact(x, "matrix entries") for x in row]
        scale = math.lcm(*(e.denominator for e in entries))
        rows.append([e.numerator * (scale // e.denominator) for e in entries])

    contents = [math.gcd(*column) or 1 for column in zip(*rows)]
    rows = [[a // g for a, g in zip(row, contents)] for row in rows]
    rows = [_primitive(row) for row in rows if any(row)]

    rank = 0
    prev = 1
    while rows:
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        pivot_row = rows.pop(pivot)
        lead = pivot_row[0]
        pivot_tail = pivot_row[1:]
        # In place, so each old row is freed as soon as its update is built.
        for i, row in enumerate(rows):
            factor = row[0]
            if factor:
                rows[i] = [
                    (a * lead - factor * b) // prev for a, b in zip(row[1:], pivot_tail)
                ]
            elif lead != prev:
                rows[i] = [a * lead // prev for a in row[1:]]
            else:
                rows[i] = row[1:]
        rows = list(filter(any, rows))
        prev = lead
        rank += 1
    return rank


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return row if g == 1 else [a // g for a in row]


def glued_class(u: GluingDatum) -> tuple[SheafClass, StalkType, bool]:
    """Invariants of the glued sheaf: class, stalk type at the node, bundle flag.

    The characteristic adds with a rank correction (chi1 + chi2 - r); the
    stalk at the node has free multiplicity k and torsion multiplicity r - k
    on each branch.  The sheaf is locally free exactly when sigma is
    invertible, that is when k = r.
    """
    cls = SheafClass(r1=u.r, r2=u.r, chi=u.chi, chi1=u.chi1, chi2=u.chi2)
    stalk = StalkType(a=u.k, b=u.r - u.k, c=u.r - u.k)
    return cls, stalk, u.k == u.r


def canonical_subsheaves(u: GluingDatum) -> tuple[SheafClass, SheafClass]:
    """The two kernel subsheaves supported on a single component.

    K1 lives on the first component with chi(K1) = chi1 - k (the fiber map
    kills a k-dimensional quotient of the fiber); K2 lives on the second with
    chi(K2) = chi2 - r (the whole fiber is killed).
    """
    k1 = SheafClass(r1=u.r, r2=0, chi=u.chi1 - u.k)
    k2 = SheafClass(r1=0, r2=u.r, chi=u.chi2 - u.r)
    return k1, k2


def parse_matrix(data: object) -> tuple[tuple[int, ...], ...]:
    """Decode a matrix from parsed JSON: a list of rows whose entries are
    "p/q" strings (or plain integers).

    Row i is returned as integers: the file's row i times the lcm of the
    denominators written in it.  Scaling a row by a nonzero number keeps the
    rank and the row space, and the rank is all that is read from sigma.
    """
    if not isinstance(data, list) or not data:
        raise ValueError("matrix JSON must be a nonempty array of rows")
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise ValueError("matrix JSON rows must be arrays")
        nums, dens = [], []
        for cell in row:
            if isinstance(cell, str):
                num, den = parse_ratio(cell)
            elif isinstance(cell, int) and not isinstance(cell, bool):
                num, den = cell, 1
            else:
                raise ValueError(f"matrix entries must be 'p/q' strings, got {cell!r}")
            nums.append(num)
            dens.append(den)
        scale = math.lcm(*dens)
        rows.append(tuple([num * (scale // den) for num, den in zip(nums, dens)]))
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return tuple(rows)
