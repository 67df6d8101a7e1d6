"""Gluing data for two rank-r bundles joined over the node by a fiber map.

At the invariant level a gluing is determined by the common rank r, the rank
k of the fiber map sigma, and the characteristics (chi1, chi2) of the two
bundles.  sigma itself may be supplied as an exact r x r rational matrix, in
which case k is computed from it by fraction-free elimination.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain

from ._record import Record
from .curves import SheafClass
from .rationals import _CELL, exact, parse_ratio, short_repr

# A row of cells joined by NUL, which \s does not match.
_ROW_RE = re.compile(f"{_CELL}(?:\x00{_CELL})*")

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
            sigma = tuple([
                row if type(row) is tuple and _ints(row)
                else tuple([exact(x, "matrix entries") for x in row])
                for row in sigma
            ])
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


# Bits a packed row's entries may grow by past the largest entry of the
# primitive rows, and G, the guard bits above them in each slot: a packed
# step takes m + |f| <= 2**G.
_HEADROOM = 8
_GUARD = 8


def matrix_rank(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals by fraction-free elimination on primitive rows.

    This is the one entry into the elimination: GluingDatum takes k from
    it, so a row of ints that GluingDatum keeps is type-checked here again.
    Each entry is converted once (ints and Fractions as they are, floats
    refused), and each row that is not all ints is scaled by the lcm of its
    denominators to integers.  Each row is divided by the gcd of its
    entries; nonzero scaling does not change the rank.  Columns get no such
    content pass.  The pivot is the first nonzero entry of the column among
    the rows not yet used, its row negated when that entry is negative.
    A row with factor f in the pivot column, against the pivot's lead m
    (both divided by their gcd), becomes m*tail - f*pivot_tail; when m is
    1, or the step is packed (below), that is the whole update, and
    otherwise the row is then divided by the gcd of its entries.  A row
    with a zero factor just drops that entry.  Rows that become zero are
    dropped.  This is exact: a row c*G, for G the Gaussian elimination row
    and c a nonzero scalar, becomes m*c*G', so a unit step keeps c, a
    packed step multiplies it by m, and a list step with m != 1 makes the
    row primitive again; zero patterns, pivots and rank are those of
    Gaussian elimination.  An entry is c times a Gaussian entry, a weaker
    bound than that of a row made primitive at every step, whose entries
    are never larger than Bareiss's minors.  Requires a square matrix,
    which is left unchanged.

    The elimination runs in two phases, so storage changes at most once.
    In the packed phase every row is one int, by Kronecker substitution
    (Harvey, J. Symbolic Comput. 44(10), 2009; Fisher and Dietz, "Compiling
    for SIMD within a register", LCPC 1998).  Let b be the bit length of
    the largest entry of the primitive rows plus 8, B = 2**b, and
    w = b + 1 + G with G = 8 guard bits.  A row whose entries
    e_j all lie in [-B, B) is stored as the one int
    y = sum((e_j + B) * 2**(w*j)): its base-2**w digits are the entries
    offset by B, in [0, 2B).  Its lead is (y & (2**w - 1)) - B, dropping
    that column is y >> w, and it is the zero row when y is OFF, B in every
    slot.  Every row starts packed, since its entries are below B / 2**8.
    The pivot tail p = sum(p_j * 2**(w*j)) is read off the pivot row and
    negated with its lead, so |p_j| <= B.  A step of a row with
    m + |f| <= 2**G is one big-int multiply-subtract on the stored tail t,
    u = m*t - f*p - (m - 1)*OFF, kept when u & HIGH == 0, where HIGH is
    bits b+1 .. w-1 of every slot; for m = 1 that is u = t - f*p.  A packed
    row keeps its content: the check, not a gcd, bounds its entries.

    The check is exact.  By linearity u = sum(c_j * 2**(w*j)) with
    c_j = m*t_j - f*p_j + B, and |c_j - B| <= (m + |f|)*B <= 2**G * B
    = 2**(w-1).
    If every c_j is in [0, 2B), these are the digits of u and no HIGH bit
    is set.  Otherwise let j be the lowest slot with c_j outside [0, 2B).
    The slots below it are digits, so slot j of u holds c_j mod 2**w: c_j
    itself when 2B <= c_j <= B + 2**(w-1) < 2**w, a bit b+1 .. w-1 being
    set; and c_j + 2**w >= 2**(w-1) + B when B - 2**(w-1) <= c_j < 0, bit
    w-1 being set.  So the check passes exactly when every entry of u is in
    [-B, B), and then u is the stored row.

    A packed step builds its updated rows in a new list.  When one row's
    update cannot stay packed (m + |f| > 2**G, or a failed check), that
    list is dropped: the rows as they were before the step are unpacked,
    and the list phase takes that step and every later one with the list
    updates above.  A packed step differs from its list update only in
    storage and in the gcd it skips, so pivots and rank are those of the
    list updates alone.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("matrix must be nonempty")
    rows: list = []
    for row in matrix:
        if len(row) != n:
            raise ValueError(
                f"matrix must be square, got a row of length {len(row)} with {n} rows"
            )
        if not _ints(row):
            row = [exact(x, "matrix entries") for x in row]
            scale = math.lcm(*(e.denominator for e in row))
            row = [e.numerator * (scale // e.denominator) for e in row]
        if any(row):
            rows.append(_primitive(row))
    cols = n

    bits = max(map(abs, chain.from_iterable(rows)), default=0).bit_length() + _HEADROOM
    w = bits + 1 + _GUARD
    bound = 1 << bits
    mask = (1 << w) - 1
    wide = 1 << _GUARD
    ones = ((1 << w * n) - 1) // mask
    off, high = bound * ones, (mask + 1 - 2 * bound) * ones
    # Every entry is below B / 2**8, so every row fits.
    rows[:] = [_pack(row, w) + off for row in rows]

    rank = 0
    while rows:
        cols -= 1
        off >>= w  # OFF at the width of the rows' tails
        pivot = next((i for i, row in enumerate(rows) if row & mask != bound), None)
        if pivot is None:
            rows[:] = [row >> w for row in rows]
            continue
        pivot_row = rows.pop(pivot)
        lead = (pivot_row & mask) - bound
        pivot_tail = (pivot_row >> w) - off
        if lead < 0:
            lead, pivot_tail = -lead, -pivot_tail
        # A new list, so the rows before this step are kept for a handoff.
        updated = []
        for row in rows:
            factor = (row & mask) - bound
            if not factor:
                updated.append(row >> w)
                continue
            g = math.gcd(lead, factor)
            m, f = lead // g, factor // g
            u = m * (row >> w) - f * pivot_tail - (m - 1) * off
            if m + abs(f) > wide or u & high:
                # The one change of storage: the rows as they were before
                # this step, unpacked at its width, take the list updates.
                rows.insert(pivot, pivot_row)
                span = w * (cols + 1)
                rows[:] = [[(y >> s & mask) - bound for s in range(0, span, w)] for y in rows]
                return rank + _list_rank(rows)
            if u != off:  # OFF is the zero row; the int 0 is a row of -B
                updated.append(u)
        rows[:] = updated
        rank += 1
    return rank


def _list_rank(rows: list[list[int]]) -> int:
    """The rank of nonzero int list rows of one length by matrix_rank's list
    updates, eliminated in place."""
    rank = 0
    while rows:
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            rows[:] = [row[1:] for row in rows]
            continue
        pivot_row = rows.pop(pivot)
        lead, pivot_tail = pivot_row[0], pivot_row[1:]
        if lead < 0:
            lead, pivot_tail = -lead, [-b for b in pivot_tail]
        # In place, so each old row is freed as soon as its update is built.
        for i, row in enumerate(rows):
            factor = row[0]
            if not factor:
                rows[i] = row[1:]
                continue
            g = math.gcd(lead, factor)
            m, f = lead // g, factor // g
            if m == 1:  # a unit step keeps the row's scalar: no content gcd
                rows[i] = [a - f * b for a, b in zip(row[1:], pivot_tail)]
            else:
                rows[i] = _primitive([m * a - f * b for a, b in zip(row[1:], pivot_tail)])
        rows[:] = filter(any, rows)
        rank += 1
    return rank


def _pack(row: list[int], w: int) -> int:
    """The row as sum(row[j] * 2**(w*j))."""
    x = 0
    for e in reversed(row):
        x = (x << w) + e
    return x


def _ints(row: Sequence) -> bool:
    """Whether every entry of the nonempty row is exactly an int."""
    return {*map(type, row)} == {int}


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries; an all-zero row as it is."""
    g = math.gcd(*row)
    return row if g <= 1 else [a // g for a in row]


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

    No Fraction is built per cell.  A row of strings is decoded whole: one
    match of the cell pattern over the row joined by NULs (a NUL in a cell
    makes one separator too many), then ``str.partition`` and ``int`` per
    cell.  A row that does not decode so is decoded again cell by cell by
    ``parse_ratio``, which names its first bad cell; that loop also takes a
    library caller's int cells.
    """
    if not isinstance(data, list) or not data:
        raise ValueError("matrix JSON must be a nonempty array of rows")
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise ValueError("matrix JSON rows must be arrays")
        try:
            text = "\x00".join(row)
        except TypeError:  # a cell that is not a string
            text = ""
        nums = None
        if text.count("\x00") == len(row) - 1 and _ROW_RE.fullmatch(text):
            parts = [cell.partition("/") for cell in row]
            try:
                nums = [int(num) for num, _, _ in parts]
                dens = [int(den) if den else 1 for _, _, den in parts]
            except ValueError:  # past the digit limit, or \x1c-\x1f around a cell
                nums = None
        if nums is None or 0 in dens:
            nums, dens = [], []
            for cell in row:
                if isinstance(cell, str):
                    num, den = parse_ratio(cell)
                elif isinstance(cell, int) and not isinstance(cell, bool):
                    num, den = cell, 1
                else:
                    raise ValueError(
                        f"matrix entries must be 'p/q' strings, got {short_repr(cell)}"
                    )
                nums.append(num)
                dens.append(den)
        scale = math.lcm(*dens)
        rows.append(tuple([num * (scale // den) for num, den in zip(nums, dens)]))
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return tuple(rows)
