import copy
import itertools
import math
import random
import tracemalloc
import types
from decimal import Decimal
from fractions import Fraction

import pytest

from hypothesis import given, strategies as st

from nodalmoduli import gluing
from nodalmoduli.gluing import (
    GluingDatum,
    StalkType,
    canonical_subsheaves,
    glued_class,
    matrix_rank,
    parse_matrix,
)
from oracles import cellwise_parse_matrix, needs_default_digit_limit


def _det(matrix) -> Fraction:
    """Laplace-expansion determinant; the independent oracle's primitive."""
    n = len(matrix)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = Fraction(matrix[0][j]) * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _rank_by_minors(matrix) -> int:
    """Largest size of a square minor with nonzero determinant."""
    n = len(matrix)
    for size in range(n, 0, -1):
        for rows in itertools.combinations(range(n), size):
            for cols in itertools.combinations(range(n), size):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                if _det(sub) != 0:
                    return size
    return 0


def _random_matrix(rng: random.Random, n: int):
    """Random rational matrix; half the time built with a forced rank deficit."""
    def cell():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    if rng.random() < 0.5:
        t = rng.randint(1, n)
        a = [[cell() for _ in range(t)] for _ in range(n)]
        b = [[cell() for _ in range(n)] for _ in range(t)]
        return [
            [sum(a[i][l] * b[l][j] for l in range(t)) for j in range(n)]
            for i in range(n)
        ]
    return [[cell() for _ in range(n)] for _ in range(n)]


def _dense_rationals(rng: random.Random, n: int, digits: tuple[int, int]):
    """n x n random p/q, with |p| and q each at most 10**d for a d drawn
    from the closed range digits."""
    def below() -> int:
        return 10 ** rng.randint(*digits)

    return [
        [Fraction(rng.randint(-below(), below()), rng.randint(1, below())) for _ in range(n)]
        for _ in range(n)
    ]


def _content_heavy_cases(rng: random.Random, n: int):
    """Dense rationals with 2- to 20-digit numerators and denominators, a
    small-entry matrix whose rows carry one of two factors of about 10**30,
    and the product of the two through an inner dimension t <= n,
    rank-deficient when t < n."""
    dense = _dense_rationals(rng, n, (2, 20))
    shared = (rng.randint(10**29, 10**31), rng.randint(10**29, 10**31))
    rows = [
        [f * rng.randint(-5, 5) for _ in range(n)]
        for f in (rng.choice(shared) for _ in range(n))
    ]
    yield dense
    yield rows
    t = rng.randint(1, n)
    yield [
        [sum(dense[i][l] * rows[l][j] for l in range(t)) for j in range(n)]
        for i in range(n)
    ]


def _rank_t_core(
    rng: random.Random, m: int, t: int, ds: tuple[int, ...] = (-3, -2, -1, 1, 2, 3)
) -> list[list[int]]:
    """L diag(d) U with L unit lower and U unit upper triangular (so both
    unimodular) and d drawn from ds on the first t places, zero after: rank
    exactly t.  Its leading (m-1) x (m-1) minor is the product d[0] ...
    d[m-2], and d[l] is the l-th pivot of Gaussian elimination."""
    d = [rng.choice(ds) if l < t else 0 for l in range(m)]
    low = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(m)] for i in range(m)]
    up = [[rng.randint(-2, 2) if j > i else int(i == j) for j in range(m)] for i in range(m)]
    return [
        [sum(low[i][l] * d[l] * up[l][j] for l in range(min(i, j) + 1)) for j in range(m)]
        for i in range(m)
    ]


def _scaled_matrix(rng: random.Random, n: int, core: list[list[int]]):
    """Place the m x m core at random rows and columns of an n x n zero
    matrix, then scale every row and column by a nonzero rational; some rows
    also by a shared integer factor.  None of this changes the rank.  Entries
    with denominator 1 are plain ints.  Returns the matrix and the places of
    the core's rows and columns."""
    m = len(core)
    row_at = sorted(rng.sample(range(n), m))
    col_at = sorted(rng.sample(range(n), m))

    def scale() -> Fraction:
        factor = rng.choice((1, 1, 1, 6, 30, 2**40))
        return factor * Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    rows = [scale() for _ in range(n)]
    cols = [scale() for _ in range(n)]
    matrix = [[0] * n for _ in range(n)]
    for ci, i in enumerate(row_at):
        for cj, j in enumerate(col_at):
            x = rows[i] * core[ci][cj] * cols[j]
            matrix[i][j] = x.numerator if x.denominator == 1 else x
    return matrix, row_at, col_at


def _known_rank_cases(rng: random.Random, n: int):
    """(matrix, rank) pairs of rank n, n - 1 and small, with and without
    zero rows and columns."""
    small = min(n, rng.randint(1, 3))
    for rank, m in ((n, n), (n - 1, n), (n - 1, n - 1), (small, n), (small, max(small, n - 2))):
        matrix, _, _ = _scaled_matrix(rng, n, _rank_t_core(rng, m, rank))
        yield matrix, rank


def _zero_factor_cases(rng: random.Random, n: int):
    """(matrix, rank) pairs whose elimination meets many rows with a zero in
    the pivot column: a block-diagonal matrix of rank-t cores, the same with
    its rows shuffled and with its rows and columns scaled, U diag(d) with U
    unit upper triangular, and a core behind leading zero columns."""
    block = [[0] * n for _ in range(n)]
    rank = at = 0
    while at < n:
        m = rng.randint(1, min(n - at, 4))
        t = rng.randint(0, m)
        for i, row in enumerate(_rank_t_core(rng, m, t)):
            block[at + i][at : at + m] = row
        rank += t
        at += m
    yield block, rank
    yield rng.sample(block, n), rank
    yield _scaled_matrix(rng, n, block)[0], rank
    d = [rng.choice((-2, -1, 1, 1, 1, 2)) if rng.random() < 0.8 else 0 for _ in range(n)]
    upper = [[d[j] * (rng.randint(-2, 2) if j > i else int(i == j)) for j in range(n)]
             for i in range(n)]
    yield upper, sum(map(bool, d))
    if n > 1:
        c = rng.randint(1, n - 1)
        t = rng.randint(0, n - c)
        shifted = [[0] * c + row for row in _rank_t_core(rng, n - c, t)]
        yield rng.sample(shifted + [[0] * n] * c, n), t


def _as_cells(rng: random.Random, matrix):
    """The matrix as JSON cells, and the denominator written in each cell.
    Integer entries are sometimes plain JSON ints; the rest are "p/q" or "p"
    strings, sometimes unreduced, with a "+" sign or padded by spaces."""
    cells, dens = [], []
    for row in matrix:
        cell_row, den_row = [], []
        for x in row:
            x = Fraction(x)
            if x.denominator == 1 and rng.random() < 0.3:
                cell_row.append(x.numerator)
                den_row.append(1)
                continue
            m = rng.choice((1, 1, 2, 3, 10))
            p, q = x.numerator * m, x.denominator * m
            text = f"{p}" if q == 1 else f"{p}/{q}"
            if p >= 0 and rng.random() < 0.2:
                text = "+" + text
            if rng.random() < 0.2:
                text = f" {text}  "
            cell_row.append(text)
            den_row.append(q)
        cells.append(cell_row)
        dens.append(den_row)
    return cells, dens


def _gaussian_leads(matrix) -> list[Fraction]:
    """The pivot of each step of Gaussian elimination in Fraction arithmetic
    without row exchanges, up to the first zero pivot."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    leads = []
    while rows and rows[0][0]:
        pivot = rows.pop(0)
        leads.append(pivot[0])
        rows = [[a - row[0] / pivot[0] * b for a, b in zip(row[1:], pivot[1:])] for row in rows]
    return leads


def _sympy_rank(sympy, matrix) -> int:
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix]
    ).rank()


class TestMatrixRank:
    def test_identity(self):
        assert matrix_rank([[1, 0], [0, 1]]) == 2

    def test_one_pivot(self):
        assert matrix_rank([[1, 0], [0, 0]]) == 1

    def test_dependent_row(self):
        m = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]  # row3 = row1 + row2
        assert matrix_rank(m) == 2
        assert _rank_by_minors(m) == 2

    def test_rational_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
        assert matrix_rank(m) == _rank_by_minors(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            matrix_rank([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            matrix_rank([])

    def test_against_minor_oracle(self):
        rng = random.Random(31337)
        for _ in range(250):
            n = rng.randint(1, 4)
            m = _random_matrix(rng, n)
            assert matrix_rank(m) == _rank_by_minors(m)

    def test_against_sympy(self):
        # sympy, from the test extra, is an oracle that reaches sizes the
        # minor expansion cannot.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4242)
        for _ in range(150):
            n = rng.randint(1, 9)
            m = _random_matrix(rng, n)
            assert matrix_rank(m) == _sympy_rank(sympy, m), m
        for n in range(1, 13):
            for m, _ in _known_rank_cases(rng, n):
                assert matrix_rank(m) == _sympy_rank(sympy, m), m
        for _ in range(3):
            for n in range(1, 11):
                for m in _content_heavy_cases(rng, n):
                    assert matrix_rank(m) == _sympy_rank(sympy, m), m

    # Peak traced allocation of matrix_rank on CPython 3.11: 17 to 21 KB on
    # two 16 x 16 known-rank matrices, 118 KB on a dense 32 x 32 matrix of
    # 3-digit p/q (rank 32: its determinant is nonzero mod 2**61 - 1).
    # Updates that skip the content reduction stay exact, but their entries
    # grow: with no gcd at all the first two peak at 250 to 400 KB, and with
    # no row division the third at 400 KB.
    KNOWN_RANK_CASES = list(_known_rank_cases(random.Random(31), 16))[:2]
    DENSE_CASE = _dense_rationals(random.Random(32), 32, (3, 3))
    KNOWN_RANK_BOUND = 64 * 1024
    DENSE_BOUND = 192 * 1024

    @staticmethod
    def _rank_and_peak(matrix) -> tuple[int, int]:
        tracemalloc.start()
        try:
            return matrix_rank(matrix), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_content_reduction_keeps_entries_small(self):
        for m, rank in self.KNOWN_RANK_CASES:
            got, peak = self._rank_and_peak(m)
            assert got == rank
            assert peak < self.KNOWN_RANK_BOUND
        got, peak = self._rank_and_peak(self.DENSE_CASE)
        assert got == 32
        assert peak < self.DENSE_BOUND

    def test_negative_control_no_gcd_breaks_the_peak_bound(self, monkeypatch):
        monkeypatch.setattr(gluing, "math", types.SimpleNamespace(gcd=lambda *a: 1, lcm=math.lcm))
        for m, rank in self.KNOWN_RANK_CASES:
            got, peak = self._rank_and_peak(m)
            assert got == rank
            assert peak > self.KNOWN_RANK_BOUND

    def test_negative_control_unreduced_rows_break_the_peak_bound(self, monkeypatch):
        monkeypatch.setattr(gluing, "_primitive", lambda row: row)
        got, peak = self._rank_and_peak(self.DENSE_CASE)
        assert got == 32
        assert peak > self.DENSE_BOUND

    # Known-rank cores whose d is all +-1, so every pivot lead of their
    # elimination is +-1 and every update is a unit step: full rank with
    # positive leads, full rank with a negative lead, and rank n - 3.
    UNIT_LEAD_CASES = [
        (_rank_t_core(random.Random(33), 12, 12, (1,)), 12),
        (_rank_t_core(random.Random(34), 12, 12, (-1, 1)), 12),
        (_rank_t_core(random.Random(35), 12, 9, (-1, 1)), 9),
    ]

    @staticmethod
    def _rank_and_primitive_calls(monkeypatch, matrix) -> tuple[int, int]:
        calls = []
        primitive = gluing._primitive

        def counting(row):
            calls.append(row)
            return primitive(row)

        monkeypatch.setattr(gluing, "_primitive", counting)
        return matrix_rank(matrix), len(calls)

    def test_unit_leads_take_no_content_gcd(self, monkeypatch):
        leads = [_gaussian_leads(m) for m, _ in self.UNIT_LEAD_CASES]
        assert all(abs(x) == 1 for x in itertools.chain(*leads))
        assert set(leads[0]) == {1} and -1 in leads[1]
        for m, rank in self.UNIT_LEAD_CASES:
            got, calls = self._rank_and_primitive_calls(monkeypatch, m)
            assert got == rank
            assert calls <= len(m)  # the content pass only

    def test_dense_rows_are_made_primitive(self, monkeypatch):
        # Negative control: on content-free rows m is rarely 1.
        got, calls = self._rank_and_primitive_calls(monkeypatch, self.DENSE_CASE)
        assert got == 32
        assert calls > len(self.DENSE_CASE)

    def test_unit_lead_cases_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for m, rank in self.UNIT_LEAD_CASES:
            assert _sympy_rank(sympy, m) == rank
            assert matrix_rank(m) == rank

    @pytest.mark.parametrize("n", [*range(1, 13), 24, 48, 64])
    def test_rank_by_construction(self, n):
        rng = random.Random(9000 + n)
        for _ in range(3 if n <= 12 else 1):
            for m, rank in _known_rank_cases(rng, n):
                assert matrix_rank(m) == rank, m

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 24, 64])
    def test_changed_entry_breaks_corank_one(self, n):
        # Negative control.  The core's leading (n-1) minor is nonzero, so
        # adding anything nonzero to its last diagonal entry makes the
        # determinant nonzero: the oracle expects n where it expected n - 1.
        rng = random.Random(n)
        core = _rank_t_core(rng, n, n - 1)
        m, row_at, col_at = _scaled_matrix(rng, n, core)
        assert matrix_rank(m) == n - 1
        i, j = row_at[-1], col_at[-1]
        m[i][j] += Fraction(1, 7)
        assert matrix_rank(m) == n

    @pytest.mark.parametrize("n", [*range(1, 13), 24, 48, 64])
    def test_zero_factor_rows_by_construction(self, n):
        rng = random.Random(11000 + n)
        for _ in range(3 if n <= 12 else 1):
            for m, rank in _zero_factor_cases(rng, n):
                assert matrix_rank(m) == rank, m

    def test_zero_factor_rows_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(12000)
        for n in [*range(1, 13), 24]:
            for m, _ in _zero_factor_cases(rng, n):
                assert matrix_rank(m) == _sympy_rank(sympy, m), m

    def test_argument_is_not_mutated(self):
        rng = random.Random(5)
        for n in (1, 4, 9, 16):
            for m, _ in _known_rank_cases(rng, n):
                before = copy.deepcopy(m)
                matrix_rank(m)
                assert m == before
                assert [list(map(type, row)) for row in m] == [
                    list(map(type, row)) for row in before
                ]

    @pytest.mark.parametrize(
        "matrix", [[[0.1, 0.2], [0.3, 0.6]], [[1, 0], [0, 1.0]], [[Fraction(1, 2), 2.5]] * 2]
    )
    def test_float_entries_rejected(self, matrix):
        with pytest.raises(ValueError, match="float"):
            matrix_rank(matrix)
        with pytest.raises(ValueError, match="float"):
            GluingDatum(2, None, 0, 0, sigma=matrix)

    def test_exact_non_fraction_entries_accepted(self):
        assert matrix_rank([[True, Decimal("0.5")], [Fraction(1, 3), Fraction(1, 6)]]) == 1


class TestGluedClass:
    def test_isomorphism_gives_bundle(self):
        sheaf, stalk, is_bundle = glued_class(GluingDatum(2, 2, 1, 1))
        assert sheaf.chi == 0
        assert (sheaf.r1, sheaf.r2) == (2, 2)
        assert stalk == StalkType(2, 0, 0)
        assert is_bundle

    def test_rank_one_map_is_not_bundle(self):
        sheaf, stalk, is_bundle = glued_class(GluingDatum(2, 1, 1, 1))
        assert sheaf.chi == 0
        assert stalk == StalkType(1, 1, 1)
        assert not is_bundle

    def test_rank_three(self):
        sheaf, stalk, _ = glued_class(GluingDatum(3, 2, 4, -1))
        assert sheaf.chi == 0
        assert stalk == StalkType(2, 1, 1)

    def test_chi_additivity_box(self):
        for r in range(2, 5):
            for k in range(1, r + 1):
                for chi1 in range(-5, 6):
                    for chi2 in range(-5, 6):
                        sheaf, stalk, _ = glued_class(GluingDatum(r, k, chi1, chi2))
                        assert sheaf.chi + r == chi1 + chi2
                        assert stalk.a + stalk.b == r
                        assert stalk.a + stalk.c == r
                        assert stalk.a == min(k, r)

    def test_matrix_and_declared_k_agree(self):
        rng = random.Random(777)
        for _ in range(100):
            n = rng.randint(2, 4)
            m = _random_matrix(rng, n)
            if all(x == 0 for row in m for x in row):
                continue
            chi1, chi2 = rng.randint(-5, 5), rng.randint(-5, 5)
            from_matrix = GluingDatum(n, None, chi1, chi2, sigma=m)
            from_k = GluingDatum(n, from_matrix.k, chi1, chi2)
            assert glued_class(from_matrix) == glued_class(from_k)

    def test_declared_k_must_match_sigma(self):
        with pytest.raises(ValueError):
            GluingDatum(2, 2, 0, 0, sigma=[[1, 0], [0, 0]])

    def test_zero_map_rejected(self):
        with pytest.raises(ValueError):
            GluingDatum(2, None, 0, 0, sigma=[[0, 0], [0, 0]])

    @pytest.mark.parametrize("k", [0, 3])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            GluingDatum(2, k, 1, 1)

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            GluingDatum(1, 1, 0, 0)


class TestDatumSigma:
    def test_parse_matrix_rows_are_kept(self):
        rows = parse_matrix([["1/2", "1"], ["-3", 7]])
        datum = GluingDatum(2, None, 0, 0, sigma=rows)
        assert all(datum.sigma[i] is rows[i] for i in range(2))
        assert datum.k == 2

    @pytest.mark.parametrize(
        "sigma",
        [
            [[Fraction(1, 2), 1], [1, 2]],
            ((Fraction(1, 2), 1), (1, 2)),
            [(1, 2), [Fraction(1, 3), 1]],
            ((1, True), (0, 1)),
        ],
        ids=["fraction-lists", "fraction-tuples", "mixed-rows", "bool-entry"],
    )
    def test_other_rows_are_converted(self, sigma):
        datum = GluingDatum(2, None, 0, 0, sigma=sigma)
        assert type(datum.sigma) is tuple
        assert all(type(row) is tuple for row in datum.sigma)
        assert all(type(x) in (int, Fraction) for row in datum.sigma for x in row)
        assert datum.sigma == tuple(tuple(map(Fraction, row)) for row in sigma)

    def test_float_in_a_tuple_row_is_refused(self):
        message = r"^matrix entries must be exact rationals, got the float 1\.0$"
        with pytest.raises(ValueError, match=message):
            GluingDatum(2, None, 0, 0, sigma=((1, 0), (0, 1.0)))


class TestCanonicalSubsheaves:
    def test_full_rank_map(self):
        k1, k2 = canonical_subsheaves(GluingDatum(2, 2, 3, 1))
        assert (k1.r1, k1.r2, k1.chi) == (2, 0, 1)
        assert (k2.r1, k2.r2, k2.chi) == (0, 2, -1)

    def test_rank_one_map(self):
        k1, k2 = canonical_subsheaves(GluingDatum(2, 1, 0, 2))
        assert k1.chi == -1
        assert k2.chi == 0

    def test_symmetric(self):
        k1, k2 = canonical_subsheaves(GluingDatum(3, 3, 3, 3))
        assert k1.chi == 0 and k2.chi == 0


def _nested(depth):
    """A cell of "0" inside depth arrays."""
    cell = "0"
    for _ in range(depth):
        cell = [cell]
    return cell


# Cells for the row decode: text over the characters a "p/q" cell is made
# of and those that break one (Unicode whitespace, "_", Arabic-Indic
# digits, NUL), well-formed cells padded with that whitespace and with
# leading zeros, and the non-string cells a JSON or library caller can pass.
_PAD = st.sampled_from(["", " ", "\t\n", "\x1c", "\x1f", "\xa0", "\u3000"])
_DIGITS = st.text(alphabet="0123456789\u0663\u0661", min_size=1, max_size=4)
WELL_FORMED = st.builds(
    lambda pad, sign, p, q, end: f"{pad}{sign}{p}{'' if q is None else '/' + q}{end}",
    _PAD, st.sampled_from(["", "+", "-", "00"]), _DIGITS, st.none() | _DIGITS, _PAD,
)
CELLS = st.one_of(
    st.text(alphabet=" \t\x1c\x1d\x1e\x1f\xa0\u3000+-0123_/\x00\u0663.", max_size=8),
    WELL_FORMED,
    st.sampled_from(["1/0", "-0/00", "", "\x00", "1\x002", "1/2\x00"]),
    st.integers(-(10**6), 10**6),
    st.sampled_from([True, False, 0.5, 1.0, None, ["1"], []]),
)
# Half the rows hold well-formed cells only, so most of them decode whole.
MATRICES = st.lists(
    st.lists(WELL_FORMED, min_size=1, max_size=5) | st.lists(CELLS, min_size=1, max_size=5),
    min_size=1,
    max_size=4,
)


def _decode_outcome(decode, data):
    """What decode does with data: the rows it returns, or the type and
    message of the ValueError it raises."""
    try:
        return decode(data)
    except ValueError as exc:
        return type(exc), str(exc)


@given(MATRICES)
def _decodes_like_cellwise_reference(data):
    assert _decode_outcome(parse_matrix, data) == _decode_outcome(cellwise_parse_matrix, data)


class TestParseMatrix:
    def test_row_decode_matches_cellwise_reference(self):
        _decodes_like_cellwise_reference()

    @needs_default_digit_limit
    @pytest.mark.parametrize(
        "cell",
        ["1" * 4301, "-1/" + "7" * 4301, " +" + "0" * 4301 + "5 "],
        ids=["numerator", "denominator", "padded-leading-zeros"],
    )
    @given(before=st.lists(CELLS, max_size=3), after=st.lists(CELLS, max_size=3))
    def test_digit_limit_cell_matches_cellwise_reference(self, cell, before, after):
        data = [[*before, cell, *after]]
        assert _decode_outcome(parse_matrix, data) == _decode_outcome(cellwise_parse_matrix, data)

    def test_negative_control_dropped_lcm_scaling_is_caught(self, monkeypatch):
        monkeypatch.setattr(gluing, "math", types.SimpleNamespace(gcd=math.gcd, lcm=lambda *a: 1))
        with pytest.raises(AssertionError):
            _decodes_like_cellwise_reference()

    def test_strings_and_ints(self):
        # Each row is scaled by the lcm of its denominators: 2, then 4.
        got = parse_matrix([["1/2", 1], ["-3/4", "2"]])
        assert got == ((1, 2), (-3, 8))

    def test_rows_are_lcm_scaled_fraction_rows(self):
        rng = random.Random(64)
        for n in (1, 2, 3, 5, 8, 13):
            for matrix, _ in _known_rank_cases(rng, n):
                cells, dens = _as_cells(rng, matrix)
                want = []
                for row, den_row in zip(matrix, dens):
                    scale = math.lcm(*den_row)
                    scaled = [Fraction(x) * scale for x in row]
                    assert all(x.denominator == 1 for x in scaled)
                    want.append(tuple(x.numerator for x in scaled))
                got = parse_matrix(cells)
                assert got == tuple(want)
                assert all(type(x) is int for row in got for x in row)

    @pytest.mark.parametrize("n", [*range(1, 13), 24, 48, 64])
    def test_rank_of_parsed_cells(self, n):
        rng = random.Random(7000 + n)
        for matrix, rank in _known_rank_cases(rng, n):
            sigma = parse_matrix(_as_cells(rng, matrix)[0])
            assert matrix_rank(sigma) == rank
            if n >= 2:
                datum = GluingDatum(n, None, 0, 0, sigma=sigma)
                assert datum.k == rank
                assert datum.sigma == sigma
                assert all(type(x) is int for row in datum.sigma for x in row)

    @pytest.mark.parametrize(
        "cell, message",
        [("1/0", "zero denominator in rational string: '1/0'"),
         ("1_0", "not a rational 'p/q' or 'p' string: '1_0'")],
    )
    def test_bad_cell_strings_rejected(self, cell, message):
        with pytest.raises(ValueError) as info:
            parse_matrix([["1", "0"], ["0", cell]])
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "cell, head, length",
        [("x" * 100_000, "not a rational 'p/q' or 'p' string: 'xxx", 100_002),
         (_nested(900), "matrix entries must be 'p/q' strings, got [[[", 1_803)],
        ids=["string-of-100000", "nested-900-deep"],
    )
    def test_large_cell_is_echoed_cut(self, cell, head, length):
        # The message quotes the first 40 characters of the cell's repr and
        # the length of the whole, however large the cell is.
        with pytest.raises(ValueError) as info:
            parse_matrix([["1", "0"], ["0", cell]])
        message = str(info.value)
        assert message.startswith(head)
        assert message.endswith(f"... ({length} characters)")
        assert len(message) < 120

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix([[1, 2], [3]])

    @pytest.mark.parametrize("bad", [[], [[0.5]], [["1/2", True]], "nope", [[None]]])
    def test_bad_payloads_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_matrix(bad)
