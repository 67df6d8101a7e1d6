import itertools
import random
from fractions import Fraction

import pytest

from nodalmoduli.gluing import (
    GluingDatum,
    StalkType,
    canonical_subsheaves,
    glued_class,
    matrix_rank,
    parse_matrix,
)


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
        # sympy is not a dependency; where installed it is an oracle that
        # reaches sizes the minor expansion cannot.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4242)
        for _ in range(150):
            n = rng.randint(1, 9)
            m = _random_matrix(rng, n)
            reference = sympy.Matrix(
                [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]
            )
            assert matrix_rank(m) == reference.rank(), m


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


class TestParseMatrix:
    def test_strings_and_ints(self):
        got = parse_matrix([["1/2", 1], ["-3/4", "2"]])
        assert got == ((Fraction(1, 2), Fraction(1)), (Fraction(-3, 4), Fraction(2)))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix([[1, 2], [3]])

    @pytest.mark.parametrize("bad", [[], [[0.5]], [["1/2", True]], "nope", [[None]]])
    def test_bad_payloads_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_matrix(bad)
