import random
from fractions import Fraction

import pytest

from nodalmoduli.curves import (
    NodalCurve,
    Polarization,
    SheafClass,
    chi_to_degree,
    dim_moduli_smooth,
    mk_slope,
    polarized_slope,
)


def _random_polarization(rng: random.Random) -> Polarization:
    q = rng.randint(2, 23)
    p = rng.randint(1, q - 1)
    return Polarization(Fraction(p, q), Fraction(q - p, q))


class TestNodalCurve:
    @pytest.mark.parametrize("g1,g2,pa", [(1, 1, 2), (2, 3, 5), (1, 5, 6)])
    def test_arithmetic_genus(self, g1, g2, pa):
        assert NodalCurve(g1, g2).arithmetic_genus == pa

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            NodalCurve(0, 2)


class TestPolarization:
    def test_valid(self):
        w = Polarization(Fraction(1, 3), Fraction(2, 3))
        assert w.w1 + w.w2 == 1

    @pytest.mark.parametrize(
        "w1,w2",
        [
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 3)),
            (Fraction(3, 2), Fraction(-1, 2)),
        ],
    )
    def test_invalid_rejected_not_normalized(self, w1, w2):
        with pytest.raises(ValueError):
            Polarization(w1, w2)

    def test_w1_out_of_range_names_both_weights(self):
        with pytest.raises(ValueError) as caught:
            Polarization(Fraction(0), Fraction(1))
        assert str(caught.value) == "weights must lie strictly between 0 and 1, got (0, 1)"

    def test_w2_out_of_range_fails_the_sum_check(self):
        # 0 < w1 < 1 and w1 + w2 = 1 give 0 < w2 < 1, so w2 has no range check.
        with pytest.raises(ValueError) as caught:
            Polarization(Fraction(1, 2), Fraction(3, 2))
        assert str(caught.value) == "weights must sum to 1, got 1/2 + 3/2 = 2"

    def test_from_w1(self):
        assert Polarization.from_w1(Fraction(1, 4)).w2 == Fraction(3, 4)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Polarization.from_w1(0.6),
            lambda: Polarization(0.1, 0.9),
            lambda: Polarization(Fraction(1, 2), 0.5),
        ],
    )
    def test_float_weight_refused(self, make):
        with pytest.raises(ValueError, match="^weights must be exact rationals, got the float"):
            make()

    def test_json(self):
        assert Polarization.from_w1(Fraction(1, 3)).to_json() == {
            "w1": "1/3",
            "w2": "2/3",
        }


class TestSlope:
    def test_balanced(self):
        e = SheafClass(2, 2, 4)
        assert polarized_slope(e, Polarization.from_w1(Fraction(1, 2))) == 2

    def test_one_sided(self):
        e = SheafClass(2, 0, 3)
        assert polarized_slope(e, Polarization.from_w1(Fraction(1, 3))) == Fraction(9, 2)

    def test_negative_chi(self):
        e = SheafClass(0, 2, -1)
        assert polarized_slope(e, Polarization.from_w1(Fraction(1, 2))) == -1

    def test_zero_sheaf_rejected(self):
        with pytest.raises(ValueError):
            SheafClass(0, 0, 1)

    def test_scaling_invariance(self):
        rng = random.Random(11)
        for _ in range(300):
            r1, r2 = rng.randint(0, 5), rng.randint(0, 5)
            if r1 + r2 == 0:
                continue
            chi = rng.randint(-10, 10)
            lam = rng.randint(1, 6)
            w = _random_polarization(rng)
            assert polarized_slope(
                SheafClass(lam * r1, lam * r2, lam * chi), w
            ) == polarized_slope(SheafClass(r1, r2, chi), w)

    def test_equal_ranks_slope_is_weight_free(self):
        rng = random.Random(12)
        for _ in range(300):
            r = rng.randint(1, 6)
            chi = rng.randint(-12, 12)
            w = _random_polarization(rng)
            assert polarized_slope(SheafClass(r, r, chi), w) == Fraction(chi, r)


class TestChiDegree:
    def test_examples(self):
        assert chi_to_degree(1, 2, 2) == 3
        assert chi_to_degree(0, 5, 1) == 0


class TestDimModuli:
    def test_genus_two(self):
        assert dim_moduli_smooth(2, 3, 2) == 5

    def test_genus_one_is_gcd(self):
        assert dim_moduli_smooth(2, 3, 1) == 1
        assert dim_moduli_smooth(3, 6, 1) == 3

    def test_genus_zero_rejected(self):
        with pytest.raises(ValueError):
            dim_moduli_smooth(2, 3, 0)

    def test_rank_one_is_the_genus(self):
        for g in range(2, 9):
            for d in range(-3, 4):
                assert dim_moduli_smooth(1, d, g) == g


class TestMkSlope:
    def test_examples(self):
        assert mk_slope(3, 2, 0) == Fraction(3, 2)
        assert mk_slope(3, 2, -2) == Fraction(1, 2)
        assert mk_slope(0, 4, 0) == 0

    def test_zero_rank_rejected(self):
        with pytest.raises(ValueError):
            mk_slope(3, 0, 0)
