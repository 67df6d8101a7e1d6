import random
from fractions import Fraction

import pytest

from nodalmoduli.curves import NodalCurve, Polarization
from nodalmoduli.feasibility import violated_conditions
from nodalmoduli.gluing import GluingDatum
from nodalmoduli.moduli import (
    component_dimension,
    enumerate_components,
    fixed_det_fiber_dimension,
    is_generic_for,
    projective_bundle_dimension,
)

HALF = Polarization(Fraction(1, 2), Fraction(1, 2))


class TestEnumerateComponents:
    def test_two_components(self):
        records = enumerate_components(NodalCurve(2, 2), 2, 1, HALF)
        assert [(rec.chi1, rec.chi2) for rec in records] == [(1, 2), (2, 1)]
        assert [(rec.d1, rec.d2) for rec in records] == [(3, 4), (4, 3)]
        assert all(rec.dimension == 13 for rec in records)

    def test_chi_zero_three_components(self):
        records = enumerate_components(NodalCurve(1, 1), 2, 0, HALF)
        assert [rec.chi1 for rec in records] == [0, 1, 2]
        assert all(rec.dimension == 5 for rec in records)

    def test_generic_flag(self):
        assert not is_generic_for(0, HALF)  # 0 * w1 = 0 is an integer
        assert is_generic_for(1, HALF)
        assert not is_generic_for(2, HALF)

    def test_sorted_and_bounded_count(self):
        rng = random.Random(5)
        for _ in range(200):
            g1, g2 = rng.randint(1, 6), rng.randint(1, 6)
            r = rng.randint(2, 5)
            chi = rng.randint(-12, 12)
            q = rng.randint(2, 17)
            w = Polarization.from_w1(Fraction(rng.randint(1, q - 1), q))
            records = enumerate_components(NodalCurve(g1, g2), r, chi, w)
            chi1s = [rec.chi1 for rec in records]
            assert chi1s == sorted(chi1s)
            assert 0 <= len(records) <= r + 1

    def test_records_satisfy_full_rank_conditions(self):
        rng = random.Random(6)
        for _ in range(120):
            g1, g2 = rng.randint(1, 6), rng.randint(1, 6)
            r = rng.randint(2, 5)
            chi = rng.randint(-10, 10)
            q = rng.randint(2, 13)
            w = Polarization.from_w1(Fraction(rng.randint(1, q - 1), q))
            curve = NodalCurve(g1, g2)
            for rec in enumerate_components(curve, r, chi, w):
                assert rec.chi1 + rec.chi2 == chi + r
                assert rec.d1 == rec.chi1 - r * (1 - g1)
                assert rec.d2 == rec.chi2 - r * (1 - g2)
                u = GluingDatum(r, r, rec.chi1, rec.chi2)
                assert violated_conditions(u, w) == []

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            enumerate_components(NodalCurve(2, 2), 1, 0, HALF)


class TestDimensions:
    @pytest.mark.parametrize(
        "g1,g2,r,expected", [(2, 2, 2, 13), (1, 1, 3, 10), (1, 2, 2, 9)]
    )
    def test_component_dimension(self, g1, g2, r, expected):
        assert component_dimension(NodalCurve(g1, g2), r) == expected

    @pytest.mark.parametrize(
        "g1,g2,r,expected", [(2, 2, 2, 13), (1, 2, 2, 9), (1, 1, 3, 10)]
    )
    def test_projective_bundle_dimension(self, g1, g2, r, expected):
        assert projective_bundle_dimension(NodalCurve(g1, g2), r) == expected

    @pytest.mark.parametrize(
        "g1,g2,r,expected", [(2, 2, 2, 9), (1, 1, 2, 3), (3, 2, 3, 32)]
    )
    def test_fixed_det_fiber_dimension(self, g1, g2, r, expected):
        assert fixed_det_fiber_dimension(NodalCurve(g1, g2), r) == expected

    def test_dimension_identities_box(self):
        for g1 in range(1, 7):
            for g2 in range(1, 7):
                curve = NodalCurve(g1, g2)
                for r in range(2, 6):
                    component = component_dimension(curve, r)
                    assert component == r * r * (g1 + g2 - 1) + 1
                    assert projective_bundle_dimension(curve, r) == component
                    assert (
                        component - fixed_det_fiber_dimension(curve, r) == g1 + g2
                    )
