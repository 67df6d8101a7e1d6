import itertools
import json
from fractions import Fraction

import pytest

from nodalmoduli.cli import main
from nodalmoduli.curves import Polarization
from nodalmoduli import curves, feasibility
from nodalmoduli.feasibility import (
    feasible_interval,
    in_region,
    region_runs,
    region_scan,
    violated_conditions,
    w1_bounds,
)
from nodalmoduli.gluing import GluingDatum, canonical_subsheaves
from nodalmoduli.rationals import RationalInterval
import oracles
from oracles import (
    OPEN_UNIT,
    closed,
    fraction_interval,
    grid_feasible,
    region_characterization,
)
from test_region_runs import expand

HALF = Polarization(Fraction(1, 2), Fraction(1, 2))


class TestNecessaryConditions:
    def test_chi_zero_balanced(self):
        assert violated_conditions(GluingDatum(2, 2, 1, 1), HALF) == []

    def test_violated_upper(self):
        u = GluingDatum(2, 1, 2, 1)
        assert violated_conditions(u, HALF) != []
        assert "chi*w2 + r - k <= chi2" in violated_conditions(u, HALF)

    def test_satisfied_positive_chi(self):
        assert violated_conditions(GluingDatum(2, 1, 2, 3), HALF) == []

    def test_boundary_weight_is_exact(self):
        # chi = -20 and chi*w1 = chi1 at w1 = 3/5: the weight is compatible.
        u = GluingDatum(2, 1, -12, -6)
        assert violated_conditions(u, Polarization.from_w1(Fraction(3, 5))) == []

    def test_negative_control_float_weight_flips_the_verdict(self, monkeypatch):
        # Without the exactness check, 0.6 becomes the double just below 3/5,
        # and chi*w1 then lies above chi1.
        monkeypatch.setattr(curves, "exact", lambda x, what: Fraction(x))
        w = Polarization.from_w1(0.6)
        assert w.w1 == Fraction(5404319552844595, 9007199254740992)
        assert violated_conditions(GluingDatum(2, 1, -12, -6), w) == [
            "chi*w1 <= chi1",
            "chi2 <= chi*w2 + r",
        ]

    def test_kernel_subsheaves_destabilize_exactly_at_violations(self):
        # Oracle for the two-comparison evaluation: K1 out-slopes the glued
        # sheaf exactly when "chi1 <= chi*w1 + k" fails, K2 exactly when
        # "chi*w1 <= chi1" fails.  With w1 = p/q, the slope chi_K / wrank_K
        # beats chi / r iff q chi_K r > chi (q wrank_K), all in integers.
        first, second, third, fourth = (
            "chi*w1 <= chi1",
            "chi1 <= chi*w1 + k",
            "chi*w2 + r - k <= chi2",
            "chi2 <= chi*w2 + r",
        )
        for r in (2, 3, 4):
            for k in range(1, r + 1):
                for chi1 in range(-5, 6):
                    for chi2 in range(-5, 6):
                        u = GluingDatum(r, k, chi1, chi2)
                        kernels = canonical_subsheaves(u)
                        for q in range(2, 8):
                            for p in range(1, q):
                                w = Polarization(Fraction(p, q), Fraction(q - p, q))
                                violated = violated_conditions(u, w)
                                k1_beats, k2_beats = (
                                    q * e.chi * r > u.chi * (p * e.r1 + (q - p) * e.r2)
                                    for e in kernels
                                )
                                case = (r, k, chi1, chi2, w.w1, violated)
                                in_order = [first, second, third, fourth]
                                assert violated == [n for n in in_order if n in violated]
                                assert k1_beats == (second in violated), case
                                assert k2_beats == (first in violated), case
                                assert (first in violated) == (fourth in violated)
                                assert (second in violated) == (third in violated)


class TestFeasibleInterval:
    def test_chi_zero_full_interval(self):
        report = feasible_interval(2, 2, 1, 1)
        assert report.feasible
        assert report.w1_interval == OPEN_UNIT
        assert report.chi == 0

    def test_positive_chi_closed_interval(self):
        report = feasible_interval(2, 1, 2, 3)
        assert report.feasible
        assert report.w1_interval == closed(Fraction(1, 3), Fraction(2, 3))
        assert report.sample == HALF

    def test_infeasible_boundary(self):
        # chi = 1 > 0 but chi2 = 1 = r - k is not strictly above r - k.
        report = feasible_interval(2, 1, 2, 1)
        assert not report.feasible
        assert report.w1_interval.is_empty
        assert report.sample is None

    def test_negative_chi(self):
        report = feasible_interval(2, 2, 0, 1)
        assert report.feasible
        assert report.w1_interval == OPEN_UNIT

    @pytest.mark.parametrize("k", [0, 3])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            feasible_interval(2, k, 1, 1)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            feasible_interval(1, 1, 1, 1)

    def test_report_json_keys(self):
        got = feasible_interval(2, 1, 2, 3).to_json()
        assert got["feasible"] is True
        assert got["w1_interval"] == {
            "lower": "1/3",
            "upper": "2/3",
            "lower_open": False,
            "upper_open": False,
        }
        assert got["sample"] == {"w1": "1/2", "w2": "1/2"}
        assert got["chi"] == 3


class TestInRegion:
    def test_positive_chi_member(self):
        assert in_region(3, 1, 1, 3)

    def test_negative_chi_member(self):
        assert in_region(3, 1, 0, 2)

    def test_negative_chi_nonmember(self):
        assert not in_region(3, 1, 5, -4)

    def test_all_k_examples(self):
        for point in [(1, 2), (2, 2), (0, 0)]:
            assert all(in_region(2, k, *point) for k in (1, 2))

    def test_all_k_sample_valid_for_every_k(self):
        for chi1 in range(-6, 7):
            for chi2 in range(-6, 7):
                for r in (2, 3, 4):
                    report = feasible_interval(r, 1, chi1, chi2)
                    assert report.feasible == in_region(r, 1, chi1, chi2)
                    if report.feasible:
                        for k in range(1, r + 1):
                            u = GluingDatum(r, k, chi1, chi2)
                            assert violated_conditions(u, report.sample) == []

    def test_matches_feasible_interval_with_its_refusals(self):
        def outcome(fn, *args):
            try:
                return fn(*args)
            except ValueError as exc:
                return str(exc)

        for r in (1, 2, 3, 4):
            for k in range(r + 2):
                for chi1 in range(-4, 5):
                    for chi2 in range(-4, 5):
                        want = outcome(feasible_interval, r, k, chi1, chi2)
                        want = want if isinstance(want, str) else want.feasible
                        assert outcome(in_region, r, k, chi1, chi2) == want

    def test_monotone_in_k(self):
        for r in (2, 3, 4):
            for k in range(1, r):
                for chi1 in range(-8, 9):
                    for chi2 in range(-8, 9):
                        if in_region(r, k, chi1, chi2):
                            assert in_region(r, k + 1, chi1, chi2)


class TestGridOracle:
    def test_matches_oracle_small_box(self):
        for r in (2, 3):
            for k in range(1, r + 1):
                for chi1 in range(-5, 6):
                    for chi2 in range(-5, 6):
                        assert in_region(r, k, chi1, chi2) == grid_feasible(
                            r, k, chi1, chi2
                        ), (r, k, chi1, chi2)

    def test_sample_passes_conditions(self):
        for r in (2, 3):
            for k in range(1, r + 1):
                for chi1 in range(-5, 6):
                    for chi2 in range(-5, 6):
                        report = feasible_interval(r, k, chi1, chi2)
                        if report.feasible:
                            u = GluingDatum(r, k, chi1, chi2)
                            assert violated_conditions(u, report.sample) == []


def _mirrored(interval: RationalInterval) -> RationalInterval:
    """Image of an interval under w -> 1 - w."""
    if interval.is_empty:
        return RationalInterval.empty()
    return RationalInterval(
        1 - interval.upper, 1 - interval.lower, interval.upper_open, interval.lower_open
    )


class TestIntervalSymmetry:
    def test_full_rank_mirror(self):
        # Swapping the components mirrors the weight interval, for k = r only.
        for r in (2, 3):
            for chi1 in range(-6, 7):
                for chi2 in range(-6, 7):
                    direct = feasible_interval(r, r, chi1, chi2).w1_interval
                    swapped = feasible_interval(r, r, chi2, chi1).w1_interval
                    assert direct == _mirrored(swapped), (r, chi1, chi2)


class TestRegionScan:
    def test_feasible_rows(self):
        rows = region_scan(2, 1, (1, 1), (2, 3))
        assert [(chi1, chi2, ok) for chi1, chi2, ok, _ in rows] == [
            (1, 2, True),
            (1, 3, True),
        ]

    def test_chi_zero_path(self):
        rows = region_scan(2, 1, (0, 0), (2, 2))
        assert len(rows) == 1
        chi1, chi2, ok, interval = rows[0]
        assert ok and interval == OPEN_UNIT

    def test_empty_range(self):
        assert region_scan(2, 1, (3, 2), (0, 5)) == []

    def test_row_order_is_chi1_major_ascending(self):
        rows = region_scan(2, 1, (-1, 1), (4, 5))
        assert [(a, b) for a, b, _, _ in rows] == [
            (-1, 4), (-1, 5), (0, 4), (0, 5), (1, 4), (1, 5),
        ]

    def test_cell_cap(self, capsys, monkeypatch):
        # The region cap is the CLI's: it refuses a 100 x 100 box at a cap of
        # 100, while region_scan on the same box returns every cell.
        monkeypatch.setenv("NODAL_MODULI_MAX_CELLS", "100")
        code = main(["region", "--r", "2", "--k", "1", "--chi1", "0:99",
                     "--chi2", "0:99"])
        assert code == 1
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert message == "region of 10000 lattice points exceeds the cap of 100"
        assert len(region_scan(2, 1, (0, 99), (0, 99))) == 10**4

    def test_rows_follow_feasible_interval(self):
        rows = region_scan(3, 2, (-4, 4), (-3, 5))
        assert [(a, b) for a, b, _, _ in rows] == [
            (a, b) for a in range(-4, 5) for b in range(-3, 6)
        ]
        for a, b, ok, interval in rows:
            report = feasible_interval(3, 2, a, b)
            assert (ok, interval) == (report.feasible, report.w1_interval)


# The kernel sweep: r 2..8, every k, chi1 and chi2 in -15..15 (33,635 cases).
KERNEL_CASES = [
    (r, k, chi1, chi2)
    for r in range(2, 9)
    for k in range(1, r + 1)
    for chi1 in range(-15, 16)
    for chi2 in range(-15, 16)
]


def _kernel_mismatches():
    """Cases where feasible_interval disagrees with the Fraction reference in
    the interval, its openness, the sample or the verdict."""
    for case in KERNEL_CASES:
        want = fraction_interval(*case)
        report = feasible_interval(*case)
        got = report.w1_interval
        sample = None if report.sample is None else report.sample.w1
        if (
            (got.lower, got.upper, got.lower_open, got.upper_open)
            != (want.lower, want.upper, want.lower_open, want.upper_open)
            or sample != oracles.sample(want)
            or report.feasible == want.is_empty
        ):
            yield case, report, want


class TestIntegerKernel:
    def test_matches_fraction_reference(self):
        assert next(_kernel_mismatches(), None) is None

    def test_verdict_matches_sign_cases(self):
        for r, k, chi1, chi2 in KERNEL_CASES:
            if chi1 + chi2 == r:
                want = 0 <= chi1 <= k
            else:
                want = region_characterization(r, k, chi1, chi2)
            assert feasible_interval(r, k, chi1, chi2).feasible == want

    def test_bounds_are_integer_fractions_of_the_unit_interval(self):
        for case in KERNEL_CASES:
            bounds = w1_bounds(*case)
            if bounds is not None:
                lo, hi, den, lo_open, hi_open = bounds
                assert all(type(x) is int for x in (lo, hi, den)), case
                assert 0 <= lo < hi <= den, case
                assert lo_open == (lo == 0) and hi_open == (hi == den), case

    def test_negative_control_closed_tie_at_zero(self, monkeypatch):
        # A kernel that keeps a raw lower endpoint of exactly 0 closed, instead
        # of opening it to meet (0, 1), must be caught by the reference check.
        def tie_closed(r, k, chi1, chi2):
            bounds = w1_bounds(r, k, chi1, chi2)
            chi = chi1 + chi2 - r
            raw_lower = chi1 - k if chi > 0 else -chi1
            if bounds is not None and chi != 0 and raw_lower == 0:
                return bounds[:3] + (False, bounds[4])
            return bounds

        monkeypatch.setattr(feasibility, "w1_bounds", tie_closed)
        case, report, want = next(_kernel_mismatches())
        assert report.w1_interval.lower == 0 and not report.w1_interval.lower_open
        assert want.lower == 0 and want.lower_open


class TestRegionCells:
    # The cells of a box as region_runs expands to them: the same cells,
    # in the same order, as region_scan lists one w1_bounds call at a time.
    def test_rows_follow_region_scan(self):
        runs = region_runs(3, 2, (-4, 4), (-3, 5))
        cells = list(itertools.chain.from_iterable(map(expand, runs)))
        rows = region_scan(3, 2, (-4, 4), (-3, 5))
        assert [(a, b, bounds is not None) for a, b, bounds in cells] == [
            (a, b, ok) for a, b, ok, _ in rows
        ]
        for (a, b, bounds), (_, _, _, interval) in zip(cells, rows):
            assert bounds == w1_bounds(3, 2, a, b)
            assert interval == feasible_interval(3, 2, a, b).w1_interval

    @pytest.mark.parametrize("r, k", [(1, 0), (1, 1), (2, 0), (2, 3)])
    def test_validates_ranks_before_walking_an_empty_box(self, r, k):
        with pytest.raises(ValueError):
            region_scan(r, k, (3, 2), (0, 5))
        with pytest.raises(ValueError):
            region_runs(r, k, (3, 2), (0, 5))  # raised by the call, not by next()

    def test_huge_box_is_walked_lazily(self):
        # A box beyond ssize_t is walked lazily from its first cell.
        huge = (-10**20, 10**20)
        cells = expand(next(region_runs(2, 1, huge, (0, 1))))
        assert next(cells) == (-10**20, 0, w1_bounds(2, 1, -10**20, 0))
