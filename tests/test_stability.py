import random
from fractions import Fraction

import pytest

from nodalmoduli import stability
from nodalmoduli.curves import Polarization, polarized_slope
from nodalmoduli.feasibility import feasible_interval, violated_conditions
from nodalmoduli.gluing import canonical_subsheaves
from nodalmoduli.stability import (
    NecessaryConditionError,
    StabilityHypotheses,
    SubsheafInvariant,
    check_sufficiency,
    max_degree_bounds,
    mk_semistable_test,
    nonstable_locus_codim_bound,
    subsheaf_slope,
)
from by_path import mutant
from oracles import fraction_degree_bounds, fraction_sufficiency, windowed_sufficiency

HALF = Polarization(Fraction(1, 2), Fraction(1, 2))


def _as_tuple(f: SubsheafInvariant | None):
    return None if f is None else (f.s, f.s1, f.s2, f.deg_g1, f.deg_g2)


def _random_polarization(rng: random.Random) -> Polarization:
    q = rng.randint(2, 17)
    p = rng.randint(1, q - 1)
    return Polarization(Fraction(p, q), Fraction(q - p, q))


def _random_region_instance(rng: random.Random) -> StabilityHypotheses:
    """A random gluing with (chi1, chi2) feasible, plus random genera."""
    while True:
        r = rng.randint(2, 4)
        k = rng.randint(1, r)
        chi1 = rng.randint(-6, 6)
        chi2 = rng.randint(-6, 6)
        if feasible_interval(r, k, chi1, chi2).feasible:
            return StabilityHypotheses(
                r, k, chi1, chi2, rng.randint(1, 6), rng.randint(1, 6)
            )


def _shapes(h: StabilityHypotheses):
    for s in range(0, h.k + 1):
        for s1 in range(s, h.r + 1):
            for s2 in range(s, h.r + 1):
                if s1 + s2 > 0:
                    yield s, s1, s2


class TestSubsheafSlope:
    def test_matches_first_kernel_subsheaf(self):
        rng = random.Random(101)
        for _ in range(200):
            h = _random_region_instance(rng)
            w = _random_polarization(rng)
            k1, _ = canonical_subsheaves(h.gluing())
            f = SubsheafInvariant(0, h.r, 0, h.d1 - h.k, 0)
            assert subsheaf_slope(f, h, w) == polarized_slope(k1, w)

    def test_matches_second_kernel_subsheaf(self):
        rng = random.Random(102)
        for _ in range(200):
            h = _random_region_instance(rng)
            w = _random_polarization(rng)
            _, k2 = canonical_subsheaves(h.gluing())
            f = SubsheafInvariant(0, 0, h.r, 0, h.d2 - h.r)
            assert subsheaf_slope(f, h, w) == polarized_slope(k2, w)

    def test_genus_one_cancellation(self):
        h = StabilityHypotheses(2, 1, 1, 1, 1, 1)
        f = SubsheafInvariant(1, 1, 1, 0, 0)
        assert subsheaf_slope(f, h, HALF) == 1

    def test_rankless_shape_rejected(self):
        h = StabilityHypotheses(2, 1, 1, 2, 2, 2)
        with pytest.raises(ValueError):
            subsheaf_slope(SubsheafInvariant(0, 0, 0, 0, 0), h, HALF)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SubsheafInvariant(2, 1, 2, 0, 0)
        with pytest.raises(ValueError):
            SubsheafInvariant(-1, 0, 0, 0, 0)


class TestMaxDegreeBounds:
    def test_first_side(self):
        # d1 = 3 at (r=2, chi1=1, g1=2); bound s1 (d1 - k) / r = 2.
        h = StabilityHypotheses(2, 1, 1, 2, 2, 2)
        assert h.d1 == 3
        assert max_degree_bounds((0, 2, 0), h)[0] == 2

    def test_second_side(self):
        # d2 = 7 at (r=2, chi2=5, g2=2); bound s2 (d2 - 2r) / r = 3/2.
        h = StabilityHypotheses(2, 1, 1, 5, 2, 2)
        assert h.d2 == 7
        assert max_degree_bounds((0, 0, 1), h)[1] == 1

    def test_absent_side_has_no_bound(self):
        h = StabilityHypotheses(2, 1, 1, 2, 2, 2)
        assert max_degree_bounds((0, 0, 2), h)[0] is None

    def test_strict_drops_integer_bounds_only(self):
        h = StabilityHypotheses(2, 1, 1, 2, 2, 2)
        assert max_degree_bounds((0, 2, 0), h, strict=True)[0] == 1  # bound 2 is integral
        h2 = StabilityHypotheses(2, 1, 1, 5, 2, 2)
        assert max_degree_bounds((0, 0, 1), h2, strict=True)[1] == 1  # bound 3/2 is not

    # Hypotheses with r 2..9, every k, chi in {-5, 0, 4} and g in {1, 3}, so
    # the bound numerators take both signs and both divisibility cases.
    GRID = [
        StabilityHypotheses(r, k, chi1, chi2, g1, g2)
        for r in range(2, 10)
        for k in range(1, r + 1)
        for chi1 in (-5, 0, 4)
        for chi2 in (-5, 0, 4)
        for g1 in (1, 3)
        for g2 in (1, 3)
    ]

    @staticmethod
    def _mismatches(bounds):
        for h in TestMaxDegreeBounds.GRID:
            for s1 in range(h.r + 1):
                for s2 in range(h.r + 1):
                    for strict in (False, True):
                        want = fraction_degree_bounds((0, s1, s2), h, strict)
                        if bounds((0, s1, s2), h, strict) != want:
                            yield h, s1, s2, strict

    def test_matches_fraction_reference(self):
        assert next(self._mismatches(max_degree_bounds), None) is None

    def test_negative_control_unconditional_drop_is_caught(self):
        # Dropping one from every strict bound, integral or not, must differ.
        def always_drop(shape, h, strict=False):
            return tuple(
                None if b is None else b - strict for b in max_degree_bounds(shape, h)
            )

        assert next(self._mismatches(always_drop), None) is not None


class TestCheckSufficiency:
    def test_worked_example_holds(self):
        h = StabilityHypotheses(2, 1, 1, 2, 2, 2)
        assert (h.d1, h.d2) == (3, 4)
        w = feasible_interval(2, 1, 1, 2).sample
        holds, witness = check_sufficiency(h, w)
        assert holds and witness is None

    def test_precondition_gate_names_inequality(self):
        h = StabilityHypotheses(2, 1, 2, 1, 2, 2)  # infeasible datum
        with pytest.raises(NecessaryConditionError) as err:
            check_sufficiency(h, HALF)
        assert err.value.violated
        assert "chi" in err.value.violated[0]

    def test_no_witness_on_feasible_sweep(self):
        for r in (2, 3):
            for k in range(1, r + 1):
                for chi1 in range(-4, 5):
                    for chi2 in range(-4, 5):
                        report = feasible_interval(r, k, chi1, chi2)
                        if not report.feasible:
                            continue
                        h = StabilityHypotheses(r, k, chi1, chi2, r + 2, r + 2)
                        holds, witness = check_sufficiency(h, report.sample)
                        assert holds, (r, k, chi1, chi2, witness)

    def test_strict_mode_no_witness(self):
        for r in (2, 3):
            for k in range(1, r + 1):
                for chi1 in range(-4, 5):
                    for chi2 in range(-4, 5):
                        report = feasible_interval(r, k, chi1, chi2)
                        if not report.feasible:
                            continue
                        h = StabilityHypotheses(r, k, chi1, chi2, r + 2, r + 2)
                        holds, witness = check_sufficiency(
                            h, report.sample, strict=True
                        )
                        assert holds, (r, k, chi1, chi2, witness)

    def test_degree_window_agrees_with_extremal(self):
        rng = random.Random(2024)
        for _ in range(40):
            h = _random_region_instance(rng)
            w = feasible_interval(h.r, h.k, h.chi1, h.chi2).sample
            for strict in (False, True):
                holds, witness = check_sufficiency(h, w, strict=strict)
                assert (holds, _as_tuple(witness)) == windowed_sufficiency(
                    h, w.w1, window=3, strict=strict
                )

    def test_extremal_degrees_dominate_window(self):
        # Lower degrees never beat the extremal pair's slope.
        rng = random.Random(2025)
        for _ in range(200):
            h = _random_region_instance(rng)
            w = _random_polarization(rng)
            s, s1, s2 = rng.choice(list(_shapes(h)))
            max1, max2 = max_degree_bounds((s, s1, s2), h)
            top = subsheaf_slope(
                SubsheafInvariant(s, s1, s2, max1 or 0, max2 or 0), h, w
            )
            for delta1 in range(4):
                for delta2 in range(4):
                    f = SubsheafInvariant(
                        s,
                        s1,
                        s2,
                        (max1 or 0) - (delta1 if max1 is not None else 0),
                        (max2 or 0) - (delta2 if max2 is not None else 0),
                    )
                    assert subsheaf_slope(f, h, w) <= top

    def test_proof_chain_inequality(self):
        # mu(F) <= (s1 w1 mu(K1) + s2 w2 mu(K2) + (s - s2)) / (w1 s1 + w2 s2)
        # for every shape at extremal degrees, and s - s2 <= 0 throughout.
        rng = random.Random(2026)
        for _ in range(120):
            h = _random_region_instance(rng)
            w = _random_polarization(rng)
            k1, k2 = canonical_subsheaves(h.gluing())
            mu1, mu2 = polarized_slope(k1, w), polarized_slope(k2, w)
            for s, s1, s2 in _shapes(h):
                assert s - s2 <= 0
                max1, max2 = max_degree_bounds((s, s1, s2), h)
                f = SubsheafInvariant(s, s1, s2, max1 or 0, max2 or 0)
                denom = w.w1 * s1 + w.w2 * s2
                bound = (s1 * w.w1 * mu1 + s2 * w.w2 * mu2 + (s - s2)) / denom
                assert subsheaf_slope(f, h, w) <= bound

    def test_full_rank_case_never_finds_witness(self):
        # With k = r the compatibility conditions alone suffice.
        for r in (2, 3):
            for chi1 in range(-5, 6):
                for chi2 in range(-5, 6):
                    report = feasible_interval(r, r, chi1, chi2)
                    if not report.feasible:
                        continue
                    h = StabilityHypotheses(r, r, chi1, chi2, r + 2, r + 2)
                    holds, _ = check_sufficiency(h, report.sample)
                    assert holds


class TestMkSemistableTest:
    def test_boundary(self):
        assert mk_semistable_test((1, 1), (3, 2), 0, 1)
        assert not mk_semistable_test((1, 1), (3, 2), 0, 1, strict=True)

    def test_clear_pass(self):
        assert mk_semistable_test((0, 1), (3, 2), 0, 1)

    def test_clear_fail(self):
        assert not mk_semistable_test((2, 1), (3, 2), 0, 2)

    def test_steep_subsheaf_fails_where_its_transpose_passes(self):
        # Degree 3 over rank 1 beats 4/2; degree 1 over rank 3 does not.
        assert not mk_semistable_test((3, 1), (4, 2), 0, 0)
        assert mk_semistable_test((1, 3), (4, 2), 0, 0)

    def test_zero_rank_rejected(self):
        with pytest.raises(ValueError):
            mk_semistable_test((1, 0), (3, 2), 0, 1)


class TestCodimBound:
    def test_examples(self):
        assert nonstable_locus_codim_bound(2, 4, 1) == 1
        assert nonstable_locus_codim_bound(3, 5, 2) == 2
        assert nonstable_locus_codim_bound(2, 3, 1) == 0  # g = r + 1 boundary

    def test_positive_above_threshold(self):
        for r in range(2, 7):
            for g in range(r + 2, r + 7):
                for s in range(1, r):
                    assert nonstable_locus_codim_bound(r, g, s) > 0

    @pytest.mark.parametrize("s", [0, 2])
    def test_s_out_of_range(self, s):
        with pytest.raises(ValueError):
            nonstable_locus_codim_bound(2, 4, s)


class TestGateBypassed:
    def test_sweep_finds_witnesses_at_incompatible_weights(self, monkeypatch):
        # Negative control for the no-witness sweeps: with the compatibility
        # gate switched off, incompatible weights do yield witnesses.
        monkeypatch.setattr(stability, "violated_conditions", lambda u, w: [])
        weights = [Polarization.from_w1(Fraction(p, 7)) for p in range(1, 7)]
        witnesses = 0
        for r in (2, 3):
            for k in range(1, r + 1):
                for chi1 in range(-4, 5):
                    for chi2 in range(-4, 5):
                        h = StabilityHypotheses(r, k, chi1, chi2, r + 2, r + 2)
                        for w in weights:
                            violated = violated_conditions(h.gluing(), w)
                            if not violated:
                                continue
                            holds, witness = check_sufficiency(h, w)
                            assert (holds, _as_tuple(witness)) == windowed_sufficiency(
                                h, w.w1, window=3
                            )
                            # The shape (0, r, 0) at its extremal degree is K1.
                            if "chi1 <= chi*w1 + k" in violated:
                                assert not holds, (r, k, chi1, chi2, w.w1)
                            witnesses += not holds
        assert witnesses > 100

    @pytest.mark.parametrize("strict", [False, True], ids=["semistable", "strict"])
    def test_every_witness_is_a_legal_shape(self, monkeypatch, strict):
        # Both modes, gate switched off: each answer is the reference's, and
        # each witness is a shape the sweep may try, 0 <= s <= k and
        # s <= s1, s2 <= r, neither (0, 0) nor, when strict, (r, r).
        monkeypatch.setattr(stability, "violated_conditions", lambda u, w: [])
        weights = [Polarization.from_w1(Fraction(p, 7)) for p in range(1, 7)]
        witnesses = 0
        for r in (2, 3):
            for k in range(1, r + 1):
                for chi1 in range(-4, 5):
                    for chi2 in range(-4, 5):
                        h = StabilityHypotheses(r, k, chi1, chi2, r + 2, r + 2)
                        for w in weights:
                            if not violated_conditions(h.gluing(), w):
                                continue
                            holds, witness = check_sufficiency(h, w, strict=strict)
                            assert (holds, _as_tuple(witness)) == windowed_sufficiency(
                                h, w.w1, window=3, strict=strict
                            )
                            if witness is None:
                                continue
                            s, s1, s2 = witness.s, witness.s1, witness.s2
                            assert 0 <= s <= k and s <= s1 <= r and s <= s2 <= r
                            assert (s1, s2) != (0, 0)
                            assert not (strict and (s1, s2) == (r, r))
                            witnesses += 1
        assert witnesses > 100


def _random_hypotheses(rng: random.Random) -> StabilityHypotheses:
    """Random data, feasible or not: r in 2..6, any k, chi1 and chi2 in
    [-r, 2r], genera in 1..r+3."""
    r = rng.randint(2, 6)
    return StabilityHypotheses(
        r,
        rng.randint(1, r),
        rng.randint(-r, 2 * r),
        rng.randint(-r, 2 * r),
        rng.randint(1, r + 3),
        rng.randint(1, r + 3),
    )


def _random_cases(rng: random.Random, n: int):
    return [(_random_hypotheses(rng), _random_polarization(rng)) for _ in range(n)]


class TestFractionReference:
    """The integer test per shape against ``oracles.fraction_sufficiency``,
    which compares a ``Fraction`` slope per shape, in both modes and with
    the compatibility gate switched off, so witnesses occur."""

    CASES = _random_cases(random.Random(2027), 300)

    @staticmethod
    def _answers(module, monkeypatch):
        """(module's answer, the reference's) per case and mode, the
        witnesses as tuples, with module's gate switched off."""
        monkeypatch.setattr(module, "violated_conditions", lambda u, w: [])
        for h, w in TestFractionReference.CASES:
            for strict in (False, True):
                holds, witness = module.check_sufficiency(h, w, strict=strict)
                want, want_witness = fraction_sufficiency(h, w, strict)
                yield (holds, _as_tuple(witness)), (want, _as_tuple(want_witness))

    def test_matches_fraction_sweep_on_random_data(self, monkeypatch):
        answers = list(self._answers(stability, monkeypatch))
        assert all(got == want for got, want in answers)
        verdicts = [holds for (holds, _), _ in answers]
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100

    @pytest.mark.parametrize("r", [16, 32])
    def test_matches_fraction_sweep_at_large_rank(self, monkeypatch, r):
        # chi = r/2 + 10 and the w1-window is [5/chi, (r/2 + 5)/chi]: w1 = 1/2
        # is compatible and sweeps every shape; w1 = 1/20 is not, and a
        # first-side shape (0, s1, 0) beats the ambient slope.
        monkeypatch.setattr(stability, "violated_conditions", lambda u, w: [])
        h = StabilityHypotheses(r, r // 2, r // 2 + 5, r + 5, r + 2, r + 2)
        for w1, holds in ((Fraction(1, 2), True), (Fraction(1, 20), False)):
            w = Polarization.from_w1(w1)
            for strict in (False, True):
                got, witness = check_sufficiency(h, w, strict=strict)
                want, want_witness = fraction_sufficiency(h, w, strict)
                assert (got, _as_tuple(witness)) == (want, _as_tuple(want_witness))
                assert got is holds and (holds or witness.s2 == 0)

    def test_negative_control_dropped_strict_tie_is_caught(self, monkeypatch):
        # A shape whose slope equals chi/r is a strict witness; without the
        # tie the integer test must disagree with the reference.
        dropped = mutant(
            stability,
            ("if excess > 0 or (strict and excess == 0):", "if excess > 0:"),
        )
        answers = self._answers(dropped, monkeypatch)
        assert any(got != want for got, want in answers)
