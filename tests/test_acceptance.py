"""Acceptance suite: each test sweeps one criterion at full stated scope,
prints a single pass/fail line, and asserts exactness (zero discrepancies).

Run with ``pytest tests/test_acceptance.py -s`` to see the summary lines.
"""

import random
from fractions import Fraction

from nodalmoduli.curves import NodalCurve, Polarization
from nodalmoduli.feasibility import (
    feasible_interval,
    in_region,
    violated_conditions,
)
from nodalmoduli.gluing import GluingDatum, glued_class
from nodalmoduli.moduli import (
    component_dimension,
    enumerate_components,
    fixed_det_fiber_dimension,
    projective_bundle_dimension,
)
from nodalmoduli.stability import StabilityHypotheses, check_sufficiency
from oracles import grid_feasible, region_characterization


def _report(number: int, name: str, failures: list, checked: int) -> None:
    verdict = "PASS" if not failures else "FAIL"
    detail = f"{checked} checks" if not failures else f"{len(failures)} discrepancies"
    print(f"criterion {number} ({name}): {verdict} [{detail}]")
    assert not failures, failures[:10]


def test_criterion_1_feasibility_oracle_equivalence():
    failures = []
    checked = 0
    for r in range(2, 6):
        for k in range(1, r + 1):
            for chi1 in range(-10, 11):
                for chi2 in range(-10, 11):
                    checked += 1
                    got = feasible_interval(r, k, chi1, chi2).feasible
                    want = grid_feasible(r, k, chi1, chi2)
                    if got != want:
                        failures.append((r, k, chi1, chi2, got, want))
    _report(1, "feasibility oracle equivalence", failures, checked)


def test_criterion_2_region_characterization():
    failures = []
    checked = 0
    for r in range(2, 6):
        for k in range(1, r + 1):
            for chi1 in range(-10, 11):
                for chi2 in range(-10, 11):
                    if chi1 + chi2 - r == 0:
                        continue
                    checked += 1
                    got = in_region(r, k, chi1, chi2)
                    want = region_characterization(r, k, chi1, chi2)
                    if got != want:
                        failures.append((r, k, chi1, chi2, got, want))
    _report(2, "sign-case region characterization", failures, checked)


def test_criterion_3_all_k_intersection_is_k1():
    failures = []
    checked = 0
    for r in range(2, 6):
        for chi1 in range(-15, 16):
            for chi2 in range(-15, 16):
                checked += 1
                intersection = all(
                    in_region(r, k, chi1, chi2) for k in range(1, r + 1)
                )
                if intersection != in_region(r, 1, chi1, chi2):
                    failures.append((r, chi1, chi2))
    _report(3, "all-k region equals k=1 region", failures, checked)


def test_criterion_4_glued_invariants_from_random_matrices():
    rng = random.Random(40404)

    def cell():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    failures = []
    checked = 0
    for r in range(2, 5):
        produced = 0
        while produced < 500:
            if rng.random() < 0.5:
                t = rng.randint(1, r)
                a = [[cell() for _ in range(t)] for _ in range(r)]
                b = [[cell() for _ in range(r)] for _ in range(t)]
                sigma = [
                    [sum(a[i][l] * b[l][j] for l in range(t)) for j in range(r)]
                    for i in range(r)
                ]
            else:
                sigma = [[cell() for _ in range(r)] for _ in range(r)]
            if all(x == 0 for row in sigma for x in row):
                continue
            produced += 1
            checked += 1
            chi1, chi2 = rng.randint(-8, 8), rng.randint(-8, 8)
            datum = GluingDatum(r, None, chi1, chi2, sigma=sigma)
            sheaf, stalk, is_bundle = glued_class(datum)
            k = datum.k
            ok = (
                sheaf.chi == chi1 + chi2 - r
                and (sheaf.r1, sheaf.r2) == (r, r)
                and (stalk.a, stalk.b, stalk.c) == (k, r - k, r - k)
                and is_bundle == (k == r)
            )
            if not ok:
                failures.append((r, sigma, k))
    _report(4, "glued invariants from matrix rank", failures, checked)


def _sufficiency_sweep(ks_for):
    failures = []
    checked = 0
    for r in range(2, 5):
        for k in ks_for(r):
            for chi1 in range(-8, 9):
                for chi2 in range(-8, 9):
                    report = feasible_interval(r, k, chi1, chi2)
                    if not report.feasible:
                        continue
                    h = StabilityHypotheses(r, k, chi1, chi2, r + 2, r + 2)
                    checked += 1
                    holds, witness = check_sufficiency(h, report.sample)
                    if not holds:
                        failures.append((r, k, chi1, chi2, "semistable", witness))
                    holds, witness = check_sufficiency(h, report.sample, strict=True)
                    if not holds:
                        failures.append((r, k, chi1, chi2, "stable", witness))
    return failures, checked


def test_criterion_5_sufficiency_no_witnesses():
    failures, checked = _sufficiency_sweep(lambda r: range(1, r + 1))
    _report(5, "extremal subsheaf sweep finds no witness", failures, checked)


def test_criterion_6_full_rank_case():
    failures, checked = _sufficiency_sweep(lambda r: (r,))
    _report(6, "k = r: compatibility suffices", failures, checked)


def test_criterion_7_dimension_identities():
    failures = []
    checked = 0
    for g1 in range(1, 7):
        for g2 in range(1, 7):
            curve = NodalCurve(g1, g2)
            for r in range(2, 6):
                checked += 1
                component = component_dimension(curve, r)
                bundle = projective_bundle_dimension(curve, r)
                fiber = fixed_det_fiber_dimension(curve, r)
                expected = r * r * (g1 + g2 - 1) + 1
                if not (component == bundle == expected):
                    failures.append((g1, g2, r, "dimension", component, bundle))
                if component - fiber != g1 + g2:
                    failures.append((g1, g2, r, "picard-defect", component - fiber))
    _report(7, "dimension identities", failures, checked)


def test_criterion_8_codim_bound_positivity():
    from nodalmoduli.stability import nonstable_locus_codim_bound

    failures = []
    checked = 0
    zero_flagged = []
    for r in range(2, 7):
        for g in range(1, r + 7):
            for s in range(1, r):
                checked += 1
                bound = nonstable_locus_codim_bound(r, g, s)
                if g >= r + 2 and bound <= 0:
                    failures.append((r, g, s, bound))
                if bound == 0:
                    zero_flagged.append((r, g, s))
                    if g > r + 1:
                        failures.append((r, g, s, "zero above threshold"))
    assert zero_flagged, "the boundary case g <= r + 1 should occur in the sweep"
    _report(8, "codimension bound positivity", failures, checked)


def test_criterion_9_component_enumeration_soundness():
    rng = random.Random(99099)
    failures = []
    checked = 0
    for _ in range(200):
        g1, g2 = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(2, 5)
        chi = rng.randint(-12, 12)
        q = rng.randint(2, 17)
        w = Polarization.from_w1(Fraction(rng.randint(1, q - 1), q))
        curve = NodalCurve(g1, g2)
        records = enumerate_components(curve, r, chi, w)
        checked += 1
        if len(records) > r + 1:
            failures.append((g1, g2, r, chi, w.w1, "count", len(records)))
        for rec in records:
            ok = (
                rec.chi1 + rec.chi2 == chi + r
                and rec.d1 == rec.chi1 - r * (1 - g1)
                and rec.d2 == rec.chi2 - r * (1 - g2)
                and rec.dimension == component_dimension(curve, r)
                and violated_conditions(GluingDatum(r, r, rec.chi1, rec.chi2), w) == []
            )
            if not ok:
                failures.append((g1, g2, r, chi, w.w1, rec))
    _report(9, "component enumeration soundness", failures, checked)
