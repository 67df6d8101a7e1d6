"""The integer compatibility window against its ``Fraction`` references.

``feasibility.chi1_window`` is the one place the window
chi*w1 <= chi1 <= chi*w1 + k is computed: ``violated_conditions`` reads it
at the datum's k, ``moduli.component_rows`` at k = r and ``is_generic_for``
asks whether its ends are lattice points.  Both readers are compared with
the ``Fraction`` forms they replaced (``oracles``) on two case sets:

- the probe grid: r 2..9, every k, chi1 and chi2 in -20..20, every weight
  p/q with q <= 12, and for each chi the weights j/|chi| at which chi*w1 is
  an integer (the gate gets the two of those that put an end of the window
  on chi1; the components get all of them);
- a seeded random set with |chi| up to 10^6 and q up to 10^4, half of it
  at weights where q divides chi.

The negative control floors the lower end of the window instead of taking
its ceiling, and both comparisons must catch it.
"""

import random
from fractions import Fraction

import pytest

from nodalmoduli import feasibility, moduli
from nodalmoduli.curves import NodalCurve, Polarization
from nodalmoduli.feasibility import violated_conditions
from nodalmoduli.gluing import GluingDatum
from nodalmoduli.moduli import component_rows, is_generic_for
from oracles import fraction_component_chi1s, fraction_violated_conditions

CURVE = NodalCurve(2, 3)
FAREY_12 = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})


def _polarizations(w1s) -> list[Polarization]:
    return [Polarization.from_w1(w1) for w1 in sorted(set(w1s))]


GRID_WEIGHTS = _polarizations(FAREY_12)


def grid_gate_cases():
    """(u, w) over the probe grid.  The window reads only k, chi1 and chi of
    the datum, so each distinct (k, chi1, chi) is taken once, with the r and
    chi2 it first appears with."""
    seen = set()
    for r in range(2, 10):
        for k in range(1, r + 1):
            for chi1 in range(-20, 21):
                for chi2 in range(-20, 21):
                    u = GluingDatum(r, k, chi1, chi2)
                    chi = u.chi
                    if (k, chi1, chi) in seen:
                        continue
                    seen.add((k, chi1, chi))
                    ends = [Fraction(chi1, chi), Fraction(chi1 - k, chi)] if chi else []
                    yield from ((u, w) for w in GRID_WEIGHTS)
                    yield from ((u, w) for w in _polarizations(x for x in ends if 0 < x < 1))


def grid_component_cases():
    """(chi, w, r) for every chi the probe grid reaches at rank r."""
    for r in range(2, 10):
        for chi in range(-40 - r, 41 - r):
            lattice = (Fraction(j, abs(chi)) for j in range(1, abs(chi)))
            for w in GRID_WEIGHTS + _polarizations(lattice):
                yield chi, w, r


def _random_case(rng: random.Random) -> tuple[int, Polarization]:
    q = rng.randint(2, 10**4)
    w = Polarization.from_w1(Fraction(rng.randint(1, q - 1), q))
    if rng.random() < 0.5:
        return q * rng.randint(-(10**6) // q, 10**6 // q), w
    return rng.randint(-(10**6), 10**6), w


def random_gate_cases(n: int = 20_000):
    """(u, w) with chi1 drawn from two below the window to two above it."""
    rng = random.Random(1201)
    for _ in range(n):
        chi, w = _random_case(rng)
        r = rng.randint(2, 9)
        k = rng.randint(1, r)
        chi1 = chi * w.w1.numerator // w.w1.denominator + rng.randint(-2, k + 2)
        yield GluingDatum(r, k, chi1, chi + r - chi1), w


def random_component_cases(n: int = 5_000):
    rng = random.Random(1202)
    for _ in range(n):
        chi, w = _random_case(rng)
        yield chi, w, rng.randint(2, 9)


CASES = {
    "probe_grid": (grid_gate_cases, grid_component_cases),
    "random": (random_gate_cases, random_component_cases),
}


def first_gate_mismatch(cases):
    """The first (u, w) on which ``violated_conditions`` and its reference
    differ, or None."""
    for u, w in cases:
        if violated_conditions(u, w) != fraction_violated_conditions(u, w):
            return u, w
    return None


def first_component_mismatch(cases):
    """The first (chi, w, r) on which the chi1 column of ``component_rows``
    differs from its reference, or on which ``is_generic_for`` disagrees with
    the reference row count (r + 1 rows exactly when chi*w1 is an integer)."""
    for chi, w, r in cases:
        want = fraction_component_chi1s(chi, w.w1, r)
        got = [row[0] for row in component_rows(CURVE, r, chi, w)]
        if got != want or is_generic_for(chi, w) != (len(want) == r):
            return chi, w, r
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_gate_matches_fraction_reference(name):
    assert first_gate_mismatch(CASES[name][0]()) is None


@pytest.mark.parametrize("name", sorted(CASES))
def test_components_match_fraction_reference(name):
    assert first_component_mismatch(CASES[name][1]()) is None


@pytest.mark.parametrize("name", sorted(CASES))
def test_negative_control_floored_window_is_caught(monkeypatch, name):
    def floored(chi, w1, k):
        p, q = w1.numerator, w1.denominator
        return chi * p // q, (chi * p + k * q) // q

    monkeypatch.setattr(feasibility, "chi1_window", floored)
    monkeypatch.setattr(moduli, "chi1_window", floored)
    gate_cases, component_cases = CASES[name]
    assert first_gate_mismatch(gate_cases()) is not None
    assert first_component_mismatch(component_cases()) is not None
