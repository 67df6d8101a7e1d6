"""Value semantics of every record class the package returns.

The records are small immutable values: equal exactly when they are of the
same class with equal fields, hashable consistently with that equality,
refusing to be changed after construction, shown as
``Name(field=value, ...)`` and written as JSON data by ``to_json``, which
the CLI prints.  ``perfbench``'s classify oracle reads
``vars()`` of ``SubsheafInvariant`` and ``ComponentRecord`` results, so
their instance dictionaries must hold exactly their five fields.
"""

import json
import pickle
from fractions import Fraction

import pytest

from nodalmoduli import (
    ComponentRecord,
    FeasibilityReport,
    GluingDatum,
    NodalCurve,
    Polarization,
    SheafClass,
    StabilityHypotheses,
    StalkType,
    SubsheafInvariant,
    feasible_interval,
)
from nodalmoduli import _record
from nodalmoduli._record import Record, _json
from nodalmoduli.rationals import RationalInterval

# (build a value, build a value of the same class with one field changed,
# the repr of the first).  Each builder makes a new, equal object per call.
RECORDS = {
    "NodalCurve": (
        lambda: NodalCurve(2, 3),
        lambda: NodalCurve(3, 2),
        "NodalCurve(g1=2, g2=3)",
    ),
    "Polarization": (
        lambda: Polarization(Fraction(1, 3), Fraction(2, 3)),
        lambda: Polarization.from_w1(Fraction(1, 2)),
        "Polarization(w1=Fraction(1, 3), w2=Fraction(2, 3))",
    ),
    "SheafClass": (
        lambda: SheafClass(2, 2, 1, 0, 3),
        lambda: SheafClass(2, 2, 1),
        "SheafClass(r1=2, r2=2, chi=1, chi1=0, chi2=3)",
    ),
    "FeasibilityReport": (
        lambda: feasible_interval(2, 1, 2, 3),
        lambda: feasible_interval(2, 1, 20, 3),
        "FeasibilityReport(feasible=True, w1_interval=RationalInterval [1/3, 2/3], "
        "sample=Polarization(w1=Fraction(1, 2), w2=Fraction(1, 2)), chi=3)",
    ),
    "FeasibilityReport-infeasible": (
        lambda: feasible_interval(2, 1, -5, 3),
        lambda: feasible_interval(2, 1, -5, 4),
        "FeasibilityReport(feasible=False, w1_interval=RationalInterval.empty(), "
        "sample=None, chi=-4)",
    ),
    "StalkType": (
        lambda: StalkType(1, 1, 1),
        lambda: StalkType(2, 0, 0),
        "StalkType(a=1, b=1, c=1)",
    ),
    "GluingDatum": (
        lambda: GluingDatum(2, 1, 2, 3),
        lambda: GluingDatum(2, 2, 2, 3),
        "GluingDatum(r=2, k=1, chi1=2, chi2=3, sigma=None)",
    ),
    "GluingDatum-sigma": (
        lambda: GluingDatum(2, None, 2, 3, sigma=[[1, 0], [Fraction(1, 2), 0]]),
        lambda: GluingDatum(2, None, 2, 3, sigma=[[1, 0], [0, 1]]),
        "GluingDatum(r=2, k=1, chi1=2, chi2=3, sigma=((1, 0), (Fraction(1, 2), 0)))",
    ),
    "StabilityHypotheses": (
        lambda: StabilityHypotheses(2, 1, 2, 3, 4, 4),
        lambda: StabilityHypotheses(2, 1, 2, 3, 4, 5),
        "StabilityHypotheses(r=2, k=1, chi1=2, chi2=3, g1=4, g2=4, d1=8, d2=9)",
    ),
    "SubsheafInvariant": (
        lambda: SubsheafInvariant(0, 1, 2, 3, 4),
        lambda: SubsheafInvariant(0, 1, 2, 3, 5),
        "SubsheafInvariant(s=0, s1=1, s2=2, deg_g1=3, deg_g2=4)",
    ),
    "ComponentRecord": (
        lambda: ComponentRecord(1, 2, 3, 4, 5),
        lambda: ComponentRecord(2, 1, 3, 4, 5),
        "ComponentRecord(chi1=1, chi2=2, d1=3, d2=4, dimension=5)",
    ),
    "RationalInterval": (
        lambda: RationalInterval(Fraction(1, 3), Fraction(2, 3), True, False),
        lambda: RationalInterval(Fraction(1, 3), Fraction(2, 3)),
        "RationalInterval (1/3, 2/3]",
    ),
}

CASES = pytest.mark.parametrize("make, make_other, text", RECORDS.values(), ids=RECORDS)


@CASES
def test_equal_fields_make_equal_values_with_equal_hashes(make, make_other, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, make_other()}) == 2


@CASES
def test_a_changed_field_makes_a_different_value(make, make_other, text):
    a, other = make(), make_other()
    assert type(a) is type(other)
    assert a != other and not a == other


@CASES
def test_equality_is_by_type(make, make_other, text):
    a = make()
    fields = tuple(vars(a).values())
    assert a != fields and fields != a
    assert a.__eq__(fields) is NotImplemented
    assert a.__eq__(object()) is NotImplemented


def test_same_fields_in_another_record_class_are_not_equal():
    shape = SubsheafInvariant(1, 2, 3, 4, 5)
    record = ComponentRecord(1, 2, 3, 4, 5)
    assert tuple(vars(shape).values()) == tuple(vars(record).values())
    assert shape != record and record != shape


@CASES
def test_fields_cannot_be_set_or_deleted(make, make_other, text):
    a = make()
    before = dict(vars(a))
    name = next(iter(before))
    with pytest.raises(AttributeError):
        setattr(a, name, 0)
    with pytest.raises(AttributeError):
        a.extra = 0
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert vars(a) == before


@CASES
def test_repr_names_the_class_and_its_fields(make, make_other, text):
    assert repr(make()) == text


@CASES
def test_pickle_round_trip_keeps_the_value(make, make_other, text):
    a = make()
    assert pickle.loads(pickle.dumps(a)) == a


@CASES
def test_positional_class_pattern_matches_the_leading_fields(make, make_other, text):
    a = make()
    cls = type(a)
    match a:
        case cls(first, second):
            got = (first, second)
        case _:
            got = None
    assert got == tuple(vars(a).values())[:2]


@pytest.mark.parametrize(
    "value, fields",
    [
        (
            SubsheafInvariant(0, 1, 2, 3, 4),
            {"s": 0, "s1": 1, "s2": 2, "deg_g1": 3, "deg_g2": 4},
        ),
        (
            ComponentRecord(1, 2, 3, 4, 5),
            {"chi1": 1, "chi2": 2, "d1": 3, "d2": 4, "dimension": 5},
        ),
    ],
    ids=["SubsheafInvariant", "ComponentRecord"],
)
def test_vars_is_exactly_the_five_fields(value, fields):
    assert vars(value) == fields
    assert list(vars(value)) == list(fields)


def test_every_record_class_is_covered():
    covered = {type(make()) for make, _, _ in RECORDS.values()}
    assert covered == {
        ComponentRecord,
        FeasibilityReport,
        GluingDatum,
        NodalCurve,
        Polarization,
        RationalInterval,
        SheafClass,
        StabilityHypotheses,
        StalkType,
        SubsheafInvariant,
    }


# (a value, its JSON form written out by hand).  Each record's JSON form is
# its fields by name: a nested record as its own JSON form, a Fraction as its
# "p/q" text (a bare integer when the denominator is 1), None as None.
JSON_FORMS = {
    "Polarization": (
        Polarization(Fraction(1, 3), Fraction(2, 3)),
        {"w1": "1/3", "w2": "2/3"},
    ),
    "SheafClass": (
        SheafClass(3, 0, -4, -1, 2),
        {"r1": 3, "r2": 0, "chi": -4, "chi1": -1, "chi2": 2},
    ),
    "SheafClass-unknown-restrictions": (
        SheafClass(2, 2, 1),
        {"r1": 2, "r2": 2, "chi": 1, "chi1": None, "chi2": None},
    ),
    "RationalInterval": (
        RationalInterval(Fraction(-3, 2), Fraction(2)),
        {"lower": "-3/2", "upper": "2", "lower_open": False, "upper_open": False},
    ),
    "RationalInterval-negative-integer-end": (
        RationalInterval(Fraction(-4), Fraction(-1, 3), True, False),
        {"lower": "-4", "upper": "-1/3", "lower_open": True, "upper_open": False},
    ),
    "RationalInterval-empty": (
        RationalInterval.empty(),
        {"lower": "0", "upper": "0", "lower_open": True, "upper_open": True},
    ),
    "FeasibilityReport": (
        feasible_interval(3, 2, -1, -2),
        {
            "feasible": True,
            "w1_interval": {
                "lower": "1/6", "upper": "1/2", "lower_open": False, "upper_open": False
            },
            "sample": {"w1": "1/3", "w2": "2/3"},
            "chi": -6,
        },
    ),
    "FeasibilityReport-chi-zero": (
        feasible_interval(3, 2, 1, 2),
        {
            "feasible": True,
            "w1_interval": {
                "lower": "0", "upper": "1", "lower_open": True, "upper_open": True
            },
            "sample": {"w1": "1/2", "w2": "1/2"},
            "chi": 0,
        },
    ),
    "FeasibilityReport-infeasible": (
        feasible_interval(2, 1, -5, 3),
        {
            "feasible": False,
            "w1_interval": {
                "lower": "0", "upper": "0", "lower_open": True, "upper_open": True
            },
            "sample": None,
            "chi": -4,
        },
    ),
    "SubsheafInvariant": (
        SubsheafInvariant(0, 1, 2, -3, 4),
        {"s": 0, "s1": 1, "s2": 2, "deg_g1": -3, "deg_g2": 4},
    ),
    "ComponentRecord": (
        ComponentRecord(-1, 6, -3, 4, 13),
        {"chi1": -1, "chi2": 6, "d1": -3, "d2": 4, "dimension": 13},
    ),
}


@pytest.mark.parametrize("value, form", JSON_FORMS.values(), ids=JSON_FORMS)
def test_to_json_is_the_fields_by_name(value, form):
    got = value.to_json()
    assert got == form
    assert list(got) == list(form)
    assert json.loads(json.dumps(got)) == form


@CASES
def test_every_record_serialises(make, make_other, text):
    # GluingDatum's sigma, a tuple of rows holding a Fraction, included.
    value = make()
    assert json.loads(json.dumps(value.to_json())) == value.to_json()


def test_sigma_serialises_as_rows_of_rationals():
    datum = GluingDatum(2, None, 2, 3, sigma=[[1, 0], [Fraction(-1, 2), 0]])
    assert datum.to_json() == {
        "r": 2, "k": 1, "chi1": 2, "chi2": 3, "sigma": [[1, 0], ["-1/2", 0]]
    }


def _float_fractions(value):
    return float(value) if isinstance(value, Fraction) else _json(value)


def _flat_records(value):
    return value if isinstance(value, Record) else _json(value)


REPORTS = {"FeasibilityReport", "FeasibilityReport-chi-zero", "FeasibilityReport-infeasible"}
INTERVALS = {"RationalInterval", "RationalInterval-negative-integer-end", "RationalInterval-empty"}


@pytest.mark.parametrize(
    "broken, caught",
    [
        (_float_fractions, {"Polarization"} | INTERVALS | REPORTS),
        (_flat_records, REPORTS),
    ],
    ids=["float-fractions", "nested-records-kept"],
)
def test_negative_control_broken_encoder_is_caught(monkeypatch, broken, caught):
    monkeypatch.setattr(_record, "_json", broken)
    wrong = {name for name, (value, form) in JSON_FORMS.items() if value.to_json() != form}
    assert wrong == caught
