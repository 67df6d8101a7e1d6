import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nodalmoduli.rationals import (
    RationalInterval,
    format_rational,
    parse_ratio,
    parse_rational,
    short_repr,
)
from oracles import (
    OPEN_UNIT,
    closed,
    contains,
    intersect,
    needs_default_digit_limit,
    sample,
)

# Well-formed "p/q" or "p" strings, unreduced, signed and padded, and
# strings from the characters such strings are made of.
RATIO_TEXT = st.one_of(
    st.builds(
        lambda pad, sign, p, q: f"{pad}{sign}{p}{'' if q is None else f'/{q}'}{pad}",
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 10**12),
        st.none() | st.integers(0, 10**12),
    ),
    st.text(alphabet="0123456789+-/ ._e\n", max_size=12),
)


class TestRationalArithmetic:
    def test_addition(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)

    def test_parse_canonicalizes(self):
        assert parse_rational("2/4") == Fraction(1, 2)
        assert parse_rational("2/4").numerator == 1
        assert parse_rational("2/4").denominator == 2

    def test_canonical_form_equality(self):
        assert parse_rational("1/3") == parse_rational("2/6")

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    @pytest.mark.parametrize(
        "text", ["0.5", "", "1/0", "1/-2", "a/b", "1 / 2", "1//2", "+/3", "1_0"]
    )
    def test_parse_rejects_garbage(self, text):
        # "1_0" would pass int(); "1/0" would pass the pattern.
        with pytest.raises(ValueError):
            parse_rational(text)
        with pytest.raises(ValueError):
            parse_ratio(text)

    def test_parse_ratio_keeps_the_pair_as_written(self):
        assert parse_ratio("2/4") == (2, 4)
        assert parse_ratio(" -6/3 ") == (-6, 3)
        assert parse_ratio("+7") == (7, 1)
        assert parse_ratio("0/5") == (0, 5)

    # One digit past CPython's default limit of 4,300 on int() of a string.
    @needs_default_digit_limit
    @pytest.mark.parametrize(
        "text", ["9" * 4301 + "/2", "1/" + "7" * 4301], ids=["numerator", "denominator"]
    )
    def test_parse_ratio_refuses_more_digits_than_int_converts(self, text):
        with pytest.raises(ValueError) as info:
            parse_ratio(text)
        assert str(info.value) == f"too many digits in rational: {short_repr(text)}"
        with pytest.raises(ValueError):
            parse_rational(text)

    @needs_default_digit_limit
    def test_parse_ratio_takes_digits_up_to_the_limit(self):
        num, den = parse_ratio("9" * 4300 + "/" + "7" * 4300)
        assert (num, den) == (10**4300 - 1, 7 * (10**4300 - 1) // 9)

    @given(RATIO_TEXT)
    def test_parse_ratio_agrees_with_parse_rational(self, text):
        try:
            want = parse_rational(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                parse_ratio(text)
            assert str(info.value) == str(exc)
            return
        num, den = parse_ratio(text)
        assert den > 0
        assert Fraction(num, den) == want

    def test_format(self):
        assert format_rational(Fraction(3, 1)) == "3"
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(7) == "7"

    @given(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_arithmetic_matches_cross_multiplication(self, an, ad, bn, bd):
        a, b = Fraction(an, ad), Fraction(bn, bd)
        assert a + b == Fraction(an * bd + bn * ad, ad * bd)
        assert a - b == Fraction(an * bd - bn * ad, ad * bd)
        assert a * b == Fraction(an * bn, ad * bd)
        if bn != 0:
            assert a / b == Fraction(an * bd, ad * bn)
        # Total order agrees with integer cross multiplication.
        lhs, rhs = an * bd, bn * ad
        assert (a < b) == (lhs < rhs)
        assert (a == b) == (lhs == rhs)

    @given(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_canonical_form_invariants(self, n, d):
        q = Fraction(n, d)
        assert q.denominator > 0
        import math

        assert math.gcd(abs(q.numerator), q.denominator) == 1
        # Idempotence of canonicalization.
        assert Fraction(q.numerator, q.denominator) == q

    @given(st.integers(-(10**9), 10**9), st.integers(1, 10**9))
    def test_string_round_trip(self, n, d):
        q = Fraction(n, d)
        assert parse_rational(format_rational(q)) == q

    @given(st.integers(-(10**9), 10**9), st.integers(1, 10**9))
    def test_str_of_a_fraction_is_the_format(self, n, d):
        # Record.to_json writes a Fraction field with str.
        q = Fraction(n, d)
        assert str(q) == format_rational(q)
        want = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        assert str(q) == want


class TestShortRepr:
    @pytest.mark.parametrize("value", ["0.5", True, "1/0", "x" * 38, [[1, 2], [3]]])
    def test_a_short_value_is_quoted_whole(self, value):
        assert short_repr(value) == repr(value)

    def test_a_long_value_is_cut_with_its_length(self):
        text = "x" * 39
        assert short_repr(text) == "'" + text[:39] + "... (41 characters)"
        assert short_repr("y" * 10**6) == "'" + "y" * 39 + "... (1000002 characters)"

    @pytest.mark.parametrize(
        "text, head",
        [("0." + "3" * 99_998, "not a rational 'p/q' or 'p' string: '0.33"),
         # Within int()'s default limit of 4,300 digits.
         pytest.param("1/" + "0" * 998, "zero denominator in rational string: '1/00",
                      marks=needs_default_digit_limit)],
        ids=["not-a-ratio", "zero-denominator"],
    )
    def test_parse_ratio_quotes_a_long_string_cut(self, text, head):
        with pytest.raises(ValueError) as info:
            parse_ratio(text)
        message = str(info.value)
        assert message.startswith(head)
        assert message.endswith(f"... ({len(text) + 2} characters)")
        assert len(message) < 100


def _random_interval(rng: random.Random) -> RationalInterval:
    def endpoint():
        return Fraction(rng.randint(-8, 8), rng.randint(1, 6))

    return RationalInterval(
        endpoint(), endpoint(), rng.random() < 0.5, rng.random() < 0.5
    )


def _from_json(data: dict) -> RationalInterval:
    return RationalInterval(
        parse_rational(data["lower"]),
        parse_rational(data["upper"]),
        data["lower_open"],
        data["upper_open"],
    )


class TestIntervals:
    def test_intersect_containment(self):
        a = closed(Fraction(1, 3), Fraction(2, 3))
        assert intersect(a, OPEN_UNIT) == a

    def test_intersect_touching_open_closed_is_empty(self):
        a = closed(0, Fraction(1, 2))
        b = RationalInterval(Fraction(1, 2), Fraction(1), True, False)
        assert intersect(a, b).is_empty
        assert intersect(a, b) == RationalInterval.empty()

    def test_degenerate_data_canonicalizes_to_empty(self):
        assert RationalInterval(Fraction(1), Fraction(0)).is_empty
        assert RationalInterval(Fraction(1), Fraction(0)) == RationalInterval.empty()
        assert RationalInterval(Fraction(1, 2), Fraction(1, 2), True, False).is_empty

    def test_single_closed_point_is_not_empty(self):
        point = closed(Fraction(1, 2), Fraction(1, 2))
        assert not point.is_empty
        assert contains(point, Fraction(1, 2))
        assert sample(point) == Fraction(1, 2)

    def test_sample_midpoint(self):
        assert sample(closed(Fraction(1, 3), Fraction(2, 3))) == Fraction(1, 2)
        assert sample(OPEN_UNIT) == Fraction(1, 2)
        assert sample(RationalInterval.empty()) is None

    def test_endpoints_must_be_finite_and_exact(self):
        with pytest.raises(TypeError):
            RationalInterval(None, Fraction(1, 4), True, True)
        with pytest.raises(TypeError):
            RationalInterval(Fraction(2), None, True, True)
        with pytest.raises(ValueError, match="got the float 0.25"):
            RationalInterval(Fraction(0), 0.25)

    def test_intersect_randomized_algebra(self):
        # Commutativity, associativity, idempotence on 10^4 random pairs.
        rng = random.Random(20260810)
        for _ in range(10_000):
            a = _random_interval(rng)
            b = _random_interval(rng)
            c = _random_interval(rng)
            assert intersect(a, b) == intersect(b, a)
            assert intersect(a, a) == a
            assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))

    def test_sample_membership_randomized(self):
        rng = random.Random(8128)
        for _ in range(10_000):
            interval = _random_interval(rng)
            got = sample(interval)
            if interval.is_empty:
                assert got is None
            else:
                assert got is not None and contains(interval, got)

    def test_json_round_trip(self):
        rng = random.Random(496)
        for _ in range(500):
            interval = _random_interval(rng)
            assert _from_json(interval.to_json()) == interval
        assert RationalInterval.empty().to_json() == {
            "lower": "0",
            "upper": "0",
            "lower_open": True,
            "upper_open": True,
        }
