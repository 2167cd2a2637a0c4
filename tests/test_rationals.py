from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genpascal.rationals import format_rational, parse_rational


def test_integer_format():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7)) == "-7"
    assert format_rational(Fraction(0)) == "0"


def test_fraction_format():
    assert format_rational(Fraction(1, 24)) == "1/24"
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(6, 4)) == "3/2"


def test_parse():
    assert parse_rational("1/24") == Fraction(1, 24)
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational(" 5 ") == 5


@pytest.mark.parametrize("bad", ["1/0", "-3/0", "abc", "1/2/3", 1, None, [1]])
def test_parse_rejects_with_value_error(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(st.fractions())
def test_round_trip(x):
    assert parse_rational(format_rational(x)) == x
