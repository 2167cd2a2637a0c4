import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fraction_oracles as oracle
from genpascal.rationals import MAX_EXPONENT, format_rational, format_rows, parse_rational, ratio


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


def parse_or_error(parse, text):
    """The parsed value, or ValueError for any rejection (a zero denominator included)."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        return ValueError


def general_parse(text):
    """Fraction(str), except that an exponent beyond MAX_EXPONENT is refused first."""
    _, e, exponent = text.strip().lower().rpartition("e")
    if e and exponent.lstrip("+-").replace("_", "").isdecimal() and abs(int(exponent)) > MAX_EXPONENT:
        raise ValueError(text)
    return Fraction(text.strip())


# the fast path reads only -?[0-9]+(/[0-9]+)?; everything else must still parse as Fraction(str) does,
# up to the exponent bound
EDGE_CASES = ["2/4", "+3", " 3 ", "-0", "1_000", "3/-2", "1e3", "1.5", "3/0", "٣", ""]
EDGE_CASES += ["1e4300", "-2.5E-4300 ", "1e+4_300", "0e0004300"]
EDGE_CASES += ["1e4301", "0e600000", "1.5e-4301", "1E999999999", "1e٤٣٠١", "x1e5000"]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_parse_agrees_with_the_general_parser(text):
    assert parse_or_error(parse_rational, text) == parse_or_error(general_parse, text)


def test_parse_edge_values():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-2.5E-4300 ") == Fraction(-25, 10**4301)
    with pytest.raises(ValueError, match=r"^exponent in '0e600000' exceeds 4300 in absolute value$"):
        parse_rational("0e600000")
    with pytest.raises(ValueError, match=r"^zero denominator in '3/0'$"):
        parse_rational("3/0")


@given(
    st.one_of(
        st.fractions().map(str),
        st.builds(lambda n, d: f"{n}/{d}", st.integers(), st.integers(min_value=0)),
        st.text(alphabet="0123456789-+/ ._e٣\t", max_size=12),
        st.builds(lambda m, e: f"{m}e{e}", st.integers(), st.integers(-2 * MAX_EXPONENT, 2 * MAX_EXPONENT)),
        st.text(max_size=8),
    )
)
def test_parse_matches_the_general_parser(text):
    got = parse_or_error(parse_rational, text)
    assert got == parse_or_error(general_parse, text)
    assert got is ValueError or type(got) is Fraction


@given(st.integers(min_value=-10**40, max_value=10**40), st.integers(min_value=-10**20, max_value=10**20))
@example(5, 0)
@example(-6, 4)
def test_ratio_is_the_fraction_of_top_and_bottom(top, bottom):
    for top in (top, top * bottom):  # the second divides exactly
        try:
            want = Fraction(top, bottom)
        except ZeroDivisionError as exc:
            with pytest.raises(ZeroDivisionError) as raised:
                ratio(top, bottom)
            assert str(raised.value) == str(exc)
        else:
            got = ratio(top, bottom)
            assert got == want and type(got) is Fraction


@st.composite
def int_rows(draw):
    """A row of 0 to 9 signed ints, as a tuple or a list: a palindrome (its first
    half drawn and mirrored, around a middle entry when its length is odd) or not."""
    length = draw(st.integers(0, 9))
    entries = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
    if draw(st.booleans()):
        half = draw(st.lists(entries, min_size=length // 2, max_size=length // 2))
        row = half + draw(st.lists(entries, min_size=length % 2, max_size=length % 2)) + half[::-1]
    else:
        row = draw(st.lists(entries, min_size=length, max_size=length))
    return draw(st.sampled_from([tuple, list]))(row)


@given(st.integers(1, 12), st.lists(int_rows(), max_size=6))
@example(1, [(), (5,), (1, 1), (1, 2, 1), (1, 2, 2, 1), (1, 2), (1, 2, 3)])
@example(6, [(3, -4, 3), (2, 9, 12, 9, 2), (4, 4), (6, -6, 0)])  # unreduced numerators over den 6
def test_format_rows_is_the_per_entry_text(den, rows):
    # the palindromic rows are formatted from their first half and mirrored; the others in full
    assert format_rows(den, rows) == oracle.format_rows(den, rows)
    assert oracle.format_rows(den, rows) == [[format_rational(Fraction(x, den)) for x in row] for row in rows]


INT_TEXT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(INT_TEXT_LIMIT != 4300, reason="needs CPython's default cap on int-to-text conversion")
@pytest.mark.parametrize("den, row", [(1, (1, 10**4300, 1)), (3, (3, 10**4301 + 1, 10**4301 + 1, 3))])
def test_format_rows_refuses_a_palindrome_past_the_int_text_limit(den, row):
    # the middle entry lies in the half that is formatted, so the mirror cannot skip it
    message = r"^an entry has more than 4300 digits, more than the JSON/CSV writers can print$"
    for fmt in (format_rows, oracle.format_rows):
        with pytest.raises(ValueError, match=message):
            fmt(den, [(1,), row])
