"""Exact rational scalars and their text format.

Every scalar in the package is a ``fractions.Fraction``: automatically reduced,
positive denominator, exact closed arithmetic. The wire format used by the JSON
and CSV documents writes integers as plain decimal strings and everything else
as ``num/den`` in lowest terms (``"1/24"``, ``"-3/2"``), which is exactly what
``str(Fraction)`` produces.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class SharedFractions(dict):
    """Maps each distinct numerator x to one exact Fraction x / den, built on
    first lookup (den = 1 by default).

    The coercion rule of the matrix and polynomial constructors: an exact
    Fraction passes through (re-wrapping costs a full construction), and
    anything else (an int, a bool, a Fraction subclass) is looked up here.
    0 and den map to ZERO and ONE, so equal objects built apart share those
    entries and compare by identity first."""

    def __init__(self, den: int = 1):
        super().__init__({0: ZERO, den: ONE})
        self.den = den

    def __missing__(self, value):
        self[value] = shared = Fraction(value) if self.den == 1 else Fraction(value, self.den)
        return shared


# the form format_rational writes; read with int(), not the general Fraction(str) parser
WIRE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
# Fraction(str) builds 10**exponent in full, so a larger exponent (in its syntax) is
# refused first; 10**4300 has more digits than int() reads from text by default anyway
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
MAX_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """Parse ``"3"``, ``"-3/2"`` or an exact decimal literal whose exponent is
    at most MAX_EXPONENT in absolute value; ValueError on anything else."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    try:
        if WIRE.fullmatch(text):
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            raise ValueError(f"exponent in {text!r} exceeds {MAX_EXPONENT} in absolute value")
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:  # CPython's cap on text-to-int conversion, or a malformed literal
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no cap, as before 3.10.7
        if limit and sum(map(str.isdigit, text)) > limit:
            message = f"a rational has more than {limit} digits, more than the readers can parse"
            raise ValueError(message) from None
        raise


def format_rational(value: Fraction | int) -> str:
    if type(value) is not Fraction:
        value = Fraction(value)
    try:
        return str(value)
    except ValueError:  # CPython's cap on int-to-text conversion
        raise ValueError(_too_long_to_print()) from None


def format_rows(den: int, rows: Iterable[Iterable[int]]) -> list[list[str]]:
    """The wire text of each entry x / den of an integer view, equal to
    ``format_rational`` of the exact value and built without a Fraction."""

    @cache  # each distinct numerator is reduced once
    def text(x: int) -> str:
        g = gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"

    try:
        return [list(map(str if den == 1 else text, row)) for row in rows]
    except ValueError:  # CPython's cap on int-to-text conversion
        raise ValueError(_too_long_to_print()) from None


def _too_long_to_print() -> str:
    limit = sys.get_int_max_str_digits()
    return f"an entry has more than {limit} digits, more than the JSON/CSV writers can print"


def common_denominator(values: Iterable[Fraction]) -> int:
    """The lcm of the denominators of exact Fractions, 1 for none."""
    return lcm(*{v.denominator for v in values})


def numerators(values: Iterable[Fraction], den: int) -> list[int]:
    """Each value times ``den`` as an int; ``den`` must be a common denominator."""
    if den == 1:
        return [v.numerator for v in values]
    return [v.numerator * (den // v.denominator) for v in values]


def lowest_view(den: int, rows: Sequence[Sequence[int]]) -> tuple[int, Sequence[Sequence[int]]]:
    """The integer view of the values x / den over the lcm of their
    denominators: the gcd of den and every x is divided out. The rows come
    back unchanged when that gcd is 1, else as tuples."""
    if den < 1:
        raise ValueError(f"den must be >= 1, got {den}")
    if den > 1:
        g = gcd(den, *chain.from_iterable(rows))
        if g > 1:
            return den // g, tuple(tuple([x // g for x in row]) for row in rows)
    return den, rows
