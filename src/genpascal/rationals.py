"""Exact rational scalars, their text format, and the base of the immutable values.

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
from functools import cache, update_wrapper
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class Value:
    """A matrix, polynomial, set of mask weights, spec or report. Its fields are its class's ``__slots__``, set
    once by ``__init__``, or by ``_make`` with none of a subclass's checks; ``==``, ``hash``, ``repr`` (of the
    public fields) and copying read them. The ``lazy`` caches live in the instance ``__dict__``."""

    __slots__ = ("__dict__",)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _make(cls, *values):
        self = object.__new__(cls)
        Value.__init__(self, *values)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _state(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self._state() == other._state() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._state())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return self._make, self._state()


class lazy:
    """A ``Value`` attribute that ``build(value)`` makes on its first read, kept in the
    value's ``__dict__``, where later reads find it as a plain attribute and call nothing."""

    def __init__(self, build):
        update_wrapper(self, build)

    def __get__(self, value, owner=None):
        if value is None:
            return self
        return value.__dict__.setdefault(self.__name__, self.__wrapped__(value))


def to_view(values: Iterable) -> tuple[int, list[int]]:
    """The integer view (den, ints) that matrices and polynomials store: den is the lcm
    of the denominators and ints[k] = den * values[k]. Ints and Fractions are read as they
    are; anything else (a bool, a Fraction subclass, ``"3/2"``) goes through ``Fraction()``."""
    vs = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values]
    den = lcm(*{v.denominator for v in vs})
    return den, [v.numerator * (den // v.denominator) for v in vs]


def ratio(top: int, bottom: int) -> Fraction:
    """Fraction(top, bottom), with no gcd when bottom divides top: the exact
    quotient is read off one division. A zero bottom raises Fraction's own
    ZeroDivisionError."""
    if bottom:
        quotient, rest = divmod(top, bottom)
        if not rest:
            return Fraction(quotient)
    return Fraction(top, bottom)


class SharedFractions(dict):
    """Maps each distinct numerator x of a view over den to one exact Fraction
    x / den, built on first lookup. 0 and den map to ZERO and ONE, so equal
    objects built apart share those entries and compare by identity first."""

    def __init__(self, den: int):
        super().__init__({0: ZERO, den: ONE})
        self.den = den

    def __missing__(self, x: int) -> Fraction:
        self[x] = shared = Fraction(x, self.den)
        return shared


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


def format_pairs(pairs: Iterable[tuple[int, int]]) -> list[str]:
    """The wire text of each a / d given in lowest terms with d >= 1, equal
    to ``format_rational`` of the exact value and built without a Fraction."""
    try:
        return [str(a) if d == 1 else f"{a}/{d}" for a, d in pairs]
    except ValueError:  # CPython's cap on int-to-text conversion
        raise ValueError(_too_long_to_print()) from None


def _text(x: int, den: int) -> str:
    """The wire text of x / den for den >= 1, read off one gcd."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def format_rows(den: int, rows: Iterable[Iterable[int]]) -> list[list[str]]:
    """The wire text of each entry x / den of an integer view, equal to
    ``format_rational`` of the exact value and built without a Fraction.

    Each row is a sequence (a tuple or a list). A palindromic row, one with
    ``row == row[::-1]`` as every row of a generalized Pascal matrix is by the
    symmetry (n, m) = (n, n - m), gets text for its first (len + 1) // 2
    entries, followed by the reverse of the first len // 2 texts. Any other
    row (a q-umbral inverse row, a convolved series) is formatted in full.
    The test is made on each row as it is read."""
    text = str if den == 1 else cache(lambda x: _text(x, den))  # each distinct numerator is reduced once
    texts = []
    try:
        for row in rows:
            if row == row[::-1]:
                half = list(map(text, row[: (len(row) + 1) // 2]))
                texts.append(half + half[-1 - len(row) % 2 :: -1])  # an odd row's middle text is not repeated
            else:
                texts.append(list(map(text, row)))
    except ValueError:  # CPython's cap on int-to-text conversion
        raise ValueError(_too_long_to_print()) from None
    return texts


def _too_long_to_print() -> str:
    limit = sys.get_int_max_str_digits()
    return f"an entry has more than {limit} digits, more than the JSON/CSV writers can print"


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
