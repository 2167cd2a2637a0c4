"""Exact rational scalars and their text format.

Every scalar in the package is a ``fractions.Fraction``: automatically reduced,
positive denominator, exact closed arithmetic. The wire format used by the JSON
and CSV documents writes integers as plain decimal strings and everything else
as ``num/den`` in lowest terms (``"1/24"``, ``"-3/2"``), which is exactly what
``str(Fraction)`` produces.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# the form format_rational writes; read with int(), not the general Fraction(str) parser
_WIRE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse ``"3"``, ``"-3/2"`` or an exact decimal literal; ValueError on anything else."""
    try:
        if isinstance(text, str) and _WIRE.fullmatch(text):
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except AttributeError:
        raise ValueError(f"expected a rational string, got {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    return str(value if type(value) is Fraction else Fraction(value))
