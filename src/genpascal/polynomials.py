"""Dense exact polynomials: the row and column values of the matrices.

A polynomial is stored as its integer view (den, ints), by the rule of the
matrices: den is the lcm of the coefficient denominators and ints[k] is den
times the coefficient of x**k, with trailing zeros stripped, so the view is
unique and equal polynomials have equal views. The library builds them from
int views (``from_view``) and compares them; ``coeffs`` makes the exact
Fractions on first read, one per distinct numerator. A polynomial built from
values stores only their view, too. ``x -> x**q`` is a strided copy of the
ints. Every product of two coefficient lists is ``mul_ints``, the first
``size`` coefficients of the product of two int lists: ``Polynomial.__mul__``
takes all of them over the product of the denominators, ``mul_trunc`` the
ones through a degree of two truncated power series, and the carryless
convolution its base block.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add, mul
from typing import Iterable, Sequence

from .rationals import ONE, SharedFractions, Value, lowest_view, to_view


class Polynomial(Value):
    """Immutable polynomial with exact rational coefficients; coefficient
    index = degree. The zero polynomial has no coefficients."""

    __slots__ = ("_view",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        den, ints = to_view(coeffs)  # den is the lcm, so from_view only strips the trailing zeros
        super().__init__(Polynomial.from_view(den, ints)._view)

    @classmethod
    def from_view(cls, den: int, ints: Iterable[int]) -> "Polynomial":
        """The polynomial sum_k ints[k] / den * x**k, stored as its view: trailing
        zeros are stripped and one gcd of den and the ints divided out; no
        Fraction is built."""
        ints = list(ints)
        while ints and not ints[-1]:
            ints.pop()
        den, (ints,) = lowest_view(den, (ints,))
        return cls._make((den, tuple(ints)))

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as exact Fractions, built from the view on first read."""
        den, ints = self._view
        return tuple(map(SharedFractions(den).__getitem__, ints))

    def int_view(self) -> tuple[int, tuple[int, ...]]:
        """(den, ints), ints[k] = den * [x**k], as ``TriangularMatrix.int_view``."""
        return self._view

    def __mul__(self, other):
        da, a = self._view
        if isinstance(other, (int, Fraction)):
            return Polynomial.from_view(da * other.denominator, [x * other.numerator for x in a])
        db, b = other._view
        return Polynomial.from_view(da * db, mul_ints(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def substitute_power(self, q: int) -> "Polynomial":
        """p(x) -> p(x**q), for q >= 1."""
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        den, ints = self._view
        if not ints:
            return self
        out = [0] * ((len(ints) - 1) * q + 1)
        out[::q] = ints
        return Polynomial._make((den, tuple(out)))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


P_ZERO = Polynomial()
P_ONE = Polynomial([ONE])


def w_poly(m: int) -> Polynomial:
    """1 + x + ... + x**m, with the zero polynomial for m = -1."""
    if m < -1:
        raise ValueError("w_poly needs m >= -1")
    return Polynomial._make((1, (1,) * (m + 1)))


def mul_ints(a: Sequence[int], b: Sequence[int], size: int) -> list[int]:
    """The first ``size`` coefficients of the product of the int lists a and b
    (none for size <= 0): b times each nonzero a[i], added at shift i."""
    out = [0] * size
    width = len(b)
    for i, x in enumerate(a[: max(size, 0)]):
        if x:
            out[i : i + width] = map(add, out[i : i + width], map(mul, b, repeat(x)))
    return out


def mul_trunc(a: Sequence[Fraction], b: Sequence[Fraction], degree: int) -> list[Fraction]:
    """Coefficient list of a*b through ``degree``, on the integer views of a and b."""
    size = max(degree + 1, 0)
    (da, xa), (db, xb) = to_view(a[:size]), to_view(b[:size])
    return list(map(SharedFractions(da * db).__getitem__, mul_ints(xa, xb, size)))
